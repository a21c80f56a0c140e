"""Narrative-function analysis toolkit for web fiction corpora.

Subpackages cover the 34-symbol function registry, inline annotation
parsing, storyline paradigm matching and mining, recognition metrics,
homogenization analysis, and an experiment harness with mock/replay/http
model backends.  Each loads on first use: ``import narrfunc`` imports
none of them, and ``narrfunc.paradigm`` imports that one (PEP 562).
"""

__version__ = "0.1.0"

_SUBMODULES = {"annotation", "harness", "homogenization", "metrics", "paradigm",
               "taxonomy"}


def __getattr__(name):
    if name in _SUBMODULES:  # __import__, unlike importlib, shows in -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
