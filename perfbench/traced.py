"""Traced runner: ``narrfunc.cli.main`` with spans around layer calls.

Usage (with the program's ``src`` directory on PYTHONPATH)::

    python perfbench/traced.py SPANS.json [narrfunc arguments ...]

The runner wraps the public functions that one layer (a module under
``src/narrfunc/``) calls in another, at every module binding that
refers to them, plus each backend's ``complete`` method.  The program
itself is not changed.  Spans stay in memory and are written to
SPANS.json when the command ends; :func:`layer_totals` turns them into
per-layer self times and counts.

Intra-layer hot calls (``matches``, ``is_symbol``, ``edit_distance``,
...) are deliberately not wrapped: the wrapper would cost more than the
call and swamp the measurement.
"""

import functools
import itertools
import json
import sys
import threading
import time
import types


def _n(seqs):
    return len(seqs) if hasattr(seqs, "__len__") else 0


def _episode_counts(args, kwargs, report):
    lengths = [len(e) for e in args[0].episodes]
    total = sum(lengths)
    return (("homogenization.pairs", len(lengths) * (len(lengths) - 1) // 2),
            ("homogenization.dp_cells", (total * total
                                         - sum(n * n for n in lengths)) // 2))


def _episode_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "edit")
    return f"homogenization.analyze_{method}"


# Span name (or a function of the call's arguments giving it) and a
# function of (args, kwargs, result) giving the span's work counts, for
# each traced function, keyed by defining module and attribute.
TRACED = {
    ("annotation", "parse_inline"): ("annotation.parse_inline", lambda a, k, r: (
        ("annotation.markers", len(r[1])), ("annotation.chars", len(a[0])))),
    ("annotation", "emit_inline"): ("annotation.emit_inline", None),
    ("annotation", "load_corpus"): ("annotation.load_corpus", None),
    ("annotation", "load_sequences"): ("annotation.load_sequences", lambda a, k, r: (
        ("annotation.sequences", len(r)),)),
    ("harness", "build_payload"): ("harness.build_payload", None),
    ("harness", "run_recognition"): ("harness.run_recognition", lambda a, k, r: (
        ("harness.requests", r.requests),)),
    ("harness", "parse_model_output"): ("harness.parse_model_output", None),
    ("metrics", "score_instances"): ("metrics.score_instances", lambda a, k, r: (
        ("metrics.instances_scored", len(a[0])),)),
    ("metrics", "gold_instances"): ("metrics.gold_instances", None),
    ("metrics", "aggregate"): ("metrics.aggregate", None),
    # paradigm.patterns counts sequence x pattern evaluations.
    ("paradigm", "support"): ("paradigm.support", lambda a, k, r: (
        ("paradigm.patterns", _n(a[0])),)),
    ("paradigm", "classify"): ("paradigm.classify", lambda a, k, r: (
        ("paradigm.patterns", _n(a[1])),)),
    ("paradigm", "mine"): ("paradigm.mine", None),
    ("homogenization", "analyze_episodes"): (_episode_span, _episode_counts),
    ("cli", "main"): ("cli.main", None),
}
BACKENDS = ("MockBackend", "ReplayBackend", "HttpBackend")


class Tracer:
    """Records one span per traced call: id, parent id, name index, start
    and end (``perf_counter_ns``).

    Spans go into one flat list of integers and work counts are summed per
    key, so recording a span leaves behind nothing the garbage collector
    tracks; a list of span tuples made the traced program itself
    measurably slower.  ``list.extend`` runs under the interpreter lock,
    so worker threads can record without a lock of their own.  A call
    made on a worker thread with no open span of its own takes the main
    thread's innermost open span as its parent: the main thread is the
    one waiting for it.
    """

    FIELDS = 5  # id, parent, name index, start, end

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._local.stack = []

    def _name_index(self, name):
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def _add_counts(self, counts):
        with self._lock:
            for key, value in counts:
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, count=None, on_failure=()):
        local, main_stack, ids = self._local, self._main_stack, self._ids
        record = self.spans.extend
        fixed_index = None if callable(name) else self._name_index(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span = next(ids)
            index = self._name_index(name(args, kwargs)) if fixed_index is None \
                else fixed_index
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record((span, parent, index, start, clock()))
                self._add_counts(on_failure)
                raise
            finally:
                stack.pop()
            record((span, parent, index, start, clock()))
            if count:
                self._add_counts(count(args, kwargs, result))
            return result

        return traced

    def install(self, modules):
        """Replace each traced function at every binding in ``modules``."""
        wrappers = {}
        for (module, attr), (name, count) in TRACED.items():
            fn = getattr(modules[module], attr)
            wrappers[fn] = self.wrap(name, fn, count)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for cls_name in BACKENDS:
            cls = getattr(modules["harness"], cls_name)
            cls.complete = self.wrap("harness.complete", cls.complete,
                                     on_failure=(("harness.request_failures", 1),))

    def document(self, import_s):
        return {"import_s": import_s, "names": self.names, "counts": self.counts,
                "spans": self.spans}


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = -1
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(doc):
    """Self time (``<name>_s``) and call count (``<name>_calls``) per span
    name, plus the summed work counts, from a :meth:`Tracer.document`.
    Self time is a span's duration minus the part of it that its child
    spans cover."""
    flat = doc["spans"]
    spans = [flat[i:i + Tracer.FIELDS] for i in range(0, len(flat), Tracer.FIELDS)]
    children = {}
    for _, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    totals = dict(doc["counts"])
    for span, parent, index, start, end in spans:
        name = doc["names"][index]
        self_ns = end - start - _covered(children.get(span, ()))
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + self_ns / 1e9
        totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
    return totals


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from narrfunc import annotation, cli, harness, homogenization, metrics, paradigm
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install({"annotation": annotation, "cli": cli, "harness": harness,
                    "homogenization": homogenization, "metrics": metrics,
                    "paradigm": paradigm})
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        # json.dumps, unlike json.dump, uses the C encoder.
        fh.write(json.dumps(tracer.document(import_s)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
