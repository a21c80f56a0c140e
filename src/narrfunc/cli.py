"""Command-line interface.

Subcommands tie the library into reproducible workflows; every report
opens with a provenance header (tool version, effective settings, input
digests) so each number can be traced to its inputs.  All input is checked
before the first byte goes out; ``match`` streams its rows (:func:`_emit`).
Exit codes: 0 success, 1 stdout closed early (``| head``), 2 input/config
error, 3 analytic failure, 4 backend unreachable.
"""

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring

from . import __version__, annotation, harness, homogenization, paradigm, taxonomy
from .errors import BackendUnreachable, EmptyCorpus, MiningFailed, NarrfuncError

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_ANALYTIC = 3
EXIT_BACKEND = 4


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _header(command, settings, inputs):
    return {
        "tool": f"narrfunc {__version__}",
        "command": command,
        "settings": settings,
        "inputs": {p: _file_digest(p) for p in inputs},
    }


_JSON = dict(sort_keys=True, ensure_ascii=False, indent=2, default=str)
_ROWS_PER_WRITE = 2048


def _emit(report, fmt, out=None):
    """Write the dict *report* as text, or as ``json.dumps(report, **_JSON)``
    would with each top-level iterator of flat rows listed by _write_rows."""
    out = out if out is not None else sys.stdout
    if fmt != "json":
        return _emit_text(report, out)
    lead = "{\n  "
    for key in sorted(report):
        out.write(f"{lead}{encode_basestring(key)}: ")
        if isinstance(report[key], Iterator):
            _write_rows(report[key], out)
        else:  # one level deep; JSON strings hold no raw newline
            out.write(json.dumps(report[key], **_JSON).replace("\n", "\n  "))
        lead = ",\n  "
    out.write("\n}\n" if report else "{}\n")


def _write_rows(rows, out):
    """Write flat rows (dicts of str and str lists) as a JSON list in chunks:
    a template per key set, a block per distinct list, C-escaped strings."""
    templates, blocks, lead = {}, {}, "[\n"

    def field(value):
        if type(value) is str:
            return encode_basestring(value)
        if (items := tuple(value)) not in blocks:
            blocks[items] = "[\n        " + ",\n        ".join(
                map(encode_basestring, items)) + "\n      ]" if items else "[]"
        return blocks[items]

    def render(row):
        if (keys := tuple(row)) not in templates:
            templates[keys] = sorted(row), "    {" + ",".join(
                f"\n      {encode_basestring(k).replace('%', '%%')}: %s"
                for k in sorted(row)) + ("\n    }" if keys else "}")
        ordered, template = templates[keys]
        return template % tuple([field(row[k]) for k in ordered])

    while chunk := list(map(render, islice(rows, _ROWS_PER_WRITE))):
        out.write(lead + ",\n".join(chunk))
        lead = ",\n"
    out.write("[]" if lead == "[\n" else "\n  ]")


def _emit_text(obj, out, indent=""):
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list, Iterator)):
                out.write(f"{indent}{key}:\n")
                _emit_text(value, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {value}\n")
    elif isinstance(obj, (list, Iterator)):
        for value in obj:
            if isinstance(value, (dict, list)):
                _emit_text(value, out, indent + "  ")
            else:
                out.write(f"{indent}- {value}\n")


def _load_config_file(path):
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            settings[key.strip()] = value.strip()
    return settings


def _resolved(args, keys):
    """flags > env (NARR_<KEY>) > config file."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key in keys:
        flag = getattr(args, key, None)
        env = os.environ.get(f"NARR_{key.upper()}")
        resolved[key] = flag if flag is not None else (
            env if env is not None else file_cfg.get(key))
    return resolved


def cmd_registry(args):
    defs = taxonomy.legacy_functions() if args.legacy else taxonomy.all_functions()
    for d in defs:
        record = {"symbol": d.symbol, "name": d.name, "description": d.description}
        if not args.legacy:
            record["status"] = d.status
            record["division_hints"] = sorted(d.division_hints)
        print(json.dumps(record, sort_keys=True, ensure_ascii=False))
    return EXIT_OK


def cmd_parse(args):
    with open(args.input, encoding="utf-8") as fh:
        lines = fh.readlines()
    if args.format == "seq":
        seqs = annotation.load_sequences(lines)
        report = {
            "header": _header("parse", {"format": "seq"}, [args.input]),
            "sequences": ["-".join(s) for s in seqs],
            "count": len(seqs),
        }
    elif args.format == "jsonl":
        segments = annotation.load_corpus(lines, strict=args.strict)
        report = {
            "header": _header("parse", {"format": "jsonl", "strict": args.strict},
                              [args.input]),
            "segments": [
                {"id": s.id, "genre": s.genre,
                 "sequence": "-".join(annotation.sequence_of(s)),
                 "annotations": len(s.annotations)}
                for s in segments
            ],
            "count": len(segments),
        }
    else:  # inline: whole file is one segment, blank line splits segments
        chunks = [c for c in "\n".join(l.rstrip("\n") for l in lines).split("\n\n")
                  if c.strip()]
        segments = []
        for i, chunk in enumerate(chunks, start=1):
            clean, anns = annotation.parse_inline(chunk, strict=args.strict)
            segments.append({
                "id": f"{args.input}:{i}",
                "sequence": "-".join(a.symbol for a in anns),
                "annotations": len(anns),
                "chars": len(clean),
            })
        report = {
            "header": _header("parse", {"format": "inline", "strict": args.strict},
                              [args.input]),
            "segments": segments,
            "count": len(segments),
            "total_annotations": sum(s["annotations"] for s in segments),
        }
    _emit(report, args.output_format)
    return EXIT_OK


def cmd_stats(args):
    with open(args.corpus, encoding="utf-8") as fh:
        segments = annotation.load_corpus(fh, strict=args.strict)
    if not segments:
        print("warning: empty corpus", file=sys.stderr)
    if args.windows:
        novels = {s.id: s for s in segments}
        segments = homogenization.sample_windows(
            novels, seed=args.seed, groups=args.groups,
            novels_per_group=args.per_group, chars=args.chars)
    seqs = [annotation.sequence_of(s) for s in segments]
    profile = homogenization.frequency_profile(seqs)
    header = _header("stats", {
        "windows": bool(args.windows), "seed": args.seed,
        "chars": args.chars, "mean": round(profile.mean, 2),
        "total": profile.total,
    }, [args.corpus])
    if args.output_format == "csv":
        print("symbol,count,class")
        for symbol in taxonomy.SYMBOLS:
            cls = "common" if symbol in profile.common_set else "rare"
            print(f"{symbol},{profile.counts[symbol]},{cls}")
        return EXIT_OK
    report = {
        "header": header,
        "counts": {s: profile.counts[s] for s in taxonomy.SYMBOLS},
        "common": sorted(profile.common_set),
        "rare": sorted(profile.rare_set),
    }
    _emit(report, args.output_format)
    return EXIT_OK


def _load_seq_file(path):
    with open(path, encoding="utf-8") as fh:
        return annotation.load_sequences(fh)


def _support_fields(frac):
    return {"support": f"{frac.numerator}/{frac.denominator}",
            "support_decimal": round(float(frac), 4)}


def cmd_match(args):
    seqs = _load_seq_file(args.sequences)
    if args.pattern:
        patterns = [paradigm.parse_pattern(args.pattern, plot_label="pattern")]
    else:
        patterns = paradigm.builtin_paradigms()
    if not seqs:
        raise EmptyCorpus("support over an empty corpus")
    # One verdict pass before any output; rows are built as they are written.
    shared = {}  # label combination -> the one list its sequences share
    verdicts = [shared.setdefault(tuple(labels), labels)
                for labels in (paradigm.classify(s, patterns) for s in seqs)]
    hits = Counter(chain.from_iterable(verdicts))
    supports = {p.plot_label: {"pattern": paradigm.emit_pattern(p),
                               **_support_fields(Fraction(hits[p.plot_label], len(seqs)))}
                for p in patterns}
    report = {
        "header": _header("match", {"pattern": args.pattern or "builtins"},
                          [args.sequences]),
        "support": supports,
        "matches": ({"sequence": "-".join(s), "labels": labels}
                    for s, labels in zip(seqs, verdicts)),
    }
    _emit(report, args.output_format)
    return EXIT_OK


def cmd_mine(args):
    seqs = _load_seq_file(args.sequences)
    mined = paradigm.mine(seqs, min_support=args.support, max_alt=args.max_alt)
    min_support = Fraction(args.support).limit_denominator(10**6)
    report = {
        "header": _header("mine", {"min_support": str(min_support),
                                   "max_alt": args.max_alt}, [args.sequences]),
        "pattern": paradigm.emit_pattern(mined),
        **_support_fields(paradigm.support(seqs, mined)),
    }
    _emit(report, args.output_format)
    return EXIT_OK


def _backend_config(args):
    resolved = _resolved(args, ["endpoint", "model"])
    return harness.BackendConfig(
        kind=args.backend,
        endpoint=resolved["endpoint"],
        model_name=resolved["model"],
        timeout=args.timeout,
        max_parallel=args.max_parallel,
        replay_path=args.replay_path,
    )


def _summary_table(report):
    """Columns mirroring the recognition-results table layout."""
    def cell(summary):
        return f"{summary.mean:.3f}(±{summary.std:.1f})"

    lines = ["metric        common           rare             sum"]
    for field in ("accuracy", "recall", "f1", "precision"):
        lines.append(
            f"{field:<12}  {cell(report.common[field]):<15}  "
            f"{cell(report.rare[field]):<15}  {cell(report.sum[field])}")
    return "\n".join(lines)


def cmd_eval(args):
    with open(args.corpus, encoding="utf-8") as fh:
        segments = annotation.load_corpus(fh)
    cfg = _backend_config(args)
    run = harness.RecognitionRun(
        segments=segments, rounds=args.rounds,
        preds_per_round=args.preds, seed=args.seed)
    result = harness.run_recognition(cfg, run)
    if args.fail_on_error and result.errors:
        for err in result.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_BACKEND
    report = {
        "header": _header("eval", {
            "backend": cfg.kind, "rounds": args.rounds,
            "preds_per_round": args.preds, "seed": args.seed,
            "model": cfg.model_name or "default",
        }, [args.corpus]),
        "metrics": {
            split: {f: {"mean": round(s.mean, 4), "std": round(s.std, 4)}
                    for f, s in getattr(result.report, split).items()}
            for split in ("common", "rare", "sum")
        },
        "requests": result.requests,
        "errors": len(result.errors),
    }
    if args.output_format == "text":
        _emit({"header": report["header"]}, "text")
        print(_summary_table(result.report))
        print(f"requests: {result.requests}  errors: {len(result.errors)}")
    else:
        _emit(report, args.output_format)
    return EXIT_OK


def cmd_homog(args):
    seqs = _load_seq_file(args.sequences)
    episode_set = homogenization.EpisodeSet(episodes=seqs)
    rep = homogenization.analyze_episodes(episode_set, method=args.method)
    report = {
        "header": _header("homog", {"method": args.method}, [args.sequences]),
        "mean_similarity": round(rep.mean_similarity, 4),
        "first_marker_consistency": round(rep.first_marker_consistency, 4),
        "last_marker_consistency": round(rep.last_marker_consistency, 4),
        "distinct_ratio": round(rep.distinct_ratio, 4),
        "entropy_bits": round(rep.entropy_bits, 4),
        "pairwise": [[round(v, 4) for v in row] for row in rep.pairwise],
    }
    _emit(report, args.output_format)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="narrfunc",
        description="Narrative-function analysis for web fiction corpora")
    parser.add_argument("--version", action="version",
                        version=f"narrfunc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p, choices=("text", "json")):
        p.add_argument("--output-format", choices=choices, default="text")

    p = sub.add_parser("registry", help="export the function registries")
    p.add_argument("--legacy", action="store_true",
                   help="export the original 31-function list instead")
    p.set_defaults(func=cmd_registry)

    p = sub.add_parser("parse", help="parse annotated text or sequence files")
    p.add_argument("input")
    p.add_argument("--format", choices=["inline", "seq", "jsonl"],
                   default="inline")
    p.add_argument("--strict", action="store_true")
    common_output(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("stats", help="corpus frequency profile")
    p.add_argument("corpus")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--windows", action="store_true",
                   help="sample character windows before counting")
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--per-group", type=int, default=4, dest="per_group")
    p.add_argument("--chars", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    common_output(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("match", help="match sequences against paradigms")
    p.add_argument("sequences")
    p.add_argument("--pattern", help="pattern string; default: all builtins")
    common_output(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("mine", help="induce a paradigm from sequences")
    p.add_argument("sequences")
    p.add_argument("--support", type=float, default=0.6)
    p.add_argument("--max-alt", type=int, default=2, dest="max_alt")
    common_output(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("eval", help="run the recognition experiment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backend", choices=["mock", "replay", "http"],
                   default="mock")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--preds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replay-path", dest="replay_path")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-parallel", type=int, default=1, dest="max_parallel")
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--fail-on-error", action="store_true")
    common_output(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("homog", help="homogeneity analysis of episodes")
    p.add_argument("sequences")
    p.add_argument("--method", choices=["edit", "lcs"], default="edit")
    common_output(p)
    p.set_defaults(func=cmd_homog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:  # as in "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except BackendUnreachable as exc:
        print(f"backend unreachable: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except MiningFailed as exc:
        print(f"mining failed: {exc}", file=sys.stderr)
        return EXIT_ANALYTIC
    except (NarrfuncError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
