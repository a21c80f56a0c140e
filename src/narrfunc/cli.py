"""Command-line interface.

Subcommands tie the library into reproducible workflows; every report
opens with a provenance header (tool version, effective settings, input
digests) so each number can be traced to its inputs.  Each input is read
once (:func:`annotation.load_file`); the header digests the bytes parsed.
Each ``cmd_*`` builds and returns its report, which :func:`main` writes
through :func:`_emit`; it writes nothing itself, save ``stats``' stderr
``warning: empty corpus``.  Each command imports the layers it runs.  All
input is checked before the first byte goes out; ``match`` streams its rows.
Exit codes: 0 success, 1 stdout closed early (``| head``), 2 input/config
error (any input file, replay fixture too, that cannot be read, decoded or
parsed), 3 analytic failure, 4 a failed request under ``--fail-on-error``.
"""

import argparse
import json
import os
import sys
from collections import Counter, namedtuple
from itertools import chain, islice
from json.encoder import encode_basestring

from . import __version__, annotation, taxonomy
from .errors import MiningFailed, NarrfuncError

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_ANALYTIC = 3
EXIT_BACKEND = 4


def _header(command, settings, inputs):
    return {
        "tool": f"narrfunc {__version__}",
        "command": command,
        "settings": settings,
        "inputs": inputs,
    }


_JSON = dict(sort_keys=True, ensure_ascii=False, indent=2)
_ROWS_PER_WRITE = 2048
# Rows {own_key: own, shared_key: item} of (str, item) pairs; rows share items.
_Rows = namedtuple("_Rows", "own_key shared_key pairs")


def _emit(report, fmt, out=None):
    """Write *report*: a list as its lines, a dict as _text_lines or as
    ``json.dumps(report, **_JSON)`` would with each top-level _Rows a list of
    its row dicts (_write_rows).  Either format's rows come from _row_texts."""
    out = out if out is not None else sys.stdout
    if fmt != "json":
        lines = report if isinstance(report, list) else _text_lines(report)
        return out.writelines(f"{line}\n" for line in lines)
    lead = "{\n  "
    for key in sorted(report):
        out.write(f"{lead}{encode_basestring(key)}: ")
        if isinstance(report[key], _Rows):
            _write_rows(report[key], out)
        else:  # one level deep; JSON strings hold no raw newline
            out.write(json.dumps(report[key], **_JSON).replace("\n", "\n  "))
        lead = ",\n  "
    out.write("\n}\n" if report else "{}\n")


def _row_texts(rows, around, escape):
    """Each row's text: ``escape(own)`` between the two parts ``around(item)``
    gives once per item, cached by id with the item held so no id comes back."""
    cache = {}
    for own, item in rows.pairs:
        if (hit := cache.get(id(item))) is None:
            hit = cache[id(item)] = (*around(item), item)
        yield hit[0] + escape(own) + hit[1]


def _write_rows(rows, out):
    """Write _Rows as a JSON list, its _row_texts in chunks."""
    def around(item):  # the row's text, cut where its own string goes
        text = ",".join(f"\n      {encode_basestring(k)}: " + ("\0" if k == rows.own_key
                        else json.dumps(item, **_JSON).replace("\n", "\n      "))
                        for k in sorted((rows.own_key, rows.shared_key)))
        return f"    {{{text}\n    }}".split("\0")  # JSON holds no raw NUL
    lead, texts = "[\n", _row_texts(rows, around, encode_basestring)
    while chunk := list(islice(texts, _ROWS_PER_WRITE)):
        out.write(lead + ",\n".join(chunk))
        lead = ",\n"
    out.write("[]" if lead == "[\n" else "\n  ]")


def _text_lines(obj, indent=""):
    """Lines ``key: value`` or ``- value``, a nested dict or list two spaces
    in under its ``key:``; a _Rows row is one string of its row dict's lines."""
    if isinstance(obj, _Rows):
        yield from _row_texts(obj, lambda item: (f"{indent}  {obj.own_key}: ", "".join(
            f"\n{s}" for s in _text_lines({obj.shared_key: item}, indent + "  "))), str)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list, _Rows)):
                yield f"{indent}{key}:"
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}{key}: {value}"
    else:  # a list
        for value in obj:
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}- {value}"


def _resolved(args, keys):
    """flags > env (NARR_<KEY>) > config file; and the config file's
    ``{path: digest}``."""
    file_cfg, inputs = (annotation.load_file(args.config, annotation.load_config,
                                             keys=keys) if args.config else ({}, {}))
    resolved = {}
    for key in keys:
        flag = getattr(args, key, None)
        env = os.environ.get(f"NARR_{key.upper()}")
        resolved[key] = flag if flag is not None else (
            env if env is not None else file_cfg.get(key))
    return resolved, inputs


def cmd_registry(args):
    defs = taxonomy.legacy_functions() if args.legacy else taxonomy.all_functions()
    lines = []
    for d in defs:
        record = {"symbol": d.symbol, "name": d.name, "description": d.description}
        if not args.legacy:
            record["status"] = d.status
            record["division_hints"] = sorted(d.division_hints)
        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
    return lines


def _inline_chunks(lines):
    """An inline file's segments: a blank line splits them."""
    return [c for c in "\n".join(lines).removesuffix("\n").split("\n\n") if c.strip()]


def cmd_parse(args):
    if args.format == "seq":
        seqs, inputs = annotation.load_file(args.input, annotation.load_sequences)
        return {
            "header": _header("parse", {"format": "seq"}, inputs),
            "sequences": ["-".join(s) for s in seqs],
            "count": len(seqs),
        }
    settings = {"format": args.format, "strict": args.strict}
    if args.format == "jsonl":
        segments, inputs = annotation.load_file(args.input, annotation.load_corpus,
                                                strict=args.strict)
        return {
            "header": _header("parse", settings, inputs),
            "segments": [
                {"id": s.id, "genre": s.genre,
                 "sequence": "-".join(annotation.sequence_of(s)),
                 "annotations": len(s.annotations)}
                for s in segments
            ],
            "count": len(segments),
        }
    chunks, inputs = annotation.load_file(args.input, _inline_chunks)
    segments = []
    for i, chunk in enumerate(chunks, start=1):
        clean, anns = annotation.parse_inline(chunk, strict=args.strict)
        segments.append({
            "id": f"{args.input}:{i}",
            "sequence": "-".join(a.symbol for a in anns),
            "annotations": len(anns),
            "chars": len(clean),
        })
    return {
        "header": _header("parse", settings, inputs),
        "segments": segments,
        "count": len(segments),
        "total_annotations": sum(s["annotations"] for s in segments),
    }


def cmd_stats(args):
    from . import homogenization
    segments, inputs = annotation.load_file(args.corpus, annotation.load_corpus,
                                            strict=args.strict)
    if not segments:
        print("warning: empty corpus", file=sys.stderr)
    if args.windows:
        novels = {s.id: s for s in segments}
        segments = homogenization.sample_windows(
            novels, seed=args.seed, groups=args.groups,
            novels_per_group=args.per_group, chars=args.chars)
    seqs = [annotation.sequence_of(s) for s in segments]
    profile = homogenization.frequency_profile(seqs)
    if args.output_format == "csv":
        return ["symbol,count,class", *(
            f"{symbol},{profile.counts[symbol]},"
            f"{'common' if symbol in profile.common_set else 'rare'}"
            for symbol in taxonomy.SYMBOLS)]
    return {
        "header": _header("stats", {
            "windows": bool(args.windows), "groups": args.groups,
            "per_group": args.per_group, "seed": args.seed, "chars": args.chars,
            "mean": round(profile.mean, 2), "total": profile.total,
        }, inputs),
        "counts": {s: profile.counts[s] for s in taxonomy.SYMBOLS},
        "common": sorted(profile.common_set),
        "rare": sorted(profile.rare_set),
    }


def _load_seq_file(path):  # the one .seq reader: (sequences, {path: digest})
    return annotation.load_file(path, annotation.load_sequences)


def _support_fields(frac):
    return {"support": f"{frac.numerator}/{frac.denominator}",
            "support_decimal": round(float(frac), 4)}


def cmd_match(args):
    from fractions import Fraction

    from . import paradigm
    seqs, inputs = _load_seq_file(args.sequences)
    if args.pattern:
        patterns = [paradigm.parse_pattern(args.pattern, plot_label="pattern")]
    else:
        patterns = paradigm.builtin_paradigms()
    if not seqs:
        raise ValueError("support over an empty corpus")
    # One verdict pass before any output; each row shares its label list.
    verdicts = paradigm.classify(seqs, patterns)
    hits = Counter(chain.from_iterable(verdicts))
    supports = {p.plot_label: {"pattern": paradigm.emit_pattern(p),
                               **_support_fields(Fraction(hits[p.plot_label], len(seqs)))}
                for p in patterns}
    return {
        "header": _header("match", {"pattern": args.pattern or "builtins"}, inputs),
        "support": supports,
        "matches": _Rows("sequence", "labels", zip(map("-".join, seqs), verdicts)),
    }


def cmd_mine(args):
    from . import paradigm
    seqs, inputs = _load_seq_file(args.sequences)
    mined = paradigm.mine(seqs, min_support=args.support, max_alt=args.max_alt)
    return {
        "header": _header("mine", {"min_support": str(mined.min_support),
                                   "max_alt": args.max_alt}, inputs),
        "pattern": paradigm.emit_pattern(mined.pattern),
        **_support_fields(mined.support),
    }


class _FailedRequests(Exception):
    """``eval --fail-on-error`` with a nonempty error ledger (its args)."""


def cmd_eval(args):
    from . import harness
    segments, inputs = annotation.load_file(args.corpus, annotation.load_corpus)
    resolved, config_inputs = _resolved(args, ["endpoint", "model"])
    cfg = harness.BackendConfig(
        kind=args.backend, endpoint=resolved["endpoint"],
        model_name=resolved["model"], timeout=args.timeout,
        max_parallel=args.max_parallel, replay_path=args.replay_path)
    result = harness.run_recognition(cfg, segments, rounds=args.rounds,
                                     preds_per_round=args.preds, seed=args.seed)
    if args.fail_on_error and result.errors:
        raise _FailedRequests(*result.errors)
    header = _header("eval", {
        "backend": cfg.kind, "rounds": args.rounds,
        "preds_per_round": args.preds, "seed": args.seed,
        "model": cfg.model_name or "default",
    }, {**inputs, **config_inputs, **result.inputs})
    if args.output_format == "json":
        return {
            "header": header,
            "metrics": {
                split: {f: {"mean": round(s.mean, 4), "std": round(s.std, 4)}
                        for f, s in getattr(result.report, split).items()}
                for split in ("common", "rare", "sum")
            },
            "requests": result.requests,
            "errors": len(result.errors),
        }

    def cell(summary):
        return f"{summary.mean:.3f}(±{summary.std:.1f})"

    table = result.report  # columns mirroring the recognition-results table
    return [*_text_lines({"header": header}),
            "metric        common           rare             sum",
            *(f"{f:<12}  {cell(table.common[f]):<15}  {cell(table.rare[f]):<15}  "
              f"{cell(table.sum[f])}" for f in ("accuracy", "recall", "f1", "precision")),
            f"requests: {result.requests}  errors: {len(result.errors)}"]


def cmd_homog(args):
    from . import homogenization
    seqs, inputs = _load_seq_file(args.sequences)
    episode_set = homogenization.EpisodeSet(episodes=seqs)
    rep = homogenization.analyze_episodes(episode_set, method=args.method)
    return {
        "header": _header("homog", {"method": args.method}, inputs),
        "mean_similarity": round(rep.mean_similarity, 4),
        "first_marker_consistency": round(rep.first_marker_consistency, 4),
        "last_marker_consistency": round(rep.last_marker_consistency, 4),
        "distinct_ratio": round(rep.distinct_ratio, 4),
        "entropy_bits": round(rep.entropy_bits, 4),
        "pairwise": [[round(v, 4) for v in row] for row in rep.pairwise],
    }


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
    p.set_defaults(func=cmd_registry, output_format="jsonl")

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
    p.add_argument("--pattern", help="pattern string; default: all builtins. "
                   "Write a value that starts with '-' as --pattern=VALUE")
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
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.output_format)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return EXIT_OK
    except BrokenPipeError:  # as in "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _FailedRequests as exc:
        for err in exc.args:  # where the request failed, then why
            print("error: round {round}, prediction {prediction}, segment {segment}: "
                  "{error}: {detail}".format_map(err), file=sys.stderr)
        return EXIT_BACKEND
    except MiningFailed as exc:
        print(f"mining failed: {exc}", file=sys.stderr)
        return EXIT_ANALYTIC
    except (NarrfuncError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
