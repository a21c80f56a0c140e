"""Output checks for the CLI reports the benchmark collects.

Each check returns a list of problems (empty when the output is right).
The invariants hold for any seed.  :func:`analytic_content` picks the
parts of a report that the default-seed fingerprint covers: metric
values, supports and verdict labels, the mined pattern and the
similarity values, but never the header or the report layout around
them.
"""

import hashlib
import json
from fractions import Fraction

BUILTIN_LABELS = ("battle", "emotional", "difficult_task", "adventure",
                  "pretending", "daily_life")
MINE_MIN_SUPPORT = Fraction(3, 5)  # the CLI's default --support 0.6


def _in_unit(value):
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_eval(report, expected_requests, gold_echo):
    problems = []
    if report["requests"] != expected_requests:
        problems.append(f"requests {report['requests']} != {expected_requests}")
    for split, fields in report["metrics"].items():
        for field, summary in fields.items():
            if not (_in_unit(summary["mean"]) and summary["std"] >= 0):
                problems.append(f"{split}.{field} out of range: {summary}")
            elif gold_echo and summary["mean"] != 1.0:
                problems.append(f"gold echo scored {split}.{field}={summary['mean']}")
    return problems


def check_match(report, seqs):
    problems = []
    verdicts = report["matches"]
    if len(verdicts) != len(seqs):
        return [f"{len(verdicts)} verdicts for {len(seqs)} sequences"]
    hits = dict.fromkeys(BUILTIN_LABELS, 0)
    for verdict, seq in zip(verdicts, seqs):
        if verdict["sequence"] != "-".join(seq):
            problems.append(f"verdict out of order at {verdict['sequence']}")
            break
        for label in verdict["labels"]:
            if label not in hits:
                problems.append(f"unknown label {label!r}")
                break
            hits[label] += 1
    for label, count in hits.items():
        support = Fraction(report["support"][label]["support"])
        if support != Fraction(count, len(seqs)):
            problems.append(f"{label} support {support} != {count}/{len(seqs)}")
    return problems


def check_mine(report):
    if Fraction(report["support"]) < MINE_MIN_SUPPORT:
        return [f"mined support {report['support']} below {MINE_MIN_SUPPORT}"]
    return []


def check_homog(report, n_episodes):
    matrix = report["pairwise"]
    if len(matrix) != n_episodes or any(len(row) != n_episodes for row in matrix):
        return [f"pairwise matrix is not {n_episodes}x{n_episodes}"]
    problems = []
    upper = []
    for i in range(n_episodes):
        if matrix[i][i] != 1.0:
            problems.append(f"diagonal [{i}][{i}] = {matrix[i][i]}")
        for j in range(i + 1, n_episodes):
            if matrix[i][j] != matrix[j][i]:
                problems.append(f"asymmetric at [{i}][{j}]")
            if not _in_unit(matrix[i][j]):
                problems.append(f"[{i}][{j}] = {matrix[i][j]} outside [0, 1]")
            upper.append(matrix[i][j])
    # The matrix is rounded to 4 places, the mean is taken before rounding.
    if abs(sum(upper) / len(upper) - report["mean_similarity"]) > 1e-3:
        problems.append("mean_similarity disagrees with the pairwise values")
    return problems


def analytic_content(command, report):
    if command == "eval":
        return report["metrics"]
    if command == "match":
        return {"support": report["support"],
                "labels": [v["labels"] for v in report["matches"]]}
    if command == "mine":
        return {"pattern": report["pattern"], "support": report["support"]}
    if command == "homog":
        return {key: report[key] for key in (
            "pairwise", "mean_similarity", "first_marker_consistency",
            "last_marker_consistency", "distinct_ratio", "entropy_bits")}
    raise ValueError(f"no analytic content for {command!r}")


def fingerprint(contents):
    canonical = json.dumps(contents, sort_keys=True, ensure_ascii=False,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
