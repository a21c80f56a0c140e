"""Layered benchmark for narrfunc, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It generates the workload's inputs from ``--seed``, runs the real CLI
(``python -m narrfunc.cli`` with ``src`` on PYTHONPATH) as subprocesses
for about ``--seconds`` seconds, checks every report, and prints one JSON
object as the last line of standard output.

* ``--trace 0`` reports the end-to-end metrics of untraced runs:
  ``wall_s`` (median pass wall time), ``setup_s`` (median wall time of
  the same commands on one-item inputs) and ``peak_rss_mb`` (median over
  passes of the largest peak RSS of a pass's processes, from
  ``os.wait4``).  The benchmark pins itself and the runs to one CPU and
  scales both timings to a reference machine speed, measured on that
  CPU during each run by ``perfbench/speed.py``; the unscaled median
  pass wall time goes to standard error.
* ``--trace 1`` alternates untraced passes with passes run under
  ``perfbench/traced.py`` and reports the per-layer metrics.

``attempted`` counts operations (eval requests, match verdicts, mine
runs, homog pairs, over every CLI run made); ``failed`` counts those lost
to a non-zero exit or an unreadable report, each eval error entry and
each failed output check.  At the default seed every pass also compares
a fingerprint of the analytic results with ``perfbench/fingerprints.json``;
``--update-fingerprints`` rewrites that entry instead.
"""

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import echo_server
import inputs
import speed
import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_PY = BENCH / "traced.py"
FINGERPRINTS = BENCH / "fingerprints.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_PER_PASS = 3
COMMAND_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "annotation.parse_inline_s", "annotation.parse_inline_calls",
    "annotation.markers", "annotation.chars", "annotation.emit_inline_s",
    "annotation.load_corpus_s", "annotation.load_sequences_s",
    "annotation.sequences",
    "harness.complete_s", "harness.complete_calls",
    "harness.request_failures", "harness.build_payload_s", "harness.run_recognition_s",
    "harness.parse_model_output_s", "harness.requests",
    "metrics.score_instances_s", "metrics.instances_scored",
    "metrics.gold_instances_s", "metrics.aggregate_s",
    "paradigm.support_s", "paradigm.classify_s", "paradigm.mine_s",
    "paradigm.patterns",
    "homogenization.analyze_edit_s", "homogenization.analyze_lcs_s",
    "homogenization.pairs", "homogenization.dp_cells",
    "cli.self_s", "cli.report_bytes", "cli.import_s",
    "trace.overhead_s", "trace.spans",
)
# The echo server's own handling time; reported by recognition-http only.
SERVER_METRIC = "harness.http_server_s"


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


@dataclass
class Command:
    kind: str  # the CLI subcommand
    args: list  # CLI arguments
    units: int  # operations the run performs
    check: object  # report -> list of problems


@dataclass
class Plan:
    commands: list  # one pass of the workload
    setup: list  # the same commands on one-item inputs


@dataclass
class PassResult:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    crashed: int = 0  # commands that left no readable report
    problems: list = field(default_factory=list)
    contents: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _eval(args, requests, gold_echo):
    return Command("eval", ["eval", *args, "--output-format", "json"], requests,
                   lambda report: checks.check_eval(report, requests, gold_echo))


def _match_and_mine(path, seqs):
    return [
        Command("match", ["match", path, "--output-format", "json"], len(seqs),
                lambda report: checks.check_match(report, seqs)),
        Command("mine", ["mine", path, "--output-format", "json"], 1,
                checks.check_mine),
    ]


def _homog(path, n):
    pairs = n * (n - 1) // 2
    return [Command("homog", ["homog", path, "--method", method,
                              "--output-format", "json"], pairs,
                    lambda report: checks.check_homog(report, n))
            for method in ("edit", "lcs")]


def recognition_dense(rng, work, server):
    segs = inputs.segments(rng, inputs.DENSE_SEGMENTS, inputs.DENSE_MARKERS,
                           "dense", asides=True)
    one = [inputs.one_segment(rng)]
    corpus = _write(work / "dense.jsonl", inputs.corpus_jsonl(rng, segs, True))
    small = _write(work / "one.jsonl", inputs.corpus_jsonl(rng, one, True))
    return Plan(
        [_eval(["--corpus", corpus, "--backend", "mock"], len(segs) * 10 * 5, True)],
        [_eval(["--corpus", small, "--backend", "mock", "--rounds", "1",
                "--preds", "1"], 1, True)])


def recognition_http(rng, work, server):
    segs = inputs.segments(rng, inputs.HTTP_SEGMENTS, inputs.HTTP_MARKERS, "http")
    one = [inputs.one_segment(rng)]
    server.replies.update((s.clean_text, echo_server.reply_text(s, inputs.SYMBOLS))
                          for s in segs + one)
    corpus = _write(work / "http.jsonl", inputs.corpus_jsonl(rng, segs, True))
    small = _write(work / "one.jsonl", inputs.corpus_jsonl(rng, one, True))
    http = ["--backend", "http", "--endpoint", server.url, "--model", "bench",
            "--max-parallel", "2"]
    rounds, preds = inputs.HTTP_ROUNDS, inputs.HTTP_PREDS
    return Plan(
        [_eval(["--corpus", corpus, *http, "--rounds", str(rounds),
                "--preds", str(preds)], len(segs) * rounds * preds, False)],
        [_eval(["--corpus", small, *http, "--rounds", "1", "--preds", "1"], 1,
               False)])


def paradigm_corpus(rng, work, server):
    seqs = inputs.plot_sequences(rng)
    one = [["A", "F", "Q", "S"]]
    return Plan(_match_and_mine(_write(work / "plots.seq", inputs.seq_file(seqs)), seqs),
                _match_and_mine(_write(work / "one.seq", inputs.seq_file(one)), one))


def homog_episodes(rng, work, server):
    eps = inputs.episodes(rng)
    two = inputs.episodes(rng, lengths=(4, 5))
    return Plan(_homog(_write(work / "episodes.seq", inputs.seq_file(eps)), len(eps)),
                _homog(_write(work / "two.seq", inputs.seq_file(two)), len(two)))


# recognition-http is run by hand and left out of BENCHMARK.json: on a
# shared 2-vCPU VM its many cross-process wake-ups make it swing far more
# with host load than the CPU-bound workloads (wall time doubled while
# theirs rose by about a quarter), beyond any bound the benchmark may set.
WORKLOADS = {
    "recognition-dense": recognition_dense,
    "recognition-http": recognition_http,
    "paradigm-corpus": paradigm_corpus,
    "homog-episodes": homog_episodes,
}


class Runner:
    """Launches CLI processes for one workload and checks their reports."""

    def __init__(self, work, server):
        self.work = work
        self.server = server
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("NARR_") and "proxy" not in k.lower()}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["NO_PROXY"] = self.env["no_proxy"] = "127.0.0.1,localhost"

    def _launch(self, argv, out_path, err_path):
        """Run one process; returns (exit code, wall seconds, peak RSS MB)."""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def run(self, commands, trace=False):
        result = PassResult()
        layers = result.layers
        server_before = self.server.snapshot() if self.server else (0, 0.0)
        for i, cmd in enumerate(commands):
            out, err = self.work / f"out{i}.json", self.work / f"err{i}.txt"
            spans = self.work / f"spans{i}.json"
            if trace:
                argv = [sys.executable, str(TRACED_PY), str(spans), *cmd.args]
            else:
                argv = [sys.executable, "-m", "narrfunc.cli", *cmd.args]
            requests_before = self.server.snapshot()[0] if self.server else 0
            code, wall, rss = self._launch(argv, out, err)
            result.wall_s += wall
            result.rss_mb = max(result.rss_mb, rss)
            result.attempted += cmd.units
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                report = json.loads(out.read_text(encoding="utf-8"))
            except ValueError as exc:
                stderr = err.read_text(encoding="utf-8", errors="replace")
                result.failed += cmd.units
                result.crashed += 1
                result.problems.append(f"{cmd.kind}: {exc}: {stderr[-500:]}")
                continue
            problems = cmd.check(report)
            if self.server and cmd.kind == "eval":
                served = self.server.snapshot()[0] - requests_before
                if served != cmd.units:
                    problems.append(f"server saw {served} of {cmd.units} requests")
            errors = report.get("errors", 0)
            if errors:
                problems.append(f"{errors} request errors")
            result.failed += min(cmd.units, errors + len(problems))
            result.problems += [f"{cmd.kind}: {p}" for p in problems]
            result.contents.append(checks.analytic_content(cmd.kind, report))
            if trace:
                doc = json.loads(spans.read_text(encoding="utf-8"))
                totals = traced.layer_totals(doc)
                totals["cli.self_s"] = totals.pop("cli.main_s")
                totals["cli.import_s"] = doc["import_s"]
                totals["trace.spans"] = len(doc["spans"]) // traced.Tracer.FIELDS
                totals["cli.report_bytes"] = out.stat().st_size
                for key, value in totals.items():
                    layers[key] = layers.get(key, 0) + value
        if trace and self.server:
            layers[SERVER_METRIC] = self.server.snapshot()[1] - server_before[1]
        return result


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(runner, plan, seconds, trace, expected_fp, calibrator):
    """Run groups of runs for about ``seconds``; returns (metrics, sample
    counts, attempted, failed, problems, unscaled median pass wall time)."""
    passes = []  # every PassResult, for the operation tallies
    setups, untraced, traced_runs = [], [], []
    scaled_setup, scaled_wall = [], []

    def run(commands, into, trace_pass=False):
        result = runner.run(commands, trace=trace_pass)
        if expected_fp and commands is plan.commands:
            actual = checks.fingerprint(result.contents)
            if actual != expected_fp:
                result.failed += 1
                result.problems.append(f"fingerprint {actual} != {expected_fp}")
        passes.append(result)
        into.append(result)
        return result

    def at_reference_speed(results, before, after):
        """Wall times scaled to the reference speed by the calibration
        chunks run between two readings (none if no chunk ran)."""
        chunk = speed.chunk_seconds(before, after)
        return [r.wall_s * speed.REFERENCE_CHUNK_S / chunk for r in results] if chunk else []

    # A group is SETUP_PER_PASS set-up runs and one pass (traced: one
    # untraced and one traced pass).  Set-up runs are interleaved with the
    # passes, so that a burst of load from elsewhere on the machine lands
    # on both alike.  No group starts that would end after the deadline.
    deadline = time.perf_counter() + seconds
    group_s = 0.0
    while (len(untraced) < (1 if trace else MIN_PASSES)
           or time.perf_counter() + group_s < deadline):
        started = time.perf_counter()
        if trace:
            run(plan.commands, untraced)
            run(plan.commands, traced_runs, trace_pass=True)
        else:
            start = calibrator.reading()
            group = [run(plan.setup, setups) for _ in range(SETUP_PER_PASS)]
            middle = calibrator.reading()
            result = run(plan.commands, untraced)
            scaled_setup += at_reference_speed(group, start, middle)
            scaled_wall += at_reference_speed([result], middle, calibrator.reading())
        group_s = time.perf_counter() - started

    raw_wall = statistics.median([r.wall_s for r in untraced])
    if trace:
        names = PER_LAYER + ((SERVER_METRIC,) if runner.server else ())
        units = {name: _unit(name) for name in names}
        values = {name: statistics.median([r.layers.get(name, 0) for r in traced_runs])
                  for name in names}
        values["trace.overhead_s"] = (statistics.median([r.wall_s for r in traced_runs])
                                      - raw_wall)
    else:
        units = END_TO_END
        values = {"wall_s": statistics.median(scaled_wall),
                  "setup_s": statistics.median(scaled_setup),
                  "peak_rss_mb": statistics.median([r.rss_mb for r in untraced])}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    samples = {"setup": len(setups), "untraced": len(untraced), "traced": len(traced_runs)}
    return (metrics, samples, sum(r.attempted for r in passes),
            sum(r.failed for r in passes), [p for r in passes for p in r.problems],
            raw_wall)


def _run(args, work, server, calibrator):
    """Warm up, measure and (if asked) record the fingerprint; None if the
    program cannot run the workload at all."""
    plan = WORKLOADS[args.workload](random.Random(args.seed), work, server)
    runner = Runner(work, server)
    # Warm-up: byte-compiles the program and proves it runs at all.
    warm = runner.run(plan.setup)
    if warm.crashed:
        print("perfbench: the program cannot run the workload:\n  "
              + "\n  ".join(warm.problems), file=sys.stderr)
        return None
    fingerprints = (json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
                    if FINGERPRINTS.is_file() else {})
    expected_fp = None
    if args.seed == DEFAULT_SEED and not args.update_fingerprints:
        expected_fp = fingerprints.get(args.workload)
        if expected_fp is None:
            print(f"perfbench: no fingerprint for {args.workload}", file=sys.stderr)
            return None
    metrics, samples, attempted, failed, problems, raw_wall = measure(
        runner, plan, args.seconds, args.trace == 1, expected_fp, calibrator)
    outcome = (metrics, samples, attempted + warm.attempted, failed + warm.failed,
               warm.problems + problems, raw_wall)
    if args.update_fingerprints:
        fingerprints[args.workload] = checks.fingerprint(runner.run(plan.commands).contents)
        FINGERPRINTS.write_text(json.dumps(fingerprints, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return outcome


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-fingerprints", action="store_true",
                        help="record this run's default-seed fingerprint")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "narrfunc" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'narrfunc'}",
              file=sys.stderr)
        return 2
    if args.update_fingerprints and args.seed != DEFAULT_SEED:
        parser.error(f"fingerprints are recorded at --seed {DEFAULT_SEED}")

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    serve = args.workload == "recognition-http"
    if args.trace == 0:
        # One CPU for the benchmark, its CLI runs and the calibration
        # process, so that the calibration meets the same slow spells.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(echo_server.EchoServer()) if serve else None
            calibrator = (stack.enter_context(speed.Calibrator(work / "speed.bin"))
                          if args.trace == 0 else None)
            outcome = _run(args, work, server, calibrator)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if outcome is None:
        return 1
    metrics, samples, attempted, failed, problems, raw_wall = outcome

    for problem in problems[:20]:
        print(f"perfbench: FAILED CHECK {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={samples} error_rate={failed}/{attempted} operations",
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"  {'(unscaled median pass wall)':32s} {raw_wall:.6g} s", file=sys.stderr)
    print(json.dumps({"env": {"python": platform.python_version(),
                              "nproc": os.cpu_count(), "commit": _git_commit(),
                              "workload": args.workload, "seed": args.seed}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
