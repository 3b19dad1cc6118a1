#!/usr/bin/env python3
"""latcert benchmark runner.

    python3 perfbench/run.py --workload {cli,census,bitsize,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a latcert checkout; latcert is imported from src/.
Each workload is a closed loop: one client, one operation at a time.
`cli` spawns one `python -m latcert.cli` process per op and waits for it;
the other workloads call latcert.run_certificate in this process. Every
output goes through the independent checker in checker.py.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run measures half of its time untraced and half with the
span recorder installed, and the last line carries the per-layer metrics
and the tracing overhead (traced minus untraced). `--workload all` runs
every workload in its own process and prints a summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

import checker
import spans
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
WORK = ROOT / ".perfbench-run"
LAUNCH = pathlib.Path(__file__).resolve().parent / "launch.py"
WORKLOADS = ("cli", "census", "bitsize")
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
TAIL_BEYOND = 10  # samples beyond the tail percentile

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("decided_share", "share", "higher"),
    ("answered_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# A failed op raised, exited with an unexpected code or gave output the
# checker rejected. Whether an op fails depends only on its input, so the
# count is the same in every run of the same code. A deadline hit is not
# a failed op: whether an op near the deadline hits it depends on the
# machine's speed at that moment. It counts as unanswered instead, at its
# elapsed time in op_ms, and answered_share carries it.
FAILED = ("error", "wrong")
UNANSWERED = ("deadline",) + FAILED
# What the checker raises on output it cannot parse; counted as wrong.
UNREADABLE = (ValueError, KeyError, IndexError, TypeError, AttributeError)


class Deadline(BaseException):
    """Raised by SIGALRM when an in-process op runs past its deadline.
    A BaseException, so no `except Exception` inside latcert swallows it."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_latcert():
    """A fresh import of latcert.cli and everything it pulls in."""
    for name in [n for n in sys.modules if n == "latcert" or n.startswith("latcert.")]:
        del sys.modules[name]
    importlib.import_module("latcert.cli")
    return sys.modules["latcert"]


def setup(workload: str, seed: int):
    """One timed set-up: generate the schedule (reading the documents the
    CLI commands name) and import latcert afresh."""
    gc.collect()
    start = time.perf_counter()
    sched = workloads.schedule(workload, seed, DATA)
    docs = {
        c["argv"][1]: json.loads(pathlib.Path(c["argv"][1]).read_text())
        for c in sched
        if workload == "cli" and c["argv"][0] != "pell"
    }
    lat = import_latcert()
    return sched, docs, lat, time.perf_counter() - start


def report_dict(report) -> dict:
    return {
        "verdict": report.verdict,
        "steps": [
            {"id": s.id, "status": s.status, "witness": s.witness, "details": s.details}
            for s in report.steps
        ],
    }


class InProcess:
    """Runs certificate ops in this process under a SIGALRM deadline."""

    def __init__(self, lat, deadline: float):
        self.lat = lat
        self.deadline = deadline
        self.recorder = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.recorder is not None:
            self.recorder.charge_deadline()
        raise Deadline

    def trace(self) -> None:
        self.recorder = spans.Recorder()
        self.recorder.install()

    def span_sets(self):
        """Span sets for spans.aggregate, and deadline hits outside them."""
        return [(self.recorder.spans, self.recorder.orphan_hits, "certificate")], {}

    def _build_and_run(self, doc):
        lat = self.lat
        kwargs = {}
        if doc.get("isometry"):
            kwargs["isometry"] = tuple(tuple(row) for row in doc["isometry"])
        if "degree_bound" in doc:
            kwargs["degree_bound"] = doc["degree_bound"]
        inp = lat.CertificateInput(
            gram=lat.GramLattice.from_rows(doc["gram"]),
            polarization=tuple(doc["polarization"]),
            **kwargs,
        )
        return lat.run_certificate(inp)

    def __call__(self, doc) -> tuple[int, str, str]:
        if self.recorder is not None:
            self.recorder.op += 1
        start = time.perf_counter_ns()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline)
            try:
                report = self._build_and_run(doc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            return time.perf_counter_ns() - start, "deadline", ""
        except Exception as exc:  # a crash fails the op, not the run
            return time.perf_counter_ns() - start, "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        try:
            problems = checker.check_report(doc, report_dict(report))
        except UNREADABLE as exc:
            problems = [f"unreadable report: {exc!r}"]
        if problems:
            return elapsed, "wrong", f"{doc['gram']}: {'; '.join(problems)}"
        return elapsed, report.verdict, ""


class Cli:
    """Runs one latcert process per op and waits for it."""

    def __init__(self, docs: dict, deadline: float):
        self.docs = docs
        self.deadline = deadline
        self.facts = checker.datum_facts(docs[str(DATA / workloads.DATUM)])
        self.env = child_env()
        self.spans_path = None
        self.child_spans = []
        self.timeouts = 0

    def trace(self) -> None:
        """Run later ops through launch.py, which records spans."""
        self.spans_path = WORK / f"cli-spans-{os.getpid()}.json"

    def span_sets(self):
        return self.child_spans, {"cli": self.timeouts}

    def __call__(self, cmd) -> tuple[int, str, str]:
        argv = cmd["argv"]
        if self.spans_path:
            prefix = [sys.executable, str(LAUNCH), str(self.spans_path)]
        else:
            prefix = [sys.executable, "-m", "latcert.cli"]
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                prefix + argv, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=self.deadline,
            )
        except subprocess.TimeoutExpired:
            if self.spans_path:
                self.timeouts += 1  # the killed child wrote no spans
            return time.perf_counter_ns() - start, "deadline", ""
        elapsed = time.perf_counter_ns() - start
        if self.spans_path:
            data = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
            self.child_spans.append((data["spans"], data["orphan_hits"], "cli"))
        doc = self.docs.get(argv[1], {})
        try:
            problems = checker.check_cli(argv, proc.returncode, cmd["exit"], proc.stdout, doc, self.facts)
        except UNREADABLE as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            return elapsed, "wrong", f"{' '.join(argv)}: {'; '.join(problems)}"
        return elapsed, {0: "pass", 1: "fail", 2: "unknown"}[proc.returncode], ""


def measure(sched: list, seconds: float, run_op, records=None) -> list:
    """Closed loop over the schedule (cycling) for `seconds` of wall time,
    appending (elapsed_ns, outcome, problem) records; continues the
    schedule where `records` left it."""
    records = [] if records is None else records
    end = time.perf_counter() + seconds
    first = len(records)
    while len(records) == first or time.perf_counter() < end:
        records.append(run_op(sched[len(records) % len(sched)]))
    return records


def summarize(records) -> dict:
    times = sorted(r[0] / 1e6 for r in records)
    n = len(times)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    outcomes = [r[1] for r in records]
    return {
        "op_ms.p50": statistics.median(times),
        "op_ms.tail": times[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "ops_per_s": n / (sum(times) / 1e3),
        "decided_share": sum(o in ("pass", "fail") for o in outcomes) / n,
        "answered_share": sum(o not in UNANSWERED for o in outcomes) / n,
        "attempted": n,
        "failed": sum(o in FAILED for o in outcomes),
        "deadline_hits": outcomes.count("deadline"),
        "counts": {o: outcomes.count(o) for o in sorted(set(outcomes))},
        "problems": [r[2] for r in records if r[1] in ("wrong", "error")],
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def probe_startup() -> dict:
    """Interpreter start and `import latcert.cli`, each timed in fresh
    processes; the import figure is the difference of the medians."""
    env = child_env()

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - start

    interp = statistics.median(wall("pass") for _ in range(STARTUP_REPEATS))
    full = statistics.median(wall("import latcert.cli") for _ in range(STARTUP_REPEATS))
    return {"startup.interp_ms": interp * 1e3, "startup.import_ms": (full - interp) * 1e3}


def print_summary(title: str, s: dict) -> None:
    print(f"# {title}: {s['attempted']} ops, outcomes {s['counts']}, failed "
          f"{s['failed']}, deadline hits {s['deadline_hits']}, failed_share "
          f"{1 - s['answered_share']:.4f} (both)")
    print(f"#   op_ms.tail is p{s['tail_percentile']:.2f} of {s['attempted']} samples")
    for problem in s["problems"][:5]:
        print(f"#   failed op: {problem}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, names) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _ in names},
    })


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> str:
    WORK.mkdir(exist_ok=True)
    sched, docs, lat, setup_s = setup(workload, seed)
    deadline = workloads.DEADLINE_S[workload]
    run_op = Cli(docs, deadline) if workload == "cli" else InProcess(lat, deadline)
    print(f"# workload {workload}, seed {seed}, deadline {deadline} s per op, "
          f"schedule of {len(sched)} ops")
    if not trace:
        # Set-up is repeated between slices of the run, so its median
        # samples the machine over the whole run, not one moment.
        setup_times, records = [setup_s], []
        for i in range(SETUP_REPEATS):
            if i:
                setup_times.append(setup(workload, seed)[3])
            measure(sched, seconds / SETUP_REPEATS, run_op, records=records)
        s = summarize(records)
        metrics = dict(s, setup_s=statistics.median(setup_times),
                       peak_rss_mb=peak_rss_mb(workload))
        print_summary("untraced", s)
        for name, unit, better in END_TO_END:
            print(f"{name:16s} {metrics[name]:14.6f} {unit:6s} ({better} is better)")
        return result_line(not any(r[1] == "wrong" for r in records), s["attempted"],
                           s["failed"], metrics, END_TO_END)

    plain = measure(sched, seconds / 2, run_op)
    run_op.trace()
    traced = measure(sched, seconds / 2, run_op)
    span_sets, extra_hits = run_op.span_sets()
    # One [spans, orphan_hits, module] set per process that ran ops.
    (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(span_sets))
    a, b = summarize(plain), summarize(traced)
    metrics = spans.aggregate(span_sets, b["attempted"], extra_hits)
    metrics.update(probe_startup())
    metrics["trace.overhead.op_ms.p50"] = b["op_ms.p50"] - a["op_ms.p50"]
    metrics["trace.overhead.ops_per_s"] = a["ops_per_s"] - b["ops_per_s"]
    print_summary("untraced half", a)
    print_summary("traced half", b)
    for key in ("op_ms.p50", "op_ms.tail", "ops_per_s", "decided_share", "answered_share"):
        print(f"# {key:16s} untraced {a[key]:12.4f} traced {b[key]:12.4f}")
    names = spans.per_layer_names()
    hottest = sorted((n for n in names if n[1] == "ms/op"), key=lambda n: -metrics[n[0]])
    for name, unit, _ in hottest + [n for n in names if n[1] != "ms/op"]:
        print(f"{name:48s} {metrics[name]:14.6f} {unit}")
    correct = not any(r[1] == "wrong" for r in plain + traced)
    return result_line(correct, a["attempted"] + b["attempted"],
                       a["failed"] + b["failed"], metrics, names)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print("# summary")
    for workload, r in results.items():
        row = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()) if not trace else ""
        print(f"# {workload:14s} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {row}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latcert" / "__init__.py").is_file() or not DATA.is_dir():
        print(f"error: no latcert checkout at {ROOT} (need src/latcert and data/)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    print(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
