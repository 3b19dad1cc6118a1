#!/usr/bin/env python3
"""A/B of two latcert checkouts on the committed benchmark.

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload bitsize \
        --pairs 5 --first-seed 9401 --seconds 40 --out BENCH_9.json

For each seed, runs `python3 perfbench/run.py` once in each checkout,
one run at a time, flipping which side runs first from pair to pair.
Every run's last stdout line (the result object) is kept. The output
file holds the runs and, per workload and end-to-end metric of
CHANGE_DIR's BENCHMARK.json, each side's quartiles
(statistics.quantiles, n=4), the number of pairs the change won, ties
counting for neither side, and the median of the per-pair ratios
change / parent (`pair_ratio_median`; pairs whose parent value is 0 are
left out). The two sides of a pair run back to back, so a slowdown of
the host in the middle of a workload moves both and leaves their ratio,
while it can move one side's median more than the other's. Standard
library only.

The output file's `verdicts` block judges each --claim WORKLOAD:METRIC
(repeatable; `claims` is empty without one). A claim is met only when
the change wins at least nine tenths of the pairs and its median beats
the parent's by more than the parent's interquartile range. `regressed`
lists every end-to-end metric whose change median is worse than the
parent's by more than the metric's relative bound in BENCHMARK.json,
with or without a claim. `unresolved` lists every end-to-end metric
whose parent runs spread too widely to judge it against that bound (an
interquartile range wider than bound x |parent median|), unless every
change run beats every parent run. Each `regressed` and `unresolved`
entry carries the metric's `pair_ratio_median`. `failed_share` gives,
per workload and side, the failed ops over the attempted ones, summed
over the runs, and whether the change's share grew.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ENV_NOTED = ("PYTHONDONTWRITEBYTECODE",)
RUN = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = RUN.format(workload=workload, seed=seed, seconds=seconds).split()
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def workloads(runs: list[dict]) -> list[str]:
    return list(dict.fromkeys(r["workload"] for r in runs))


def paired(runs: list[dict], workload: str, metric: dict) -> tuple[list, list, int]:
    """The parent's and the change's values of one metric, seed by seed,
    and the number of pairs the change won (ties count for neither)."""
    mine = [r for r in runs if r["workload"] == workload]
    seeds = list(dict.fromkeys(r["seed"] for r in mine))
    value = {(r["seed"], r["side"]): r["last_line"]["metrics"] for r in mine}
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [value[s, "parent"][name]["value"] for s in seeds]
    change = [value[s, "change"][name]["value"] for s in seeds]
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return parent, change, won


def pair_ratio_median(parent: list[float], change: list[float]):
    """The median of change / parent over the pairs, seed by seed, whose
    parent value is not 0; None when there is no such pair."""
    ratios = [c / p for p, c in zip(parent, change) if p]
    return round(statistics.median(ratios), 4) if ratios else None


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the seeds, and per metric each side's quartiles
    and the pairs the change won."""
    out = {}
    for workload in workloads(runs):
        seeds = list(dict.fromkeys(r["seed"] for r in runs if r["workload"] == workload))
        table = {}
        for metric in metrics:
            parent, change, won = paired(runs, workload, metric)
            table[metric["name"]] = {
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "change_better_pairs": f"{won}/{len(seeds)}",
                "pair_ratio_median": pair_ratio_median(parent, change),
            }
        out[workload] = {"seeds": seeds, "metrics": table}
    return out


def verdicts(runs: list[dict], metrics: list[dict], claims: list[str]) -> dict:
    """Each claim WORKLOAD:METRIC met or not; on every workload run, the
    end-to-end metrics that regressed beyond their bound and those too
    noisy to judge; and each side's failed share per workload."""
    by_name = {m["name"]: m for m in metrics}
    out = {"claims": {}, "regressed": []}
    for claim in claims:
        workload, name = claim.split(":", 1)
        parent, change, won = paired(runs, workload, by_name[name])
        q1, p_med, q3 = statistics.quantiles(parent, n=4)
        c_med = statistics.median(change)
        gap = p_med - c_med if by_name[name]["better"] == "lower" else c_med - p_med
        out["claims"][claim] = {
            "met": 10 * won >= 9 * len(parent) and gap > q3 - q1,
            "change_better_pairs": f"{won}/{len(parent)}",
            "median_gain": round(gap, 4),
            "parent_iqr": round(q3 - q1, 4),
        }
    out["unresolved"], out["failed_share"] = [], {}
    for workload in workloads(runs):
        for metric in metrics:
            parent, change, _ = paired(runs, workload, metric)
            p_med, c_med = statistics.median(parent), statistics.median(change)
            lower = metric["better"] == "lower"
            worse = c_med - p_med if lower else p_med - c_med
            if worse > metric["bound"] * abs(p_med):
                out["regressed"].append({
                    "workload": workload, "metric": metric["name"],
                    "parent_median": round(p_med, 4), "change_median": round(c_med, 4),
                    "bound": metric["bound"],
                    "pair_ratio_median": pair_ratio_median(parent, change),
                })
            q1, _, q3 = statistics.quantiles(parent, n=4)
            separated = max(change) < min(parent) if lower else min(change) > max(parent)
            if q3 - q1 > metric["bound"] * abs(p_med) and not separated:
                out["unresolved"].append({
                    "workload": workload, "metric": metric["name"],
                    "parent_median": round(p_med, 4), "parent_iqr": round(q3 - q1, 4),
                    "bound": metric["bound"],
                    "pair_ratio_median": pair_ratio_median(parent, change),
                })
        share = {}
        for side in ("parent", "change"):
            lines = [r["last_line"] for r in runs
                     if r["workload"] == workload and r["side"] == side]
            attempted = sum(line["attempted"] for line in lines)
            share[side] = sum(line["failed"] for line in lines) / max(attempted, 1)
        share["grew"] = share["change"] > share["parent"]
        out["failed_share"][workload] = share
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--pairs", type=int, default=5, help="seed pairs per workload")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seeds are first-seed, first-seed + 1, ...")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--description", default="")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a claimed gain to judge after the runs; repeatable")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["end_to_end"]}
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        if workload not in args.workload or name not in names:
            parser.error(f"--claim {claim}: want a --workload of this run and an "
                         "end-to-end metric of BENCHMARK.json")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    seed = args.first_seed
    for workload in args.workload:
        for _ in range(args.pairs):
            first_parent = (len(runs) // 2) % 2 == 0  # alternates over all pairs run
            order = ("parent", "change") if first_parent else ("change", "parent")
            for position, side in enumerate(order):
                line = run_once(sides[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "trace": 0, "order": position, "last_line": line})
                p50 = line["metrics"]["op_ms.p50"]["value"]
                print(f"{workload} seed {seed} {side}: correct={line['correct']} "
                      f"op_ms.p50={p50:.4f}", file=sys.stderr)
            seed += 1
    doc = {
        "description": args.description,
        "command": RUN.format(workload="WORKLOAD", seed="SEED", seconds=f"{args.seconds:g}"),
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, "
                   f"{platform.python_implementation()} {platform.python_version()}, "
                   + "".join(f"{k}={os.environ[k]}, " for k in ENV_NOTED if k in os.environ)
                   + "runs one at a time",
        "summary": summarize(runs, bench["end_to_end"]),
        "verdicts": verdicts(runs, bench["end_to_end"], args.claim),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
