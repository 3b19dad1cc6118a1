#!/usr/bin/env python3
"""A/B of two latcert checkouts on the committed benchmark.

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload bitsize \
        --pairs 5 --first-seed 9401 --seconds 40 --out BENCH_9.json

For each seed, runs `python3 perfbench/run.py` once in each checkout,
one run at a time, flipping which side runs first from pair to pair.
Every run's last stdout line (the result object) is kept. The output
file holds the runs and, per workload and end-to-end metric of
CHANGE_DIR's BENCHMARK.json, each side's quartiles
(statistics.quantiles, n=4) and the number of pairs the change won,
ties counting for neither side. Standard library only.
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


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the seeds, and per metric each side's quartiles
    and the pairs the change won."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = list(dict.fromkeys(r["seed"] for r in mine))
        value = {
            (r["seed"], r["side"]): r["last_line"]["metrics"] for r in mine
        }
        table = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [value[s, "parent"][name]["value"] for s in seeds]
            change = [value[s, "change"][name]["value"] for s in seeds]
            won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            table[name] = {
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "change_better_pairs": f"{won}/{len(seeds)}",
            }
        out[workload] = {"seeds": seeds, "metrics": table}
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
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
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
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
