"""The verdict rule of scripts/bench_ab.py on synthetic runs: a claim is
met only with at least nine tenths of the pairs won and a median gain
larger than the parent's interquartile range; an end-to-end metric is
listed as regressed when the change's median is worse than the parent's
by more than its relative bound, and as unresolved when the parent's
interquartile range is wider than that bound unless every change run
beats every parent run; the failed share is failed over attempted ops
per workload and side; the median of the per-pair change/parent ratios
shows a host slowdown that hits both sides of some pairs. No benchmark
runs here."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [
    {"name": "op_ms.p50", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def runs_of(workload, parent, change, ops=None, failed=(0, 0)):
    """One run per side and seed with the given op_ms.p50 values;
    ops_per_s is 100 on both sides unless given as (parent, change).
    Each run attempts 1000 ops, of which failed = (parent, change) fail."""
    ops = ops or ([100] * len(parent), [100] * len(change))
    out = []
    for seed, values in enumerate(zip(parent, change, *ops)):
        p50_p, p50_c, ops_p, ops_c = values
        for side, p50, rate, bad in (
            ("parent", p50_p, ops_p, failed[0]),
            ("change", p50_c, ops_c, failed[1]),
        ):
            metrics = {"op_ms.p50": {"value": p50}, "ops_per_s": {"value": rate}}
            line = {"attempted": 1000, "failed": bad, "metrics": metrics}
            out.append({"workload": workload, "seed": seed, "side": side,
                        "last_line": line})
    return out


def claim(runs):
    return bench_ab.verdicts(runs, METRICS, ["census:op_ms.p50"])["claims"]["census:op_ms.p50"]


def test_claim_met_with_nine_of_ten_and_gap_above_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [0.80] * 9 + [1.05]
    verdict = claim(runs_of("census", parent, change))
    assert verdict["met"] and verdict["change_better_pairs"] == "9/10"
    assert verdict["median_gain"] > verdict["parent_iqr"]


def test_claim_not_met_with_eight_of_ten():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.0, 1.2]
    verdict = claim(runs_of("census", parent, change))
    assert verdict["change_better_pairs"] == "8/10"
    assert not verdict["met"]


def test_claim_not_met_when_gap_within_parent_iqr():
    # the change wins every pair, but by less than the parent's own spread
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    change = [p - 0.05 for p in parent]
    verdict = claim(runs_of("census", parent, change))
    assert verdict["change_better_pairs"] == "10/10"
    assert verdict["median_gain"] < verdict["parent_iqr"]
    assert not verdict["met"]


def test_claim_in_the_wrong_direction_is_not_met():
    verdict = claim(runs_of("census", [1.0] * 10, [2.0] * 10))
    assert not verdict["met"] and verdict["median_gain"] < 0


def test_regressed_lists_metrics_beyond_their_bound_on_each_workload():
    runs = runs_of("census", [1.0] * 5, [1.2] * 5)  # worse by 20%: within 0.25
    runs += runs_of("bitsize", [1.0] * 5, [1.3] * 5, ops=([100] * 5, [70] * 5))
    regressed = bench_ab.verdicts(runs, METRICS, [])["regressed"]
    assert [(r["workload"], r["metric"]) for r in regressed] == [
        ("bitsize", "op_ms.p50"),
        ("bitsize", "ops_per_s"),
    ]


def unresolved(runs):
    return [(r["workload"], r["metric"])
            for r in bench_ab.verdicts(runs, METRICS, [])["unresolved"]]


def test_unresolved_when_parent_iqr_is_wider_than_the_bound():
    # parent IQR 0.5 against 0.25 x median 1.0; the change runs overlap
    parent = [0.6, 0.8, 1.0, 1.2, 1.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    change = [0.7, 0.9, 1.1, 1.3, 1.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    runs = runs_of("cli", parent, change)
    assert unresolved(runs) == [("cli", "op_ms.p50")]
    assert bench_ab.verdicts(runs, METRICS, [])["regressed"] == []


def test_not_unresolved_when_every_change_run_beats_every_parent_run():
    parent = [0.6, 0.8, 1.0, 1.2, 1.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    assert unresolved(runs_of("cli", parent, [0.5] * 10)) == []
    # the same separation in the wrong direction leaves it unresolved
    assert unresolved(runs_of("cli", parent, [1.5] * 10)) == [("cli", "op_ms.p50")]


def test_not_unresolved_when_parent_iqr_is_within_the_bound():
    parent = [1.0, 1.05, 1.1, 0.95, 0.9] * 2
    change = [1.5, 0.5, 1.5, 0.5, 1.0] * 2  # wide, but only the parent counts
    assert unresolved(runs_of("cli", parent, change)) == []


def test_failed_share_per_workload_and_side():
    runs = runs_of("census", [1.0] * 4, [1.0] * 4, failed=(10, 30))
    runs += runs_of("bitsize", [1.0] * 4, [1.0] * 4, failed=(5, 5))
    share = bench_ab.verdicts(runs, METRICS, [])["failed_share"]
    assert share == {
        "census": {"parent": 0.01, "change": 0.03, "grew": True},
        "bitsize": {"parent": 0.005, "change": 0.005, "grew": False},
    }


def test_pair_ratio_median_sees_through_a_mid_run_host_slowdown():
    # the change is 10% slower. The host ran twice as slow from the
    # change's run of pair 2 to the change's run of pair 6: 5 change runs
    # and 4 parent runs. The change's median moves 65% past the parent's,
    # and op_ms.p50 reads as regressed, while the per-pair ratio says 1.1.
    parent = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    change = [1.1, 1.1, 2.2, 2.2, 2.2, 2.2, 2.2, 1.1, 1.1, 1.1]
    runs = runs_of("census", parent, change)
    p50 = bench_ab.summarize(runs, METRICS)["census"]["metrics"]["op_ms.p50"]
    assert p50["pair_ratio_median"] == 1.1
    (entry,) = bench_ab.verdicts(runs, METRICS, [])["regressed"]
    assert (entry["metric"], entry["parent_median"], entry["change_median"]) == (
        "op_ms.p50",
        1.0,
        1.65,
    )
    assert entry["pair_ratio_median"] == 1.1


def test_pair_ratio_median_skips_pairs_with_a_zero_parent():
    assert bench_ab.pair_ratio_median([0, 2.0, 4.0, 1.0], [1.0, 3.0, 4.0, 3.0]) == 1.5
    assert bench_ab.pair_ratio_median([0, 0], [1.0, 2.0]) is None
    # the unresolved entries carry it too
    parent = [0.6, 0.8, 1.0, 1.2, 1.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    runs = runs_of("cli", parent, [p * 1.1 for p in parent])
    (entry,) = bench_ab.verdicts(runs, METRICS, [])["unresolved"]
    assert entry["pair_ratio_median"] == 1.1


def test_main_without_a_claim_still_lists_regressions(monkeypatch, tmp_path):
    bench = {"end_to_end": METRICS}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    p50 = {"parent": 1.0, "change": 2.0}  # the change is twice as slow

    def run_once(checkout, workload, seed, seconds):
        metrics = {"op_ms.p50": {"value": p50[checkout.name]}, "ops_per_s": {"value": 100}}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "census",
            "--pairs", "2", "--first-seed", "1", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts["claims"] == {}
    assert [(r["workload"], r["metric"]) for r in verdicts["regressed"]] == [
        ("census", "op_ms.p50")
    ]
