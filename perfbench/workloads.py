"""Seeded input generators for the latcert benchmark.

Every generator is a pure function of its seed and builds documents with
plain integer arithmetic; latcert itself receives only the documents.
A schedule is a finite list of operations that run.py cycles through
for as long as a run lasts.

Sampling is stratified: each round takes one input per stratum of the
input-size range, and within a stratum successive rounds step through it
by the golden ratio from a seeded offset. Every prefix of a schedule
therefore covers the whole range evenly whatever the seed, which keeps
run-to-run spread low without fixing the inputs.
"""

from __future__ import annotations

import math
import pathlib
import random

PAPER_GRAM = [[4, 20], [20, 4]]
SIGMA = [[10, 1], [-1, 0]]
POLARIZATION = [1, 0]
SIGMA_ORDER_ON_DISC = 4  # order of sigma on the discriminant group of PAPER_GRAM
ANCHOR_GRAM = [[4, 0], [0, -96]]  # the paper datum in reduced form

# Per-op deadlines in seconds. A hit counts as an unanswered op at its
# elapsed time; inputs are never dropped because they hang.
DEADLINE_S = {"cli": 10.0, "census": 0.1, "bitsize": 0.1}

CENSUS_DET_MAX = 1200
BITSIZE_K_MAX = 64
BITSIZE_DET_DECADES = 12
BITSIZE_DET_PER_DECADE = 2
# degree_bound family: log-uniform in [16, 512), two bounds per octave per
# round. At 512 an op takes about 30 ms, inside the 0.1 s deadline.
DEGREE_LO, DEGREE_HI = 16, 512
DEGREE_PER_OCTAVE = 2

# Command list of scripts/reproduce.py and the exit codes it expects.
REPRODUCE_EXPECTED = {
    "gizatullin.json": 0,
    "hyperbolic_plane.json": 1,
    "minus_two_class.json": 1,
    "low_degree_control.json": 1,
}
DATUM = "gizatullin.json"

_GOLDEN = (math.sqrt(5) - 1) / 2


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


def sigma_powers(k_max: int) -> dict[int, list[list[int]]]:
    out, power = {}, [[1, 0], [0, 1]]
    for k in range(1, k_max + 1):
        power = _mat_mul(power, SIGMA)
        out[k] = power
    return out


def _stratified_rounds(rng: random.Random, strata: int, rounds: int):
    """Per round, one point u in [0, 1) inside each of `strata` equal
    strata, stepped by the golden ratio across rounds."""
    offsets = [rng.random() for _ in range(strata)]
    for r in range(rounds):
        yield [(i + (offsets[i] + r * _GOLDEN) % 1.0) / strata for i in range(strata)]


def reduced_pair(abs_det: int, b: int) -> list[list[int]]:
    """The reduced pair [[4,b],[b,2c]] with det = 8c - b^2 < 0 and
    |det| as close to abs_det from above as the congruence allows."""
    c = -max((abs_det - b * b + 7) // 8, 0 if b else 1)
    return [[4, b], [b, 2 * c]]


def census_window(det_max: int = CENSUS_DET_MAX) -> list[dict]:
    """Every reduced pair (L, h) = ([[4,b],[b,2c]], (1,0)), 0 <= b <= 2,
    with -det_max <= det < 0, in order of |det|."""
    docs = []
    for b in range(3):
        c = 0 if b else -1
        while b * b - 8 * c <= det_max:
            docs.append({"gram": [[4, b], [b, 2 * c]], "polarization": POLARIZATION})
            c -= 1
    for doc in docs:
        if doc["gram"] == ANCHOR_GRAM:
            doc["expect"] = {"verdict": "pass", "disc_action_order": SIGMA_ORDER_ON_DISC}
    docs.sort(key=lambda d: (d["gram"][0][1] ** 2 - 4 * d["gram"][1][1], d["gram"][0][1]))
    return docs


def census(seed: int, passes: int = 12) -> list[dict]:
    """The census window, each pass in a fresh seeded order."""
    rng = random.Random(seed)
    window = census_window()
    out = []
    for _ in range(passes):
        order = list(window)
        rng.shuffle(order)
        out.extend(order)
    return out


def _sigma_power_doc(k: int, power) -> dict:
    return {
        "gram": PAPER_GRAM,
        "polarization": POLARIZATION,
        "isometry": power,
        "expect": {
            "verdict": "pass",
            "disc_action_order": SIGMA_ORDER_ON_DISC // math.gcd(k, SIGMA_ORDER_ON_DISC),
        },
    }


def _degree_doc(bound: int) -> dict:
    doc = {
        "gram": PAPER_GRAM,
        "polarization": POLARIZATION,
        "isometry": SIGMA,
        "degree_bound": bound,
    }
    # (0, 1) has degree 20 and square 4 but is no multiple of h, so S4
    # must fail above 20; up to 16 the paper's claim holds.
    if bound > 20:
        doc["expect"] = {"verdict": "fail", "failed_step": "S4"}
    elif bound <= 16:
        doc["expect"] = {"verdict": "pass", "disc_action_order": SIGMA_ORDER_ON_DISC}
    return doc


def bitsize(seed: int, rounds: int = 40) -> list[dict]:
    """Input-size families. Per round: the paper datum with sigma^k for
    every k in 1..64; reduced pairs with no isometry and |det|
    log-uniform in [1, 10^12]; the paper datum and sigma with
    degree_bound log-uniform in [16, 512)."""
    rng = random.Random(seed)
    powers = sigma_powers(BITSIZE_K_MAX)
    det_strata = BITSIZE_DET_DECADES * BITSIZE_DET_PER_DECADE
    degree_strata = round(math.log2(DEGREE_HI / DEGREE_LO)) * DEGREE_PER_OCTAVE
    out = []
    for det_us, degree_us in zip(
        _stratified_rounds(rng, det_strata, rounds),
        _stratified_rounds(rng, degree_strata, rounds),
    ):
        batch = [_sigma_power_doc(k, powers[k]) for k in range(1, BITSIZE_K_MAX + 1)]
        # Whether S2 decides early depends on b, so each round takes every
        # b equally often.
        bs = [i % 3 for i in range(det_strata)]
        rng.shuffle(bs)
        for u, b in zip(det_us, bs):
            abs_det = int(10 ** (BITSIZE_DET_DECADES * u))
            batch.append({"gram": reduced_pair(abs_det, b), "polarization": POLARIZATION})
        for u in degree_us:
            batch.append(_degree_doc(int(DEGREE_LO * (DEGREE_HI / DEGREE_LO) ** u)))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def cli_commands(data_dir: pathlib.Path) -> list[dict]:
    """The scripts/reproduce.py command list plus a JSON check of the
    datum, each with the exit code it must return."""
    datum = str(data_dir / DATUM)
    cmds = [
        {"argv": ["check", str(data_dir / name), "--verify"], "exit": code}
        for name, code in REPRODUCE_EXPECTED.items()
    ]
    cmds += [
        {"argv": ["pell", "24"], "exit": 0},
        {"argv": ["disc", datum], "exit": 0},
        {"argv": ["orbit", datum, "--k-max", "5"], "exit": 0},
        {"argv": ["enumerate", datum], "exit": 0},
        {"argv": ["check", datum, "--format", "json"], "exit": 0},
    ]
    return cmds


def cli(seed: int, data_dir: pathlib.Path, rounds: int = 100) -> list[dict]:
    """The CLI command list, each round in a fresh seeded order."""
    rng = random.Random(seed)
    cmds = cli_commands(data_dir)
    out = []
    for _ in range(rounds):
        order = list(cmds)
        rng.shuffle(order)
        out.extend(order)
    return out


def schedule(workload: str, seed: int, data_dir: pathlib.Path) -> list[dict]:
    if workload == "cli":
        return cli(seed, data_dir)
    return {"census": census, "bitsize": bitsize}[workload](seed)
