"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random
import time

from latcert.certificate import CertificateInput, run_certificate
from latcert.discgroup import action_order, induced_action, smith_normal_form
from latcert.isometry import char_poly_rank2, is_isometry, order
from latcert.lattice import GramLattice, determinant, inner, norm
from latcert.matrices import det, from_rows, mat_mul, mat_vec, transpose
from latcert.oracle import (
    brute_action_order,
    brute_low_degree,
    brute_values,
)
from latcert.quadform import pell_fundamental, represents_value

from .conftest import PAPER_GRAM, PAPER_SIGMA, brute_pell, mat_pow
from .test_discgroup import assert_valid_snf

BUNDLED_LATTICES = {
    "gizatullin": [[4, 20], [20, 4]],
    "hyperbolic_plane": [[0, 1], [1, 0]],
    "minus_two_class": [[2, 0], [0, -2]],
    "low_degree_control": [[4, 6], [6, 4]],
    "content_filtered_control": [[4, 10], [10, 4]],
}


def _report(n, label, start, limit=None):
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {n} {label}: PASS ({elapsed:.3f}s)")


def test_criterion_1_paper_certificate():
    start = time.perf_counter()
    report = run_certificate(
        CertificateInput(
            gram=GramLattice.from_rows(PAPER_GRAM),
            polarization=(1, 0),
            isometry=from_rows(PAPER_SIGMA),
        )
    )
    assert report.verdict == "pass"
    assert [s.status for s in report.steps] == ["pass"] * 5
    _report(1, "paper-data certificate", start, limit=1.0)


def test_criterion_2_no_0_or_minus2():
    start = time.perf_counter()
    g = GramLattice.from_rows(PAPER_GRAM)
    rep0 = represents_value(g, 0)
    rep2 = represents_value(g, -2)
    assert rep0.status == "no" and rep0.reason == "nonsquare-discriminant"
    assert rep2.status == "no" and rep2.reason == "content-divisibility"
    values = brute_values(g, 50, (0, -2))
    assert 0 not in values and -2 not in values
    _report(2, "represents neither 0 nor -2", start, limit=1.0)


def test_criterion_3_low_degree_classes():
    start = time.perf_counter()
    g = GramLattice.from_rows(PAPER_GRAM)
    h = (1, 0)
    report = run_certificate(CertificateInput(gram=g, polarization=h))
    s4 = report.step("S4")
    assert s4.status == "pass"
    classes = s4.details["classes"]
    assert [tuple(c["coords"]) for c in classes] == [(1, 0), (2, 0), (3, 0)]
    assert [c["degree"] for c in classes] == [4, 8, 12]
    assert [c["multiple_of_h"] for c in classes] == [1, 2, 3]
    oracle = brute_low_degree(g, h, 16)
    assert {tuple(c["coords"]) for c in classes} == {c.coords for c in oracle}
    _report(3, "low-degree classes are {h, 2h, 3h}", start, limit=1.0)


def test_criterion_4_isometry_analysis():
    start = time.perf_counter()
    g = GramLattice.from_rows(PAPER_GRAM)
    sigma = from_rows(PAPER_SIGMA)
    h = (1, 0)
    assert is_isometry(g, sigma)
    assert mat_mul(transpose(sigma), mat_mul(g.entries, sigma)) == g.entries
    assert inner(g, mat_vec(sigma, h), h) == 20
    assert order(sigma) is None
    assert mat_vec(sigma, h) != h
    char = char_poly_rank2(sigma)
    assert (char.trace, char.det) == (10, 1)
    assert str(char.dominant_root) == "5 + 2*sqrt(6)"
    report = run_certificate(
        CertificateInput(gram=g, polarization=h, isometry=sigma)
    )
    discrepancy = report.step("S5").details["eigenvalue_discrepancy"]
    assert "5 + 4*sqrt(6)" in discrepancy and "5 + 2*sqrt(6)" in discrepancy
    _report(4, "isometry analysis and eigenvalue flag", start)


def test_criterion_5_discriminant_machinery():
    start = time.perf_counter()
    g = GramLattice.from_rows(PAPER_GRAM)
    sigma = from_rows(PAPER_SIGMA)
    snf = smith_normal_form(g.entries)
    assert snf.diagonal == (4, 96)
    from latcert.discgroup import discriminant_group

    assert discriminant_group(g).order == 384
    structured = action_order(induced_action(g, sigma))
    brute = brute_action_order(g, sigma)
    assert structured == brute
    assert structured is not None
    _report(5, "discriminant machinery, two-path order agreement", start, limit=1.0)


def test_criterion_6_pell_kernel():
    start = time.perf_counter()
    sol24 = pell_fundamental(24, 10)
    assert (sol24.x, sol24.y) == (5, 1)
    for d in range(2, 61):
        if math.isqrt(d) ** 2 == d:
            continue
        oracle = brute_pell(d, 10**4)
        if oracle is None:
            continue
        sol = pell_fundamental(d, 10**4)
        assert (sol.x, sol.y) == oracle, f"D={d}"
    _report(6, "Pell kernel agrees with brute force for D <= 60", start, limit=5.0)


def test_criterion_7_negative_controls():
    start = time.perf_counter()

    hyperbolic = GramLattice.from_rows([[0, 1], [1, 0]])
    report = run_certificate(
        CertificateInput(gram=hyperbolic, polarization=(1, 1))
    )
    assert report.verdict == "fail" and report.step("S2").status == "fail"
    witnesses = {w["target"]: w["vector"] for w in report.step("S2").witness}
    assert norm(hyperbolic, witnesses[0]) == 0 and witnesses[0] != (0, 0)

    minus_two = GramLattice.from_rows([[2, 0], [0, -2]])
    report = run_certificate(
        CertificateInput(gram=minus_two, polarization=(1, 0))
    )
    assert report.step("S2").status == "fail"
    witnesses = {w["target"]: w["vector"] for w in report.step("S2").witness}
    assert norm(minus_two, witnesses[-2]) == -2

    control = GramLattice.from_rows([[4, 6], [6, 4]])
    report = run_certificate(CertificateInput(gram=control, polarization=(1, 0)))
    assert report.step("S4").status == "fail"
    witness = report.step("S4").witness
    assert tuple(witness["coords"]) == (0, 1)
    assert inner(control, (0, 1), (1, 0)) == witness["degree"]
    assert norm(control, (0, 1)) == witness["square"]

    paper = GramLattice.from_rows(PAPER_GRAM)
    report = run_certificate(CertificateInput(gram=paper, polarization=(2, 0)))
    assert report.step("S3").status == "fail"
    assert "primitive" in report.step("S3").witness

    _report(7, "negative controls fail with re-validating witnesses", start)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(20260823)

    # bilinearity / symmetry fuzz, >= 10^4 cases
    lattices = []
    while len(lattices) < 40:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a * c != b * b:
            lattices.append(GramLattice.from_rows([[a, b], [b, c]]))
    cases = 0
    while cases < 10**4:
        g = rng.choice(lattices)
        u = tuple(rng.randint(-6, 6) for _ in range(2))
        v = tuple(rng.randint(-6, 6) for _ in range(2))
        w = tuple(rng.randint(-6, 6) for _ in range(2))
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert inner(g, u, v) == inner(g, v, u)
        combo = tuple(a * x + b * y for x, y in zip(u, w))
        assert inner(g, combo, v) == a * inner(g, u, v) + b * inner(g, w, v)
        cases += 1

    # isometry norm preservation on sampled boxes
    g = GramLattice.from_rows(PAPER_GRAM)
    sigma = from_rows(PAPER_SIGMA)
    for k in range(6):
        m = mat_pow(sigma, k)
        for x in range(-5, 6):
            for y in range(-5, 6):
                assert norm(g, mat_vec(m, (x, y))) == norm(g, (x, y))

    # SNF validity on >= 10^3 random 2x2 matrices with entries up to 50
    for _ in range(10**3):
        rows = [[rng.randint(-50, 50) for _ in range(2)] for _ in range(2)]
        if all(all(x == 0 for x in r) for r in rows):
            continue
        assert_valid_snf(rows, smith_normal_form(rows))

    # oracle/decision agreement on every bundled lattice at S2's targets
    for name, rows in BUNDLED_LATTICES.items():
        g = GramLattice.from_rows(rows)
        attained = brute_values(g, 50, (0, -2))
        for t in (0, -2):
            rep = represents_value(g, t)
            if rep.status == "yes":
                assert norm(g, rep.witness) == t, (name, t)
            elif rep.status == "no":
                assert t not in attained, (name, t)
            else:
                assert t not in attained, (name, t)

    # determinant invariance under random unimodular changes of basis
    for _ in range(200):
        g = rng.choice(lattices)
        u = [[1 if i == j else 0 for j in range(2)] for i in range(2)]
        for _ in range(6):
            i, j = rng.randrange(2), rng.randrange(2)
            if i == j:
                continue
            k = rng.randint(-2, 2)
            for col in range(2):
                u[i][col] += k * u[j][col]
        um = from_rows(u)
        transformed = mat_mul(transpose(um), mat_mul(g.entries, um))
        assert det(transformed) == determinant(g)

    _report(8, "property suites", start, limit=60.0)
