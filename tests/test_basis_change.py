"""Answers are invariants of the lattice, not of its basis. A change of
basis P in GL2(Z) maps G to P^T G P, h to P^-1 h and an isometry M to
P^-1 M P. S2's cycle walk has a budget, and the steps from the reduced
form a basis leads to up to a target depend on that basis, while its
"no" (the period) does not. On these Grams every t = -2 query is
decided in every basis: no answer is "yes" in one basis and "no" or
"unknown" in another, every witness maps back by P to a vector of the
target norm, and every answer at -2 is the value referee's wherever
the referee has one. The invariant factors and S4's classes agree
across bases, and on the paper Gram with an isometry so do the verdict,
n and the characteristic polynomial. S5 runs only with an isometry
supplied: the automorph scan without one takes its whole
u <= search_bound^2 budget on some census Grams."""

import random

from latcert.certificate import (
    CertificateInput,
    enumerate_low_degree,
    run_certificate,
)
from latcert.discgroup import discriminant_group
from latcert.lattice import GramLattice, norm
from latcert.matrices import adjugate, det, from_rows, mat_mul, mat_vec, transpose
from latcert.oracle import brute_values, required_values_radius
from latcert.quadform import represents_value

from .conftest import PAPER_GRAM, PAPER_SIGMA, census_window, mat_pow, small_sweep

ELEMENTARY = (
    lambda k: ((1, k), (0, 1)),
    lambda k: ((1, 0), (k, 1)),
    lambda k: ((0, 1), (1, 0)),
    lambda k: ((1, 0), (0, -1)),
)


def basis_changes(rng, count):
    """`count` pairs (P, P^-1), each P a product of two to five
    elementary matrices of GL2(Z)."""
    out = []
    for _ in range(count):
        p = ((1, 0), (0, 1))
        for _ in range(rng.randint(2, 5)):
            p = mat_mul(p, rng.choice(ELEMENTARY)(rng.choice((-2, -1, 1, 2))))
        inverse = tuple(tuple(det(p) * x for x in row) for row in adjugate(p))
        out.append((p, inverse))
    return out


def in_basis(g, p):
    return GramLattice(mat_mul(transpose(p), mat_mul(g.entries, p)))


def referee(g):
    """The value referee's answer at -2, "yes" or "no", or None where it
    derives no box."""
    radius = required_values_radius(g, -2)
    if radius is None:
        return None
    return "yes" if brute_values(g, radius, (-2,)) else "no"


def assert_same_answers(g, p, p_inv, h=None, truth=None):
    """S2 at both targets, the invariant factors and, for an h of
    positive norm, S4's classes, in the basis P against the given one.
    Every decided answer at -2 must be `truth` where that is not None.
    Returns 1 if the answer at -2 is decided in one basis only, else 0."""
    moved = in_basis(g, p)
    for t in (0, -2):
        here, there = represents_value(g, t), represents_value(moved, t)
        statuses = {here.status, there.status}
        assert statuses != {"yes", "no"}, (g, p, t)
        if there.status == "yes":
            back = mat_vec(p, there.witness)
            assert any(back) and norm(g, back) == t, (g, p, t)
    # statuses now holds the answers at -2, the loop's last target
    if truth is not None:
        assert statuses - {"unknown"} <= {truth}, (g, p)
    factors = discriminant_group(g).invariant_factors
    assert discriminant_group(moved).invariant_factors == factors, (g, p)
    if h is not None:
        classes = {tuple(c) for c in enumerate_low_degree(g, h, 16)}
        mapped = {
            (mat_vec(p, c.coords), *c[1:])
            for c in enumerate_low_degree(moved, mat_vec(p_inv, h), 16)
        }
        assert mapped == classes, (g, p)
    return len(statuses) - 1


def test_census_window_answers_agree_across_bases():
    rng = random.Random(1301)
    window = census_window()
    assert len(window) == 450
    flips = 0
    for rows in window:
        g = GramLattice(rows)
        truth = referee(g)
        for p, p_inv in basis_changes(rng, 3):
            flips += assert_same_answers(g, p, p_inv, (1, 0), truth)
    assert flips == 0  # of 1,350 query pairs


def test_small_sweep_answers_agree_across_bases():
    rng = random.Random(1302)
    sweep = small_sweep()
    assert len(sweep) == 2361
    flips = 0
    for rows in sweep:
        # a basis vector of positive norm serves as h where there is one
        (a, _), (_, c) = rows
        h = (1, 0) if a > 0 else (0, 1) if c > 0 else None
        g = GramLattice(rows)
        truth = referee(g)
        for p, p_inv in basis_changes(rng, 2):
            flips += assert_same_answers(g, p, p_inv, h, truth)
    assert flips == 0  # of 4,722 query pairs


def test_paper_gram_with_sigma_powers_agrees_across_bases():
    rng = random.Random(1303)
    g = GramLattice(PAPER_GRAM)
    sigma = from_rows(PAPER_SIGMA)
    for k in range(9):
        m = mat_pow(sigma, k)
        report = run_certificate(CertificateInput(g, (1, 0), m))
        s5 = report.step("S5").details
        for p, p_inv in basis_changes(rng, 4):
            inp = CertificateInput(
                in_basis(g, p), mat_vec(p_inv, (1, 0)), mat_mul(p_inv, mat_mul(m, p))
            )
            moved = run_certificate(inp)
            assert moved.verdict == report.verdict, (k, p)
            there = moved.step("S5").details
            for key in ("disc_action_order", "char_poly"):
                assert there.get(key) == s5.get(key), (k, p, key)
