"""S2's kernels against independent references: the congruence filter
against the set-based filter over the moduli 3, 5, 8 and 16; the walk
of the reduced cycle against a Pell-class search that computes the
whole fundamental unit and scans y up to Nagell's class bound, wherever
that reference decides; the rho-reduction for being reduced, properly
equivalent and quick; and `represents_value` against the value referee,
`oracle.required_values_radius` with `brute_values`, wherever the
referee derives a box. Elsewhere every "yes" witness is evaluated
again, no answer may be "yes" in one basis and "no" in another, and a
"no" stays "no" in every basis."""

import functools
import itertools
import math
import random

import pytest

from latcert import quadform
from latcert.lattice import GramLattice, norm
from latcert.matrices import det, from_rows, mat_mul, transpose
from latcert.oracle import brute_values, required_values_radius
from latcert.quadform import (
    REASON_CYCLE,
    BinaryForm,
    Representation,
    represents_value,
)

from .conftest import census_window, deadline, pell_by_squaring, small_sweep

REF_MODULI = (3, 5, 8, 16)
# S2 "unknown"s at t = -2 on the census window (450 pairs) by
# search_bound; at the default bound the window and the sweep (2,361
# Grams) have none: their longest walk to a decision is 69 steps.
CENSUS_UNKNOWNS = {1: 142, 10: 64, 30: 14, quadform.DEFAULT_SEARCH_BOUND: 0}


def ref_congruence_blocks(f, t):
    for k in REF_MODULI:
        if t % k not in ref_attained(BinaryForm(f.a % k, f.b % k, f.c % k), k):
            return True
    return False


@functools.lru_cache(maxsize=None)
def ref_attained(f, k):
    """The residues mod k of f; they depend only on f mod k."""
    return {f.evaluate(x, y) % k for x in range(k) for y in range(k)}


def ref_pell_class_search(f, t, search_bound):
    """f(x, y) = t for a != 0 as X^2 - D*y^2 = 4at with X = 2ax + by: a
    scan of y up to Nagell's bound y1*sqrt(|4at| / (2*(x1 - 1))) on the
    whole unit x1 + y1*sqrt D, capped at search_bound rows ("unknown"
    past the cap; reason None, as the kernel names its own). The unit
    comes from the continued-fraction walk `pell_by_squaring`, not from
    `quadform.pell_fundamental`, which steps with the rho under test."""
    disc = f.discriminant
    n = 4 * f.a * t
    x1, y1 = pell_by_squaring(disc)
    bound_sq = (y1 * y1 * abs(n)) // (2 * (x1 - 1))
    y_bound = math.isqrt(bound_sq) + 1
    for y in range(min(y_bound, search_bound) + 1):
        rhs = n + disc * y * y
        if rhs < 0 or not quadform._is_square(rhs):
            continue
        u = math.isqrt(rhs)
        for big_x in (-u, u):
            if (big_x - f.b * y) % (2 * f.a) == 0:
                x = (big_x - f.b * y) // (2 * f.a)
                if f.evaluate(x, y) == t:
                    return Representation(status="yes", witness=(x, y))
    if y_bound > search_bound:
        return Representation(status="unknown")
    return Representation(status="no")


def assert_kernel_agrees(f, t, search_bound, ref_rows=2000):
    """The cycle walk at search_bound against the reference at ref_rows
    rows: the same status wherever the reference decides, and every
    witness evaluated again. Returns both statuses, the walk's first."""
    got = quadform._cycle_search(f, t, search_bound)
    want = ref_pell_class_search(f, t, ref_rows)
    if got.status == "yes":
        assert f.evaluate(*got.witness) == t, (f, t)
    else:
        assert got.reason == REASON_CYCLE and got.steps <= search_bound, (f, t, got)
    if want.status != "unknown":
        assert got.status == want.status, (f, t, got, want)
    return got.status, want.status


@functools.lru_cache(maxsize=None)
def small_box_values(f, radius):
    """The values v with |v| <= 6 that f takes on the box."""
    box = range(-radius, radius + 1)
    return {v for x in box for y in box if -6 <= (v := f.evaluate(x, y)) <= 6}


def seeded_grams(seed, count, half_diag, off_diag):
    """`count` draws of [[A,B],[B,C]] with A, C even, |A|, |C| <=
    2*half_diag and |B| <= off_diag; the indefinite ones are kept."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = 2 * rng.randint(-half_diag, half_diag)
        c = 2 * rng.randint(-half_diag, half_diag)
        b = rng.randint(-off_diag, off_diag)
        if a * c - b * b < 0:
            out.append([[a, b], [b, c]])
    return out


def referee(g, t):
    """The value referee's answer, "yes" or "no", or None where it
    derives no box."""
    radius = required_values_radius(g, t)
    if radius is None:
        return None
    return "yes" if t in brute_values(g, radius, (t,)) else "no"


def assert_referee_agrees(grams, search_bound=quadform.DEFAULT_SEARCH_BOUND):
    """Every answer at t = 0 and t = -2 against the referee where it has
    a box; every witness evaluated again and every "unknown" named
    `reduced-cycle`. Returns (answers the referee checked, "unknown"s
    at -2)."""
    checked = unknown = 0
    for rows in grams:
        g = GramLattice.from_rows(rows)
        for t in (0, -2):
            rep = represents_value(g, t, search_bound)
            if rep.status == "yes":
                assert any(rep.witness) and norm(g, rep.witness) == t, (rows, t)
            if rep.status == "unknown":
                assert rep.reason == REASON_CYCLE, (rows, t)
                unknown += t == -2
                continue
            truth = referee(g, t)
            if truth is not None:
                assert rep.status == truth, (rows, t, rep)
                checked += 1
    return checked, unknown


def as_form(f, m):
    """The form f(m*v), for a 2x2 matrix m acting on columns."""
    (p, q), (r, s) = m
    a, c = f.evaluate(p, r), f.evaluate(q, s)
    return BinaryForm(a, f.evaluate(p + q, r + s) - a - c, c)


def is_reduced(f):
    """|sqrt D - 2|a|| < b < sqrt D, checked in squares."""
    a, b, c = f
    disc = f.discriminant
    if not (0 < b and b * b < disc < (2 * abs(a) + b) ** 2):
        return False
    return 2 * abs(a) <= b or (2 * abs(a) - b) ** 2 < disc


def assert_reduction(f):
    """The rho-reduction is reduced, equal to f(m*v) for the product m
    of its steps, with det m = 1, and at most log4(|c| / sqrt D) + 3
    steps long; its reversal is reduced and steps back by rho."""
    disc = f.discriminant
    s = math.isqrt(disc)
    (a, b, c), ks = quadform._rho_reduce(f, s)
    assert is_reduced(BinaryForm(a, b, c)) and is_reduced(BinaryForm(c, b, a)), f
    after, _ = quadform._rho((a, b, c), s)
    assert quadform._rho(after[::-1], s)[0] == (c, b, a), f
    m = quadform._rho_matrix(ks)
    assert det(m) == 1, f
    assert as_form(f, m) == (a, b, c), f
    assert len(ks) <= 3 or 16 ** (len(ks) - 3) * disc <= f.c * f.c, f


class TestCongruenceFilter:
    def test_residues_mod_240_match_set_filter(self):
        # 240 = 3 * 5 * 16 is the period of every modulus in both filters
        rng = random.Random(83)
        for _ in range(6000):
            a, b, c, t = (rng.randrange(240) for _ in range(4))
            f = BinaryForm(a, b, c)
            assert quadform._congruence_blocks(f, t) == ref_congruence_blocks(
                f, t
            ), (a, b, c, t)


class TestReduce:
    def test_small_sweep_forms_reduce_by_unimodular_maps(self):
        forms = {quadform.to_binary_form(GramLattice(r)) for r in small_sweep()}
        checked = 0
        for f in forms:
            f0, _ = quadform.primitive_part(f)
            if not quadform._is_square(f0.discriminant):
                assert_reduction(f0)
                checked += 1
        assert checked > 1000

    def test_huge_forms_reduce_within_the_deadline(self):
        rng = random.Random(87)
        checked = 0
        with deadline(1.0, "reducing 200 forms of 300 digits"):
            while checked < 200:
                f = BinaryForm(*(rng.randint(-(10**300), 10**300) for _ in range(3)))
                if f.discriminant > 0 and not quadform._is_square(f.discriminant):
                    assert_reduction(f)
                    checked += 1


class TestCycleSearch:
    @pytest.mark.parametrize("a", [1, -1, 2, -3, 5, -7])
    def test_seeded_forms_match_full_unit_reference(self, a):
        # primitive forms with a small leading coefficient and squarefree
        # targets: the reference decides most of them in 2,000 rows, and
        # the walk of 10^4 steps decides them all
        rng = random.Random(4417 + a)
        statuses = {"yes": 0, "no": 0, "unknown": 0}
        while sum(statuses.values()) < 400:
            f = BinaryForm(a, rng.randint(-40, 40), rng.randint(-300, 300))
            disc = f.discriminant
            if disc <= 0 or quadform._is_square(disc) or quadform.content(f) > 1:
                continue
            t = rng.choice((-1, 1, -2, 2, 3, -6))
            got, want = assert_kernel_agrees(f, t, 10**4)
            assert got != "unknown", f
            statuses[want] += 1
        assert statuses["yes"] > 40 and statuses["no"] > 40, statuses

    @pytest.mark.parametrize("grams", [census_window, small_sweep])
    def test_s2_queries_match_full_unit_reference(self, grams):
        # every t = -2 query that reaches the walk, at the default bound
        decided = 0
        for rows in grams():
            f = quadform.to_binary_form(GramLattice(rows))
            f0, cont = quadform.primitive_part(f)
            if -2 % cont or quadform._congruence_blocks(f, -2):
                continue
            if quadform._is_square(f0.discriminant):
                continue
            bound = quadform.DEFAULT_SEARCH_BOUND
            decided += assert_kernel_agrees(f0, -2 // cont, bound)[1] != "unknown"
        assert decided > 100

    @pytest.mark.parametrize("t", [-1, 1, -2, 2, 3, -6])
    def test_small_forms_match_a_brute_scan(self, t):
        # every primitive form with 0 < |a| <= 6, |b|, |c| <= 6 and
        # positive nonsquare discriminant: each is decided, a value at
        # some (x, y) of the radius-20 box is a "yes", and a "no" must be
        # true in the box
        answers = {"yes": 0, "no": 0}
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            f = BinaryForm(a, b, c)
            disc = f.discriminant
            if a == 0 or disc <= 0 or quadform._is_square(disc):
                continue
            if quadform.content(f) > 1:
                continue
            got = quadform._cycle_search(f, t, 100)
            assert got.status != "unknown", (f, t)
            answers[got.status] += 1
            if got.status == "yes":
                assert f.evaluate(*got.witness) == t, (f, t)
            else:
                assert t not in small_box_values(f, 20), (f, t)
        assert answers["yes"] > 100 and answers["no"] > 100, answers


class TestRepresentsValue:
    def test_small_sweep_agrees_with_referee(self):
        checked, unknown = assert_referee_agrees(small_sweep())
        assert checked >= 3190
        assert unknown == 0

    @pytest.mark.parametrize("search_bound", [1, 30, 1000])
    def test_census_window_agrees_with_referee(self, search_bound):
        window = census_window()
        assert len(window) == 450
        checked, _ = assert_referee_agrees(window, search_bound)
        assert checked >= 450

    def test_seeded_grams_agree_with_referee(self):
        checked, _ = assert_referee_agrees(seeded_grams(84, 500, 100, 300))
        assert checked > 300

    def test_huge_grams_agree_across_bases(self):
        # the referee derives no box here: witnesses are evaluated again,
        # and no answer is "yes" in one basis and "no" in another
        grams = seeded_grams(85, 60, 5 * 10**11, 10**12)
        assert_referee_agrees(grams)
        for rows in grams:
            g = GramLattice.from_rows(rows)
            for p in (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0))):
                moved = GramLattice(mat_mul(transpose(p), mat_mul(g.entries, p)))
                for t in (0, -2):
                    statuses = {
                        represents_value(g, t).status,
                        represents_value(moved, t).status,
                    }
                    assert statuses != {"yes", "no"}, (rows, p, t)

    def test_a_no_stays_no_in_every_basis(self):
        # each "no" at -2 of the census window and each "no" of the huge
        # seeded Grams, in bases P = [[x, -p], [y, q]] with |x|, |y| <=
        # 10^6: the same answer, and a walk's "no" the same period, an
        # invariant of the class (49 census "no"s are the walk's).
        rng = random.Random(88)
        huge = seeded_grams(85, 60, 5 * 10**11, 10**12)
        queries = [(rows, -2) for rows in census_window()]
        queries += [(rows, t) for rows in huge for t in (0, -2)]
        walked = 0
        for rows, t in queries:
            g = GramLattice(rows)
            here = represents_value(g, t)
            if here.status != "no":
                continue
            for _ in range(3):
                x, y = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
                g0, q, p = quadform._extended_gcd(x, y)
                pm = ((x // g0, -p), (y // g0, q))
                moved = GramLattice(mat_mul(transpose(pm), mat_mul(g.entries, pm)))
                assert represents_value(moved, t) == here, (rows, pm, t)
            walked += here.steps is not None
        assert walked == 49

    def test_huge_grams_with_a_small_witness_say_yes(self):
        # [[-2, b], [b, 2c]] in a basis that moves e1 to a point w with
        # |w| <= 50: norm -2 at w and, b and c being huge, hardly anywhere
        # near it. The reduction undoes the change of basis.
        rng = random.Random(86)
        checked = 0
        while checked < 80:
            b = rng.randint(-(10**12), 10**12)
            c = rng.randint(1, 10**12)
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
            g0, q, p = quadform._extended_gcd(x, y)
            if g0 != 1:
                continue
            # P = [[x, -p], [y, q]]^-1 maps w = (x, y) to e1
            pm = from_rows([[q, p], [-y, x]])
            rows = mat_mul(transpose(pm), mat_mul(((-2, b), (b, 2 * c)), pm))
            g = GramLattice.from_rows(rows)
            assert norm(g, (x, y)) == -2
            got = represents_value(g, -2)
            assert got.status == "yes" and norm(g, got.witness) == -2
            checked += 1

    def test_walk_steps_match_the_report_and_the_bound(self, monkeypatch):
        # the walk's rho-steps are the ones taken from a reduced form; they
        # are at most search_bound and are what the answer reports. The
        # square roots are two whatever the bound: the discriminant's
        # square test and s = isqrt(D).
        walked, roots = [], []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def isqrt(self, n):
                roots.append(None)
                return math.isqrt(n)

        rho = quadform._rho

        def counting_rho(f, s):
            walked.append(is_reduced(BinaryForm(*f)))
            return rho(f, s)

        monkeypatch.setattr(quadform, "math", CountingMath())
        monkeypatch.setattr(quadform, "_rho", counting_rho)
        for rows in census_window():
            g = GramLattice.from_rows(rows)
            for bound in (1, 50):
                walked.clear()
                roots.clear()
                rep = represents_value(g, -2, bound)
                assert sum(walked) == (rep.steps or 0) <= bound, (rows, bound)
                assert len(roots) <= 2, (rows, bound)


class TestBudget:
    @pytest.mark.parametrize("search_bound", sorted(CENSUS_UNKNOWNS))
    def test_a_larger_search_bound_decides_more(self, search_bound):
        # an answer decided at a smaller bound is decided, and the same,
        # at the default
        window = census_window()
        default = [represents_value(GramLattice(r), -2) for r in window]
        narrow = [represents_value(GramLattice(r), -2, search_bound) for r in window]
        assert sum(r.status == "unknown" for r in narrow) == CENSUS_UNKNOWNS[
            search_bound
        ]
        for rows, here, there in zip(window, default, narrow):
            if there.status != "unknown":
                assert there._replace(steps=None) == here._replace(steps=None), rows

    @pytest.mark.parametrize("grams", [census_window, small_sweep])
    def test_every_unknown_is_reduced_cycle(self, grams):
        # none at the default bound; at a bound of 10 steps each names
        # the walk and the 10 steps it took
        for rows in grams():
            g = GramLattice(rows)
            for t in (0, -2):
                assert represents_value(g, t).status != "unknown", (rows, t)
                rep = represents_value(g, t, 10)
                if rep.status == "unknown":
                    assert rep == Representation("unknown", None, REASON_CYCLE, 10)
