"""S2's kernels against independent references: the congruence filter
against the set-based filter over the moduli 3, 5, 8 and 16; the
Pell-class search against a reference that computes the whole
fundamental unit before capping its y scan at the search bound (the
kernel stops the unit's walk once the cap is sure to bind); the
Lagrange reduction for being reduced and equivalent; and
`represents_value` against the value referee,
`oracle.required_values_radius` with `brute_values`, wherever the
referee derives a box. Elsewhere every "yes" witness is evaluated
again, and no answer may be "yes" in one basis and "no" in another."""

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
    REASON_PELL,
    BinaryForm,
    Representation,
    represents_value,
)

from .conftest import census_window, deadline, small_sweep

REF_MODULI = (3, 5, 8, 16)
# S2 "unknown"s at t = -2: on the census window (450 pairs) by
# search_bound, and on the sweep (2,361 Grams) at the default bound;
# these may only shrink.
CENSUS_UNKNOWNS = {1000: 31, 10**4: 24, 10**5: 18}
SWEEP_UNKNOWNS = 18


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
    disc = f.discriminant
    n = 4 * f.a * t
    # 10^4300 is far above the unit of any discriminant used here
    fund = quadform.pell_fundamental(disc, 10**4300)
    assert fund is not None
    bound_sq = (fund.y * fund.y * abs(n)) // (2 * (fund.x - 1))
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
        return Representation(status="unknown", reason=REASON_PELL)
    return Representation(status="no", reason=REASON_PELL)


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
    `pell-exhausted`. Returns (answers the referee checked, "unknown"s
    at -2)."""
    checked = unknown = 0
    for rows in grams:
        g = GramLattice.from_rows(rows)
        for t in (0, -2):
            rep = represents_value(g, t, search_bound)
            if rep.status == "yes":
                assert any(rep.witness) and norm(g, rep.witness) == t, (rows, t)
            if rep.status == "unknown":
                assert rep.reason == REASON_PELL, (rows, t)
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


def assert_reduction(f):
    reduced, m = quadform._reduce(f)
    assert abs(reduced.b) <= abs(reduced.a) <= abs(reduced.c), f
    assert 4 * reduced.a * reduced.a <= f.discriminant, f
    assert det(m) in (1, -1), f
    assert as_form(f, m) == reduced, f


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


class TestPellClassSearch:
    @pytest.mark.parametrize("a", [1, -1, 2, -3, 5, -7])
    def test_seeded_forms_match_full_unit_reference(self, a):
        # small search bounds make the cap bind, the large ones let the
        # whole unit be computed; both branches must be exercised
        rng = random.Random(4417 + a)
        capped = 0
        queries = 0
        while queries < 400:
            b, c = rng.randint(-40, 40), rng.randint(-3000, 3000)
            f = BinaryForm(a, b, c)
            disc = f.discriminant
            if disc <= 0 or quadform._is_square(disc):
                continue
            t = rng.choice((-1, 1, -2, 2, -3, -4, 6)) * rng.randint(1, 30)
            bound = rng.choice((1, 2, 3, 7, 20, 100, 400))
            got = quadform._pell_class_search(f, t, bound)
            assert got == ref_pell_class_search(f, t, bound), (f, t, bound)
            limit = math.isqrt(4 * bound**4 * disc // (16 * a * a * t * t)) + 1
            capped += quadform.pell_fundamental(disc, limit) is None
            queries += 1
        assert 10 < capped < queries - 10

    @pytest.mark.parametrize("t", [-1, 1, -2, 2, 3, -6])
    def test_small_forms_match_a_brute_scan(self, t):
        # every form with 0 < |a| <= 6, |b|, |c| <= 6 and positive
        # nonsquare discriminant. A value at some (x, y) of the radius-20
        # box has a class whose fundamental solution has y <= 20, so a
        # search of 100 rows must say "yes"; "no" must be true in the box.
        answers = {"yes": 0, "no": 0, "unknown": 0}
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            f = BinaryForm(a, b, c)
            disc = f.discriminant
            if a == 0 or disc <= 0 or quadform._is_square(disc):
                continue
            got = quadform._pell_class_search(f, t, 100)
            answers[got.status] += 1
            if got.status == "yes":
                assert f.evaluate(*got.witness) == t, (f, t)
            else:
                assert t not in small_box_values(f, 20), (f, t)
        assert answers["yes"] > 100 and answers["no"] > 100, answers

    def test_walk_stops_past_the_limit(self):
        # 1766319049^2 - 61 * 226153980^2 = 1 is the least solution
        for limit in (226153980, 10**12, 10**4300):
            assert quadform.pell_fundamental(61, limit) == (1766319049, 226153980, 61)
        assert quadform.pell_fundamental(61, 10**6) is None


class TestRepresentsValue:
    def test_small_sweep_agrees_with_referee(self):
        checked, unknown = assert_referee_agrees(small_sweep())
        assert checked >= 3190
        assert unknown <= SWEEP_UNKNOWNS

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

    def test_one_square_root_per_scanned_row(self, monkeypatch):
        # one isqrt per row y = 0..search_bound, and at most four outside
        # the scan: the discriminant's square test, the walk's limit, the
        # walk's first partial quotient and the class bound
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def isqrt(self, n):
                calls.append(None)
                return math.isqrt(n)

        monkeypatch.setattr(quadform, "math", CountingMath())
        for rows in census_window():
            g = GramLattice.from_rows(rows)
            for bound in (1, 50):
                calls.clear()
                represents_value(g, -2, bound)
                assert len(calls) <= bound + 1 + 4, (rows, bound)


class TestBudget:
    @pytest.mark.parametrize("search_bound", sorted(CENSUS_UNKNOWNS))
    def test_a_larger_search_bound_decides_more(self, search_bound):
        window = census_window()
        default = [represents_value(GramLattice(r), -2) for r in window]
        wider = [represents_value(GramLattice(r), -2, search_bound) for r in window]
        assert sum(r.status == "unknown" for r in wider) <= CENSUS_UNKNOWNS[
            search_bound
        ]
        for rows, here, there in zip(window, default, wider):
            # a decided answer stays decided, and the same
            if here.status != "unknown":
                assert there == here, rows

    @pytest.mark.parametrize("grams", [census_window, small_sweep])
    def test_every_unknown_is_pell_exhausted(self, grams):
        for rows in grams():
            g = GramLattice(rows)
            for t in (0, -2):
                rep = represents_value(g, t)
                if rep.status == "unknown":
                    assert rep.reason == REASON_PELL, (rows, t)
