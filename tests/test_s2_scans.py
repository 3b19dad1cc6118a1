"""S2's box scans against the 2-D scans they replaced, kept here as
references: the box-20 search for a value +-1 in
`_unimodular_to_leading_one`, the box-50 witness scan at the end of
`_decide_primitive` (both now one `_first_in_box` scan), and the
set-based congruence filter over the
moduli 3, 5, 8 and 16. Verdicts, witnesses and reason codes must be
identical; the new scans solve one quadratic per scan row instead of
visiting every point of the box. The Pell-class search is checked
against a reference that computes the whole fundamental unit before
capping its y scan at the search bound; the kernel stops the unit's
walk once the cap is sure to bind."""

import functools
import itertools
import math
import random

import pytest

from latcert import quadform
from latcert.lattice import GramLattice, norm
from latcert.matrices import from_rows, mat_mul, transpose
from latcert.quadform import (
    REASON_BOX,
    REASON_CONGRUENCE,
    REASON_CONTENT,
    REASON_DIVISOR,
    REASON_NONSQUARE_DISC,
    REASON_PELL,
    BinaryForm,
    Representation,
    represents_value,
)

from .conftest import census_window, small_sweep

REF_MODULI = (3, 5, 8, 16)
T_VALUES = (0, -2)  # S2's targets, the only ones represents_value takes
UNIMODULAR_BOX = 20
FALLBACK_BOX = 50
# the most _int_roots calls one query may make: two per scanned row of
# the box-20 search and one per scanned row of the box-50 scan, where
# only the rows -box..0 are scanned (the others hold mirror images)
ROOT_SOLVES_PER_QUERY = 2 * (UNIMODULAR_BOX + 1) + (FALLBACK_BOX + 1)


def ref_congruence_blocks(f, t):
    for k in REF_MODULI:
        if t % k not in ref_attained(BinaryForm(f.a % k, f.b % k, f.c % k), k):
            return True
    return False


@functools.lru_cache(maxsize=None)
def ref_attained(f, k):
    """The residues mod k of f; they depend only on f mod k."""
    return {f.evaluate(x, y) % k for x in range(k) for y in range(k)}


@functools.lru_cache(maxsize=16)
def ref_unimodular_to_leading_one(f, box):
    for r in range(-box, box + 1):
        for s in range(-box, box + 1):
            if math.gcd(r, s) != 1:
                continue
            if abs(f.evaluate(r, s)) != 1:
                continue
            _, xg, yg = quadform._extended_gcd(r, s)
            q, p = xg, -yg
            a2 = f.evaluate(r, s)
            b2 = 2 * f.a * r * p + f.b * (r * q + s * p) + 2 * f.c * s * q
            c2 = f.evaluate(p, q)
            return BinaryForm(a2, b2, c2), from_rows([[r, p], [s, q]])
    return None


@functools.lru_cache(maxsize=16)
def ref_first_witnesses(f0, box):
    """value -> the first (x, y) of the 2-D fallback scan (x ascending,
    then y ascending) at which f0 takes that value; one scan serves
    every target value of the same form."""
    first = {}
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            first.setdefault(f0.evaluate(x, y), (x, y))
    return first


def ref_pell_class_search(f, t, search_bound):
    disc = f.discriminant
    n = 4 * t
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
        for uu in ({u, -u} if u else {0}):
            if (uu - f.b * y) % 2 == 0:
                x = (uu - f.b * y) // 2
                if f.evaluate(x, y) == t:
                    return Representation(status="yes", witness=(x, y))
    if y_bound > search_bound:
        return Representation(status="unknown", reason=REASON_PELL)
    return Representation(status="no", reason=REASON_PELL)


def ref_decide_primitive(f0, t0, search_bound):
    if quadform._is_square(f0.discriminant):
        w = quadform._divisor_search(f0, t0)
        if w is not None:
            return Representation(status="yes", witness=w)
        return Representation(status="no", reason=REASON_DIVISOR)
    if f0.a == 1:
        return ref_pell_class_search(f0, t0, search_bound)
    if f0.c == 1:
        r = ref_pell_class_search(BinaryForm(f0.c, f0.b, f0.a), t0, search_bound)
        if r.status == "yes":
            return Representation(status="yes", witness=r.witness[::-1])
        return r
    if f0.a == -1 or f0.c == -1:
        neg = BinaryForm(-f0.a, -f0.b, -f0.c)
        return ref_decide_primitive(neg, -t0, search_bound)
    found = ref_unimodular_to_leading_one(f0, UNIMODULAR_BOX)
    if found is not None:
        f1, m = found
        r = ref_decide_primitive(f1, t0, search_bound)
        if r.status == "yes":
            u, v = r.witness
            x = m[0][0] * u + m[0][1] * v
            y = m[1][0] * u + m[1][1] * v
            return Representation(status="yes", witness=(x, y))
        return r
    w = ref_first_witnesses(f0, min(FALLBACK_BOX, search_bound)).get(t0)
    if w is not None:
        return Representation(status="yes", witness=w)
    return Representation(status="unknown", reason=REASON_BOX)


def ref_represents_value(g, t, search_bound=1000):
    f = quadform.to_binary_form(g)
    if t == 0:
        if quadform.represents_zero_nontrivially(f):
            return Representation(
                status="yes", witness=quadform.zero_witness(f)
            )
        return Representation(status="no", reason=REASON_NONSQUARE_DISC)
    cont = quadform.content(f)
    if t % cont != 0:
        return Representation(status="no", reason=REASON_CONTENT)
    if ref_congruence_blocks(f, t):
        return Representation(status="no", reason=REASON_CONGRUENCE)
    f0 = BinaryForm(f.a // cont, f.b // cont, f.c // cont)
    return ref_decide_primitive(f0, t // cont, search_bound)


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


def assert_same_representations(grams, t_values):
    for rows in grams:
        g = GramLattice.from_rows(rows)
        for t in t_values:
            assert represents_value(g, t) == ref_represents_value(g, t), (
                rows,
                t,
            )


def forms_of(grams):
    return [quadform.to_binary_form(GramLattice.from_rows(r)) for r in grams]


class TestIntRoots:
    def test_small_coefficients_against_direct_check(self):
        for qa, qb, qc in itertools.product(range(-6, 7), repeat=3):
            if qa == 0:
                continue
            # every integer root has |y| <= 1 + max(|qb|, |qc|) <= 7
            expected = [
                y for y in range(-50, 51) if qa * y * y + qb * y + qc == 0
            ]
            assert quadform._int_roots(qa, qb, qc) == expected, (qa, qb, qc)

    def test_large_roots_recovered(self):
        rng = random.Random(81)
        for _ in range(500):
            qa = rng.choice([-1, 1]) * rng.randint(1, 10**12)
            r1, r2 = (rng.randint(-(10**15), 10**15) for _ in range(2))
            qb, qc = -qa * (r1 + r2), qa * r1 * r2
            assert quadform._int_roots(qa, qb, qc) == sorted({r1, r2})
            # one off the constant term: whatever comes back is a root
            for y in quadform._int_roots(qa, qb, qc + 1):
                assert qa * y * y + qb * y + qc + 1 == 0


class TestUnimodularScan:
    def test_small_sweep_matches_2d_scan(self):
        for f in set(forms_of(small_sweep())):
            f0 = BinaryForm(*(x // quadform.content(f) for x in f))
            if quadform._is_square(f0.discriminant):
                continue
            got = quadform._unimodular_to_leading_one(f0, UNIMODULAR_BOX)
            assert got == ref_unimodular_to_leading_one(f0, UNIMODULAR_BOX), f0

    def test_transformed_unit_forms_match_2d_scan(self):
        # f1 with leading coefficient +-1, seen through a small unimodular
        # change of variables, has its value +-1 somewhere in the box
        rng = random.Random(82)
        checked = 0
        while checked < 400:
            a1 = rng.choice([1, -1])
            b1 = rng.randint(-(10**12), 10**12)
            c1 = rng.randint(-(10**12), 10**12)
            f1 = BinaryForm(a1, b1, c1)
            if quadform._is_square(f1.discriminant):
                continue
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            g, xg, yg = quadform._extended_gcd(p, q)
            if g != 1:
                continue
            # f(x, y) = f1(xg*x + yg*y, -q*x + p*y), an equivalent form
            a = f1.evaluate(xg, -q)
            c = f1.evaluate(yg, p)
            b = f1.evaluate(xg + yg, p - q) - a - c
            f = BinaryForm(a, b, c)
            if abs(a) == 1 or abs(c) == 1:
                continue
            got = quadform._unimodular_to_leading_one(f, UNIMODULAR_BOX)
            assert got is not None
            assert got == ref_unimodular_to_leading_one(f, UNIMODULAR_BOX), f
            checked += 1

    @pytest.mark.parametrize("box", [0, 1, 5])
    def test_small_boxes_match_2d_scan(self, box):
        for f in set(forms_of(small_sweep())):
            if quadform._is_square(f.discriminant):
                continue
            got = quadform._unimodular_to_leading_one(f, box)
            assert got == ref_unimodular_to_leading_one(f, box), f


def ref_first_in_box(f, targets, box):
    for r in range(-box, box + 1):
        for s in range(-box, box + 1):
            if f.evaluate(r, s) in targets:
                return (r, s)
    return None


class TestFirstInBox:
    @pytest.mark.parametrize("box", [0, 1, 5, 12])
    @pytest.mark.parametrize("targets", [(1, -1), (-2,), (4,), (-1, 6)])
    def test_small_sweep_matches_2d_scan(self, box, targets):
        for f in set(forms_of(small_sweep())):
            if quadform._is_square(f.discriminant):
                continue
            got = quadform._first_in_box(f, targets, box)
            assert got == ref_first_in_box(f, targets, box), (f, targets)


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


class TestPellClassSearch:
    def test_seeded_forms_match_full_unit_reference(self):
        # small search bounds make the cap bind, the large ones let the
        # whole unit be computed; both branches must be exercised
        rng = random.Random(4417)
        capped = 0
        queries = 0
        while queries < 1500:
            b, c = rng.randint(-40, 40), rng.randint(-3000, 3000)
            f = BinaryForm(1, b, c)
            disc = f.discriminant
            if disc <= 0 or quadform._is_square(disc):
                continue
            t = rng.choice((-1, 1, -2, 2, -3, -4, 6)) * rng.randint(1, 30)
            bound = rng.choice((1, 2, 3, 7, 20, 100, 400))
            got = quadform._pell_class_search(f, t, bound)
            assert got == ref_pell_class_search(f, t, bound), (f, t, bound)
            limit = math.isqrt(4 * bound**4 * disc // (16 * t * t)) + 1
            capped += quadform.pell_fundamental(disc, limit) is None
            queries += 1
        assert 100 < capped < queries - 100

    def test_walk_stops_past_the_limit(self):
        # 1766319049^2 - 61 * 226153980^2 = 1 is the least solution
        for limit in (226153980, 10**12, 10**4300):
            assert quadform.pell_fundamental(61, limit) == (1766319049, 226153980, 61)
        assert quadform.pell_fundamental(61, 10**6) is None


class TestRepresentsValue:
    def test_small_sweep_matches_reference(self):
        assert_same_representations(small_sweep(), T_VALUES)

    def test_seeded_grams_match_reference(self):
        assert_same_representations(seeded_grams(84, 500, 100, 300), T_VALUES)

    def test_huge_grams_match_reference(self):
        grams = seeded_grams(85, 60, 5 * 10**11, 10**12)
        assert_same_representations(grams, T_VALUES)

    def test_huge_grams_with_box_witness_match_reference(self):
        # [[-2, b], [b, 2c]] in a basis that moves e1 to a point w of the
        # box-50 scan: norm -2 at w and, b and c being huge, at -w only.
        # Past the box-20 search the box-50 scan has to return the first
        # witness in its order, not just any witness. Inside it, w leads
        # to the Pell-class search, whose reference would need the whole
        # unit of a discriminant near 10^24, so only the witness is checked.
        rng = random.Random(86)
        past_box_20 = 0
        while past_box_20 < 80:
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
            if max(abs(x), abs(y)) > UNIMODULAR_BOX:
                assert got == ref_represents_value(g, -2), (rows, (x, y))
                past_box_20 += 1

    def test_census_window_matches_reference_within_root_budget(
        self, monkeypatch
    ):
        calls = []
        real = quadform._int_roots

        def spy(qa, qb, qc):
            calls.append(None)
            return real(qa, qb, qc)

        monkeypatch.setattr(quadform, "_int_roots", spy)
        window = census_window()
        assert len(window) == 450
        for rows in window:
            g = GramLattice.from_rows(rows)
            for t in (0, -2):
                calls.clear()
                assert represents_value(g, t) == ref_represents_value(g, t)
                assert len(calls) <= ROOT_SOLVES_PER_QUERY, (rows, t)
