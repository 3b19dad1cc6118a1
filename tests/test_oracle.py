import collections
import inspect
import json
import math
import random
from fractions import Fraction

import pytest

from latcert import oracle
from latcert.lattice import GramLattice, inner, norm
from latcert.quadform import (
    BinaryForm,
    automorph_generator,
    content,
    represents_value,
    to_binary_form,
)
from latcert.oracle import (
    MAX_BOX_RADIUS,
    brute_action_order,
    brute_low_degree,
    brute_values,
    required_box_radius,
    required_values_radius,
)

from .conftest import (
    brute_pell,
    census_window,
    deadline,
    identity,
    mat_pow,
    small_sweep,
)


class TestBruteValues:
    def test_paper_lattice_avoids_0_and_minus2(self, paper_lattice):
        values = brute_values(paper_lattice, 50, (0, -2))
        assert values == {}

    def test_basis_norms_present(self, paper_lattice):
        values = brute_values(paper_lattice, 1, (4, 48))
        assert 4 in values  # norm of each basis vector
        assert 48 in values  # norm of h1 + h2

    def test_minimum_positive_value(self, paper_lattice):
        values = brute_values(paper_lattice, 50, tuple(range(1, 5)))
        assert min(values) == 4

    def test_targets_are_required(self, paper_lattice):
        with pytest.raises(TypeError):
            brute_values(paper_lattice, 50)

    def test_rejects_large_rank(self):
        # no rank-3 lattice reaches the scan: GramLattice refuses it
        with pytest.raises(ValueError, match="rank 3"):
            GramLattice.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])


class TestBruteLowDegree:
    def test_paper_lattice(self, paper_lattice):
        classes = brute_low_degree(paper_lattice, (1, 0), 16)
        assert [c.coords for c in classes] == [(1, 0), (2, 0), (3, 0)]
        assert [c.degree for c in classes] == [4, 8, 12]
        assert all(c.multiple_of_h == k for k, c in enumerate(classes, start=1))

    def test_small_bound_is_empty(self, paper_lattice):
        assert brute_low_degree(paper_lattice, (1, 0), 4) == []

    def test_control_lattice_contains_non_multiple(self):
        g = GramLattice.from_rows([[4, 6], [6, 4]])
        classes = brute_low_degree(g, (1, 0), 16)
        found = [c for c in classes if c.coords == (0, 1)]
        assert found and found[0].multiple_of_h is None

    def test_box_wider_than_limit_refused(self, paper_lattice):
        assert required_box_radius(paper_lattice, (1, 0), 400) == 206
        with pytest.raises(ValueError) as refused:
            brute_low_degree(paper_lattice, (1, 0), 400)
        assert str(refused.value) == (
            "degree bound 400 needs a low-degree box radius of 206; "
            f"the limit is {MAX_BOX_RADIUS}"
        )

    def test_box_at_limit_runs(self, paper_lattice):
        # 392 is the largest degree bound whose box fits under the limit
        assert required_box_radius(paper_lattice, (1, 0), 392) == 199
        assert required_box_radius(paper_lattice, (1, 0), 393) > MAX_BOX_RADIUS
        got = [
            (c.coords, c.degree, c.square, c.multiple_of_h)
            for c in brute_low_degree(paper_lattice, (1, 0), 392)
        ]
        assert got == reference_low_degree(paper_lattice, (1, 0), 392, 199)

    def test_has_no_radius_parameter(self):
        params = inspect.signature(brute_low_degree).parameters
        assert list(params) == ["g", "h", "bound"]


class TestRequiredValuesRadius:
    @pytest.mark.parametrize(
        "rows, t, radius",
        [
            ([[4, 20], [20, 4]], 0, 1),  # D = 1536 is not a square
            ([[4, 20], [20, 4]], -2, 1),  # content 4 does not divide -2
            ([[0, 1], [1, 0]], 0, None),  # D = 4: 0 is represented
            ([[2, 0], [0, -2]], -2, None),  # D0 = 4 is a square
            ([[2, 1], [1, 2]], -2, None),  # definite: D0 = -3
            # x^2 - 3y^2 = -2 with (s, u) = (4, 1): |x| <= 3, |y| <= 2
            ([[1, 0], [0, -3]], -2, 3),
            # 2x^2 - 10y^2 = -2 with (s, u) = (38, 6): |x| <= 5, |y| <= 3
            ([[4, 0], [0, -10]], -2, 5),
            # the least u of s^2 - 244u^2 = 4 is 226,153,980
            ([[2, 0], [0, -122]], -2, None),
            # the box for (s, u) = (130, 8) has radius 201
            ([[2, 1], [1, -64]], -2, None),
        ],
    )
    def test_radius(self, rows, t, radius):
        assert required_values_radius(GramLattice(rows), t) == radius

    def test_unit_search_stops_at_its_cap(self, monkeypatch):
        g = GramLattice([[4, 0], [0, -10]])  # the least u is 6
        monkeypatch.setattr(oracle, "UNIT_SEARCH_CAP", 5)
        assert required_values_radius(g, -2) is None
        monkeypatch.setattr(oracle, "UNIT_SEARCH_CAP", 6)
        assert required_values_radius(g, -2) == 5

    def test_search_stops_where_the_box_is_too_wide(self):
        # the box is wider than MAX_BOX_RADIUS already at u = 1; running
        # the search up to UNIT_SEARCH_CAP took about 1.5 s on this Gram
        g = GramLattice([[2, 1], [1, -2 * (10**4000 + 7)]])
        with deadline(0.5, "the unit search"):
            assert required_values_radius(g, -2) is None

    def test_decides_census_window_and_sweep(self):
        # Where the referee gives a radius, its box scan is S2's answer at
        # -2: no decided represents_value answer contradicts it, and a
        # scan of the widest box finds nothing the derived box missed.
        coverage = collections.Counter()
        for family, grams in (("census", census_window()), ("sweep", small_sweep())):
            for rows in grams:
                g = GramLattice(rows)
                status = represents_value(g, -2).status
                radius = required_values_radius(g, -2)
                if radius is None:
                    coverage[family, "none"] += 1
                    continue
                found = brute_values(g, radius, (-2,))
                answer = "yes" if found else "no"
                assert status in ("unknown", answer), (rows, status)
                if found:
                    assert norm(g, found[-2]) == -2
                else:
                    assert brute_values(g, MAX_BOX_RADIUS, (-2,)) == {}, rows
                coverage[family, answer] += 1
        assert coverage == {
            # 27 of the 103 "unknown"s are decided: 3 "yes" and 24 "no"
            ("census", "yes"): 39,
            ("census", "no"): 261,
            ("census", "none"): 150,
            # 38 of the 106 "unknown"s are decided, all "no"
            ("sweep", "yes"): 593,
            ("sweep", "no"): 959,
            ("sweep", "none"): 809,
        }


def random_grams(seed, count, indefinite=False):
    """Seeded random nondegenerate even 2x2 Gram matrices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, c = 2 * rng.randint(-12, 12), 2 * rng.randint(-12, 12)
        b = rng.randint(-15, 15)
        det_g = a * c - b * b
        if det_g < 0 or (det_g > 0 and not indefinite):
            out.append(GramLattice.from_rows([[a, b], [b, c]]))
    return out


def reference_values(g, radius):
    """The value scan through lattice.norm, vector by vector."""
    box = range(-radius, radius + 1)
    out = {}
    for v in ((x, y) for x in box for y in box):
        t = norm(g, v)
        if any(v) and t not in out:
            out[t] = v
    return out


def reference_target_values(g, radius, targets):
    """brute_values with targets as a 2-D scan: every point of the box in
    lexicographic order, stopping once each target has its witness."""
    (a, b), (_, c) = g.entries
    box = range(-radius, radius + 1)
    keep = set(targets)
    out = {}
    for x in box:
        for y in box:
            t = a * x * x + 2 * b * x * y + c * y * y
            if t not in out and (x or y) and t in keep:
                out[t] = (x, y)
                if len(out) == len(keep):
                    return out
    return out


def grams_with_zeros(seed, count):
    """Seeded nondegenerate 2x2 Grams, odd entries allowed, with a, b or
    c (or both a and c) set to 0 in most draws."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        zeros = rng.choice(["", "a", "b", "c", "ac"])
        a, b, c = (0 if k in zeros else v for k, v in zip("abc", (a, b, c)))
        if a * c - b * b:
            out.append(GramLattice.from_rows([[a, b], [b, c]]))
    return out


def reference_low_degree(g, h, bound, radius):
    """(coords, degree, square, multiple) over the box through
    lattice.inner and lattice.norm, sorted by (degree, coords)."""
    nh = norm(g, h)
    out = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            d = inner(g, (x, y), h)
            if 0 < d < bound and norm(g, (x, y)) > 0:
                m = d // nh
                multiple = m if (m * h[0], m * h[1]) == (x, y) else None
                out.append(((x, y), d, norm(g, (x, y)), multiple))
    return sorted(out, key=lambda row: (row[1], row[0]))


def fraction_box_radius(g, h, bound):
    """required_box_radius in rational arithmetic, as a reference."""

    def ceil_sqrt(q):
        s = math.isqrt(q.numerator * q.denominator)
        if s * s < q.numerator * q.denominator:
            s += 1
        return -(-s // q.denominator)

    nh = norm(g, h)
    w = (inner(g, (1, 0), h), inner(g, (0, 1), h))
    k = math.gcd(*w)
    v0 = (w[1] // k, -w[0] // k)
    t_max = Fraction(bound - 1, nh)
    s_max = ceil_sqrt(t_max * t_max * Fraction(nh, -norm(g, v0)))
    return 1 + max(
        ceil_sqrt((t_max * abs(h[i]) + s_max * abs(v0[i])) ** 2)
        for i in range(2)
    )


class TestScansAgainstReference:
    def test_values_with_targets_match_full_scan(self):
        rng = random.Random(5)
        for g in random_grams(5, 60):
            radius = rng.randint(1, 9)
            full = reference_values(g, radius)
            targets = tuple(rng.randint(-40, 40) for _ in range(rng.randint(1, 4)))
            got = brute_values(g, radius, targets)
            assert got == {t: v for t, v in full.items() if t in targets}

    def test_values_with_targets_match_2d_scan(self):
        rng = random.Random(6)
        grams = grams_with_zeros(6, 600)
        abc = [(g.entries[0][0], g.entries[0][1], g.entries[1][1]) for g in grams]
        assert all(any(e[i] == 0 for e in abc) for i in range(3))
        for i, g in enumerate(grams):
            radius = 1 + i % 15
            (a, b), (_, c) = g.entries
            # half the targets are norms of box points, the rest arbitrary
            hits = [
                a * x * x + 2 * b * x * y + c * y * y
                for x, y in (
                    (rng.randint(-radius, radius), rng.randint(-radius, radius))
                    for _ in range(2)
                )
            ]
            targets = (0, -2, *hits, rng.randint(-100, 100))
            got = brute_values(g, radius, targets)
            assert got == reference_target_values(g, radius, targets), (
                g.entries,
                radius,
                targets,
            )

    @pytest.mark.parametrize("radius", [50, 200])
    def test_values_with_targets_on_bundled_documents(self, data_dir, radius):
        for path in sorted(data_dir.glob("*.json")):
            g = GramLattice.from_rows(json.loads(path.read_text())["gram"])
            for targets in ((0, -2), (4, 0, -2, 2, -4)):
                got = brute_values(g, radius, targets)
                assert got == reference_target_values(g, radius, targets), (
                    path.name,
                    targets,
                )

    def test_low_degree_list_order_and_multiples(self):
        rng = random.Random(4)
        checked = 0
        for g in random_grams(4, 150, indefinite=True):
            h = (rng.randint(-3, 3), rng.randint(-3, 3))
            if h == (0, 0) or norm(g, h) <= 0:
                continue
            bound = rng.randint(1, 40)
            # a wider box finds no class that the derived box misses
            radius = required_box_radius(g, h, bound) + rng.randint(1, 3)
            got = [
                (c.coords, c.degree, c.square, c.multiple_of_h)
                for c in brute_low_degree(g, h, bound)
            ]
            assert got == reference_low_degree(g, h, bound, radius)
            checked += 1
        assert checked > 30

    def test_box_radius_matches_rational_reference(self):
        rng = random.Random(5)
        checked = 0
        for g in random_grams(5, 300, indefinite=True):
            h = (rng.randint(-9, 9), rng.randint(-9, 9))
            if h == (0, 0) or norm(g, h) <= 0:
                continue
            for bound in (1, 2, 3, 16, 17, 100, 10**6, 10**30):
                assert required_box_radius(g, h, bound) == fraction_box_radius(
                    g, h, bound
                )
                checked += 1
        assert checked > 300


class TestBrutePell:
    def test_d24(self):
        assert brute_pell(24, 10) == (5, 1)

    def test_d2(self):
        assert brute_pell(2, 10) == (3, 2)

    def test_d61_not_found_in_small_range(self):
        assert brute_pell(61, 10) is None

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            brute_pell(16, 10)


class TestBruteActionOrder:
    def test_identity(self, paper_lattice):
        assert brute_action_order(paper_lattice, identity(2)) == 1

    def test_negation(self, paper_lattice):
        assert brute_action_order(paper_lattice, ((-1, 0), (0, -1))) == 2

    def test_negation_on_two_torsion(self):
        g = GramLattice.from_rows([[2, 0], [0, -2]])
        assert brute_action_order(g, ((-1, 0), (0, -1))) == 1

    def test_sigma_matches_structured_path(self, paper_lattice, sigma):
        from latcert.discgroup import action_order, induced_action

        brute = brute_action_order(paper_lattice, sigma)
        structured = action_order(induced_action(paper_lattice, sigma))
        assert brute == structured == 4

    @pytest.mark.parametrize(
        "gram", [[[4, 20], [20, 4]], [[4, 6], [6, 4]], [[4, 2], [2, -12]]]
    )
    def test_automorph_powers_match_structured_path(self, gram):
        from latcert.discgroup import action_order, induced_action

        g = GramLattice.from_rows(gram)
        f = to_binary_form(g)
        c = content(f)
        gen = automorph_generator(BinaryForm(f.a // c, f.b // c, f.c // c))
        for k in range(1, 4):
            m = mat_pow(gen, k)
            assert brute_action_order(g, m) == action_order(induced_action(g, m))

    def test_rejects_non_isometry(self, paper_lattice):
        with pytest.raises(ValueError):
            brute_action_order(paper_lattice, ((2, 0), (0, 1)))
