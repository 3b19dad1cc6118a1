import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.lattice import GramLattice, norm
from latcert import quadform
from latcert.matrices import mat_vec
from latcert.quadform import (
    REASON_CONTENT,
    REASON_DIVISOR,
    REASON_NONSQUARE_DISC,
    REASON_CYCLE,
    BinaryForm,
    PellSolution,
    Representation,
    automorph_generator,
    content,
    pell_fundamental,
    represents_value,
    represents_zero_nontrivially,
    to_binary_form,
)
from latcert.oracle import brute_values

from .conftest import (
    CONSTRUCTION_PATHS,
    brute_pell,
    deadline,
    even_indefinite_rank2_strategy,
    pell_by_squaring,
    rebuild,
)


class TestToBinaryForm:
    def test_paper_lattice(self, paper_lattice):
        assert to_binary_form(paper_lattice) == BinaryForm(4, 40, 4)

    def test_scaled_identity(self):
        g = GramLattice.from_rows([[2, 0], [0, 2]])
        assert to_binary_form(g) == BinaryForm(2, 0, 2)

    def test_doubles_off_diagonal(self):
        g = GramLattice.from_rows([[2, 3], [3, 2]])
        assert to_binary_form(g) == BinaryForm(2, 6, 2)

    def test_rejects_other_rank(self):
        with pytest.raises(ValueError):
            to_binary_form(GramLattice.from_rows([[2]]))

    @given(even_indefinite_rank2_strategy(), st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=200)
    def test_form_matches_norm(self, g, x, y):
        f = to_binary_form(g)
        assert f.evaluate(x, y) == norm(g, (x, y))


class TestContent:
    def test_paper_form(self):
        assert content(BinaryForm(4, 40, 4)) == 4

    def test_primitive(self):
        assert content(BinaryForm(1, 0, -1)) == 1

    def test_common_factor(self):
        assert content(BinaryForm(6, 12, 18)) == 6


class TestZeroRepresentation:
    def test_paper_primitive_part(self):
        assert not represents_zero_nontrivially(BinaryForm(1, 10, 1))

    def test_difference_of_squares(self):
        assert represents_zero_nontrivially(BinaryForm(1, 0, -1))

    def test_factorable_form(self):
        f = BinaryForm(2, 5, 2)
        assert represents_zero_nontrivially(f)
        assert f.evaluate(1, -2) == 0


class TestPellFundamental:
    @pytest.mark.parametrize("d,expected", [(24, (5, 1)), (2, (3, 2)), (3, (2, 1))])
    def test_small_cases(self, d, expected):
        sol = pell_fundamental(d, 10)
        assert (sol.x, sol.y) == expected

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            pell_fundamental(25, 10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pell_fundamental(0, 10)

    def test_large_fundamental_solution(self):
        sol = pell_fundamental(61, 10**9)
        assert sol.x * sol.x - 61 * sol.y * sol.y == 1
        assert sol.y == 226153980

    def test_walk_stops_past_the_limit(self):
        # 1766319049^2 - 61 * 226153980^2 = 1 is the least solution
        for limit in (226153980, 10**12, 10**4300):
            assert pell_fundamental(61, limit) == (1766319049, 226153980, 61)
        assert pell_fundamental(61, 10**6) is None

    @pytest.mark.parametrize("d", [d for d in range(2, 40) if int(d**0.5) ** 2 != d])
    def test_minimality_against_oracle(self, d):
        sol = pell_fundamental(d, 10**4)  # y = 1820 at d = 29 is the largest
        oracle = brute_pell(d, sol.y)
        assert oracle == (sol.x, sol.y)

    def test_equals_squaring_loop_at_every_limit(self):
        # the same unit, or None, at limits y - 1, y, y + 1 and 2*y
        for d in range(2, 3000):
            if math.isqrt(d) ** 2 == d:
                continue
            x, y = pell_by_squaring(d)
            assert pell_fundamental(d, 2 * y) == (x, y, d), d
            for limit in (y - 1, y, y + 1):
                sol = pell_fundamental(d, limit)
                expected = pell_by_squaring(d, limit)
                assert (None if sol is None else sol[:2]) == expected, (d, limit)

    def test_multi_word_units_equal_squaring_loop(self):
        # the first 50 seeded d in 10^6..10^9 whose least y is below
        # 10^300, against the referee at limits 10^4300, y - 1, y, y + 1
        rng = random.Random(1)
        units = {}
        while len(units) < 50:
            d = rng.randint(10**6, 10**9)
            if math.isqrt(d) ** 2 == d:
                continue
            sol = pell_by_squaring(d, 10**300)
            if sol is not None and sol[1] < 10**300:
                units[d] = sol
        # multi-word: 30 of the 4d and every y pass CPython's 30-bit digit
        assert sum(4 * d >= 2**30 for d in units) == 30
        assert min(y for _, y in units.values()) > 2**100
        for d, (x, y) in units.items():
            assert pell_fundamental(d, 10**4300) == (x, y, d), d
            for limit in (y - 1, y, y + 1):
                sol = pell_fundamental(d, limit)
                expected = pell_by_squaring(d, limit)
                assert (None if sol is None else sol[:2]) == expected, (d, limit)


class TestPellSolution:
    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    def test_every_construction_path_rejects_non_solution(self, path):
        with pytest.raises(ValueError, match="not a solution"):
            rebuild(path, PellSolution(5, 1, 24), x=6)

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    def test_every_construction_path_accepts_solution(self, path):
        sol = rebuild(path, PellSolution(5, 1, 24), x=49, y=10)
        assert sol == PellSolution(x=49, y=10, D=24)

    def test_immutable(self):
        sol = pell_fundamental(24, 10)
        with pytest.raises(AttributeError):
            sol.x = 7
        with pytest.raises(AttributeError):
            sol.note = "no instance dict"

    def test_equals_plain_tuple_of_fields(self):
        assert pell_fundamental(24, 10) == (5, 1, 24)

    def test_fields(self):
        assert PellSolution._fields == ("x", "y", "D")


class TestRepresentsValue:
    def test_paper_minus_two(self, paper_lattice):
        rep = represents_value(paper_lattice, -2)
        assert rep.status == "no" and rep.reason == REASON_CONTENT

    def test_paper_zero(self, paper_lattice):
        rep = represents_value(paper_lattice, 0)
        assert rep.status == "no" and rep.reason == REASON_NONSQUARE_DISC

    def test_square_discriminant_no_names_the_divisor_search(self):
        # -8x^2 + 11xy factors over Z; no Pell walk runs
        g = GramLattice.from_rows([[-16, 11], [11, 0]])
        assert represents_value(g, -2) == Representation("no", None, REASON_DIVISOR)

    def test_no_small_unit_value_is_decided_on_the_reduced_cycle(self):
        # -8x^2 + 11xy + 3y^2 takes neither 1 nor -1 with |x|, |y| <= 20;
        # it is reduced already, and -1 is found 11 rho-steps around its
        # cycle
        g = GramLattice.from_rows([[-16, 11], [11, 6]])
        f = BinaryForm(-8, 11, 3)
        assert quadform._rho_reduce(f, math.isqrt(f.discriminant)) == (f, [])
        rep = represents_value(g, -2)
        assert rep == Representation("yes", (52, -223), None, 11)
        assert norm(g, rep.witness) == -2

    @pytest.mark.parametrize("t", [4, 2, -1, 1, -4, 12, 2 * (10**14 + 31)])
    def test_rejects_targets_other_than_s2s(self, paper_lattice, t):
        # S2 asks only t = 0 and t = -2
        with pytest.raises(ValueError, match="t = 0 and t = -2 only"):
            represents_value(paper_lattice, t)

    def test_rejects_definite_form(self):
        g = GramLattice.from_rows([[2, 0], [0, 2]])
        with pytest.raises(ValueError, match="signature"):
            represents_value(g, -2)

    def test_square_discriminant_negative_value(self):
        g = GramLattice.from_rows([[2, 0], [0, -2]])
        rep = represents_value(g, -2)
        assert rep.status == "yes"
        assert norm(g, rep.witness) == -2

    def test_square_discriminant_against_box_oracle(self):
        # every Gram [[2*al*ga, b], [b, 2*be*de]] with b = al*de + be*ga:
        # its form is 2*(al*x + be*y)*(ga*x + de*y)
        grams = set()
        for al, be, ga, de in itertools.product(range(-3, 4), repeat=4):
            b = al * de + be * ga
            if b * b - 4 * al * be * ga * de > 0:
                grams.add(((2 * al * ga, b), (b, 2 * be * de)))
        assert len(grams) > 200
        for rows in grams:
            g = GramLattice.from_rows(rows)
            attained = brute_values(g, 12, (0, -2))
            for t in (0, -2):
                rep = represents_value(g, t)
                if rep.status == "yes":
                    assert norm(g, rep.witness) == t
                else:
                    assert rep.status == "no" and t not in attained

    def test_square_discriminant_with_huge_entries(self):
        # 2*(x + n*y)*(x + (n + 1)*y) = -2: the divisor search tries at
        # most the four divisors of -1, whatever the size of the entries
        n = 10**14 + 31
        g = GramLattice.from_rows([[2, 2 * n + 1], [2 * n + 1, 2 * n * (n + 1)]])
        with deadline(0.1, "the divisor search"):
            rep = represents_value(g, -2)
        assert rep.witness == (2 * n + 1, -2)
        assert norm(g, rep.witness) == -2

    @given(even_indefinite_rank2_strategy(-20, 20), st.sampled_from((0, -2)))
    @settings(max_examples=250, deadline=None)
    def test_agreement_with_box_oracle(self, g, t):
        rep = represents_value(g, t)
        attained = brute_values(g, 25, (t,))
        if rep.status == "yes":
            x, y = rep.witness
            assert norm(g, (x, y)) == t
            assert not (t == 0 and (x, y) == (0, 0))
        elif rep.status == "no":
            assert t not in attained
        else:
            # unknown is only acceptable when the oracle has no witness
            assert t not in attained

    def test_wrong_witness_is_a_runtime_error(self, monkeypatch):
        # the re-check of a "yes" witness is an explicit check, which
        # python -O keeps
        # [[2, 0], [0, -2]] has a square discriminant
        monkeypatch.setattr(quadform, "_divisor_search", lambda *_: (1, 0))
        g = GramLattice.from_rows([[2, 0], [0, -2]])
        with pytest.raises(RuntimeError, match=r"\(1, 0\) does not represent -2"):
            represents_value(g, -2)

    @pytest.mark.parametrize(
        "f, t, status, steps",
        [
            (BinaryForm(2, 1, -2), -1, "yes", 2),  # at (-1, 1)
            (BinaryForm(-3, 1, 5), -1, "yes", 4),  # at (-3, -2)
            # the cycle of D = 328 has period 6
            (BinaryForm(2, 0, -41), -1, "no", 6),
            # the unit of 149 has y1 = 2113761020, while the cycle of
            # D = 149 has period 10
            (BinaryForm(-5, 3, 7), 2, "no", 10),
            (BinaryForm(-5, 3, 7), -2, "no", 10),
            # 8 steps are not the period
            (BinaryForm(-5, 3, 7), -2, "unknown", 8),
        ],
    )
    def test_cycle_search_takes_any_leading_coefficient(self, f, t, status, steps):
        rep = quadform._cycle_search(f, t, 8 if status == "unknown" else 10)
        assert (rep.status, rep.steps) == (status, steps)
        if status == "yes":
            assert f.evaluate(*rep.witness) == t
        else:
            assert rep == Representation(status, None, REASON_CYCLE, steps)


class TestAutomorphGenerator:
    def test_paper_primitive_form(self):
        m = automorph_generator(BinaryForm(1, 10, 1))
        assert m == ((0, -1), (1, 10))

    def test_pell_conic_form(self):
        m = automorph_generator(BinaryForm(1, 0, -2))
        assert m == ((3, 4), (2, 3))

    @pytest.mark.parametrize(
        "f",
        [BinaryForm(1, 10, 1), BinaryForm(1, 0, -2), BinaryForm(1, 3, 1), BinaryForm(3, 2, -2)],
    )
    def test_never_plus_minus_identity(self, f):
        m = automorph_generator(f)
        assert m not in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))

    @pytest.mark.parametrize(
        "f", [BinaryForm(1, 10, 1), BinaryForm(1, 0, -2), BinaryForm(1, 3, 1)]
    )
    def test_preserves_form_on_box(self, f):
        m = automorph_generator(f)
        for x in range(-5, 6):
            for y in range(-5, 6):
                xx, yy = mat_vec(m, (x, y))
                assert f.evaluate(xx, yy) == f.evaluate(x, y)

    def test_preserves_gram_and_infinite_order(self, paper_lattice):
        # automorph of the primitive form is an isometry of the scaled lattice
        from latcert.isometry import is_isometry, order

        m = automorph_generator(BinaryForm(1, 10, 1))
        assert is_isometry(paper_lattice, m)
        assert order(m) is None

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            automorph_generator(BinaryForm(4, 40, 4))

    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            automorph_generator(BinaryForm(1, 0, -1))

    def test_scan_stops_at_the_square_of_the_bound(self):
        # the least u of t^2 - 8u^2 = 4 is 2: past 1^2, within 2^2
        assert automorph_generator(BinaryForm(1, 0, -2), 1) is None
        assert automorph_generator(BinaryForm(1, 0, -2), 2) == ((3, 4), (2, 3))


def test_pipeline_determinism(paper_lattice):
    results = {represents_value(paper_lattice, -2) for _ in range(5)}
    assert len(results) == 1
