import pytest

from latcert.lattice import GramLattice
from latcert.quadform import (
    BinaryForm,
    automorph_generator,
    content,
    to_binary_form,
)
from latcert.matrices import identity, mat_pow
from latcert.oracle import (
    brute_action_order,
    brute_low_degree,
    brute_pell,
    brute_values,
    required_box_radius,
)


class TestBruteValues:
    def test_paper_lattice_avoids_0_and_minus2(self, paper_lattice):
        values = brute_values(paper_lattice, 50)
        assert 0 not in values
        assert -2 not in values

    def test_basis_norms_present(self, paper_lattice):
        values = brute_values(paper_lattice, 1)
        assert 4 in values  # norm of each basis vector
        assert 48 in values  # norm of h1 + h2

    def test_minimum_positive_value(self, paper_lattice):
        values = brute_values(paper_lattice, 50)
        assert min(t for t in values if t > 0) == 4

    def test_rejects_large_rank(self):
        g = GramLattice.from_rows(
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        )
        with pytest.raises(ValueError):
            brute_values(g, 3)


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

    def test_insufficient_box_rejected(self, paper_lattice):
        needed = required_box_radius(paper_lattice, (1, 0), 16)
        with pytest.raises(ValueError, match="insufficient"):
            brute_low_degree(paper_lattice, (1, 0), 16, radius=needed - 1)


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
