from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.isometry import (
    char_poly_rank2,
    is_isometry,
    order,
    polarization_orbit,
    preserves_positive_cone,
)
from latcert.lattice import GramLattice, inner, norm
from latcert.matrices import (
    identity,
    mat_mul,
    mat_pow,
    mat_vec,
    unimodular_inverse,
)

from .conftest import small_vectors

NEG_I = ((-1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))


class TestIsIsometry:
    def test_sigma(self, paper_lattice, sigma):
        assert is_isometry(paper_lattice, sigma)

    def test_identity(self, paper_lattice):
        assert is_isometry(paper_lattice, identity(2))

    def test_basis_swap(self, paper_lattice):
        assert is_isometry(paper_lattice, SWAP)

    def test_non_isometry(self, paper_lattice):
        assert not is_isometry(paper_lattice, ((1, 1), (0, 1)))

    def test_dimension_mismatch(self, paper_lattice):
        with pytest.raises(ValueError):
            is_isometry(paper_lattice, ((1,),))

    @given(st.data())
    @settings(max_examples=100)
    def test_norm_preservation(self, data):
        g = GramLattice.from_rows([[4, 20], [20, 4]])
        sigma = ((10, 1), (-1, 0))
        k = data.draw(st.integers(0, 5))
        v = data.draw(small_vectors(2))
        m = mat_pow(sigma, k)
        assert norm(g, mat_vec(m, v)) == norm(g, v)

    def test_group_closure(self, paper_lattice, sigma):
        cases = [sigma, SWAP, NEG_I, unimodular_inverse(sigma)]
        for a in cases:
            for b in cases:
                assert is_isometry(paper_lattice, mat_mul(a, b))
            assert is_isometry(paper_lattice, unimodular_inverse(a))


class TestPositiveCone:
    def test_sigma_preserves(self, paper_lattice, sigma):
        assert preserves_positive_cone(paper_lattice, sigma, (1, 0))
        assert inner(paper_lattice, mat_vec(sigma, (1, 0)), (1, 0)) == 20

    def test_identity_preserves(self, paper_lattice):
        assert preserves_positive_cone(paper_lattice, identity(2), (1, 0))

    def test_negation_flips(self, paper_lattice):
        assert not preserves_positive_cone(paper_lattice, NEG_I, (1, 0))

    def test_rejects_h_outside_cone(self, paper_lattice):
        with pytest.raises(ValueError):
            preserves_positive_cone(paper_lattice, identity(2), (1, -1))

    def test_multiplicative_flag(self, paper_lattice, sigma):
        h = (1, 0)
        cases = [sigma, NEG_I, SWAP, mat_mul(NEG_I, sigma)]
        for a in cases:
            for b in cases:
                flag_ab = preserves_positive_cone(paper_lattice, mat_mul(a, b), h)
                flag_a = preserves_positive_cone(paper_lattice, a, h)
                flag_b = preserves_positive_cone(paper_lattice, b, h)
                assert flag_ab == (flag_a == flag_b)


class TestOrder:
    def test_identity(self):
        assert order(identity(2)).finite == 1

    def test_negation(self):
        assert order(NEG_I).finite == 2

    def test_sigma_infinite(self, sigma):
        result = order(sigma)
        assert result.is_infinite
        assert mat_pow(sigma, 12) != identity(2)

    def test_rotation_order_four(self):
        assert order(((0, -1), (1, 0))).finite == 4

    def test_order_six(self):
        assert order(((1, -1), (1, 0))).finite == 6


class TestCharPoly:
    def test_sigma(self, sigma):
        char = char_poly_rank2(sigma)
        assert (char.trace, char.det) == (10, 1)
        root = char.dominant_root
        assert (root.p, root.q, root.d) == (Fraction(5), Fraction(2), 6)
        assert str(root) == "5 + 2*sqrt(6)"

    def test_identity(self):
        char = char_poly_rank2(identity(2))
        assert (char.trace, char.det) == (2, 1)
        assert char.dominant_root is None
        assert char.rational_root == 1

    def test_swap(self):
        char = char_poly_rank2(SWAP)
        assert (char.trace, char.det) == (0, -1)
        assert char.rational_root == 1


class TestPolarizationOrbit:
    def test_paper_orbit_segment(self, paper_lattice, sigma):
        orbit = polarization_orbit(paper_lattice, sigma, (1, 0), 2)
        assert orbit[0] == (0, (1, 0), 4)
        assert orbit[1] == (1, (10, -1), 20)
        assert orbit[2] == (2, (99, -10), 196)

    def test_degree_growth(self, paper_lattice, sigma):
        orbit = polarization_orbit(paper_lattice, sigma, (1, 0), 10)
        degrees = [d for _, _, d in orbit]
        assert degrees == sorted(degrees)
        assert len(set(degrees)) == len(degrees)

    def test_rejects_bad_k_max(self, paper_lattice, sigma):
        with pytest.raises(ValueError):
            polarization_orbit(paper_lattice, sigma, (1, 0), 0)
