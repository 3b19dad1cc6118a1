import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.discgroup import (
    DiscriminantGroup,
    SmithDecomposition,
    action_order,
    discriminant_group,
    induced_action,
    smith_normal_form,
)
from latcert.lattice import GramLattice
from latcert.matrices import det, from_rows, mat_mul
from latcert.oracle import brute_action_order
from latcert.quadform import automorph_generator, primitive_part, to_binary_form

from .conftest import (
    compose,
    identity,
    identity_action,
    is_identity,
    nondegenerate_lattices,
    reduced,
    unimodular_inverse,
)
from .test_rank2_kernels import ref_smith_normal_form


def int_matrices(lo=-50, hi=50):
    """2x2 integer matrices, the only shape smith_normal_form takes."""
    row = st.lists(st.integers(lo, hi), min_size=2, max_size=2)
    return st.lists(row, min_size=2, max_size=2)


def assert_valid_snf(matrix, snf):
    """U * M * V = D with V from the reference reduction, which keeps
    the V that smith_normal_form does not."""
    rows, cols = len(matrix), len(matrix[0])
    v = ref_smith_normal_form(matrix)[2]
    assert mat_mul(mat_mul(snf.U, from_rows(matrix)), v) == snf.D
    assert abs(det(snf.U)) == 1
    assert abs(det(v)) == 1
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.D[i][j] == 0
    diag = snf.diagonal
    nonzero = [d for d in diag if d != 0]
    # zeros last, each entry divides the next, all nonnegative
    assert list(diag[: len(nonzero)]) == list(nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert a > 0 and b % a == 0


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(identity(2))
        assert snf.D == identity(2)

    def test_paper_gram(self):
        snf = smith_normal_form(((4, 20), (20, 4)))
        assert snf.diagonal == (4, 96)
        assert_valid_snf([[4, 20], [20, 4]], snf)

    def test_coprime_diagonal(self):
        snf = smith_normal_form(((2, 0), (0, 3)))
        assert snf.diagonal == (1, 6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            smith_normal_form(())

    def test_keeps_u_and_d_only(self):
        assert SmithDecomposition._fields == ("U", "D")

    @given(int_matrices(lo=-9, hi=9))
    @settings(max_examples=200, deadline=None)
    def test_random_matrices(self, rows):
        if all(all(x == 0 for x in r) for r in rows):
            return
        snf = smith_normal_form(rows)
        assert_valid_snf(rows, snf)


class TestDiscriminantGroup:
    def test_paper_lattice(self, paper_lattice):
        group = discriminant_group(paper_lattice)
        assert group.invariant_factors == (4, 96)
        assert group.order == 384

    def test_unimodular_is_trivial(self):
        group = discriminant_group(GramLattice.from_rows([[0, 1], [1, 0]]))
        assert group.invariant_factors == ()
        assert group.order == 1

    def test_frame_fields(self):
        assert DiscriminantGroup._fields == ("invariant_factors", "columns", "scale")

    def test_two_torsion(self):
        group = discriminant_group(GramLattice.from_rows([[2, 0], [0, -2]]))
        assert group.invariant_factors == (2, 2)

    def test_generators_scale_into_lattice(self, paper_lattice):
        # generator j is columns[j] / scale, so d_j times it is integral
        group = discriminant_group(paper_lattice)
        for d, column in zip(group.invariant_factors, group.columns):
            assert all(d * x % group.scale == 0 for x in column)

    @given(nondegenerate_lattices())
    @settings(max_examples=150)
    def test_order_equals_abs_det(self, g):
        from latcert.lattice import determinant

        assert discriminant_group(g).order == abs(determinant(g))


class TestInducedAction:
    def test_identity(self, paper_lattice):
        action = induced_action(paper_lattice, identity(2))
        assert is_identity(action)

    def test_negation_has_order_at_most_two(self, paper_lattice):
        action = induced_action(paper_lattice, ((-1, 0), (0, -1)))
        assert action_order(action) in (1, 2)

    def test_negation_on_two_torsion_is_identity(self):
        g = GramLattice.from_rows([[2, 0], [0, -2]])
        action = induced_action(g, ((-1, 0), (0, -1)))
        assert is_identity(action)
        assert action_order(action) == 1

    def test_rejects_non_isometry(self, paper_lattice):
        with pytest.raises(ValueError):
            induced_action(paper_lattice, ((2, 0), (0, 1)))

    def test_sigma_action_cross_checked_by_oracle(self, paper_lattice, sigma):
        from latcert.oracle import brute_action_order

        action = induced_action(paper_lattice, sigma)
        assert action.factors == (4, 96)
        n = action_order(action)
        assert n == brute_action_order(paper_lattice, sigma)

    def test_functoriality(self, paper_lattice, sigma):
        swap = ((0, 1), (1, 0))
        for a, b in [(sigma, sigma), (sigma, swap), (swap, unimodular_inverse(sigma))]:
            composed = induced_action(paper_lattice, mat_mul(a, b))
            product = compose(
                induced_action(paper_lattice, a), induced_action(paper_lattice, b)
            )
            assert composed.factors == product.factors
            assert reduced(composed) == reduced(product)


class TestActionOrder:
    def test_identity_action(self):
        assert action_order(identity_action((4, 96))) == 1

    def test_trivial_group(self):
        assert action_order(identity_action((1, 1))) == 1

    @pytest.mark.parametrize(
        "rows,factors,n",
        [([[-12, 1], [1, 12]], (1, 145), 2), ([[-12, 2], [2, 4]], (2, 26), 6)],
    )
    def test_automorph_order_need_not_divide_the_exponent(self, rows, factors, n):
        # n divides |Aut(L*/L)| (phi(145) = 112 for Z/145), not the
        # group exponent, so testing only divisors of the exponent
        # would not bound action_order
        g = GramLattice.from_rows(rows)
        m = automorph_generator(primitive_part(to_binary_form(g))[0])
        action = induced_action(g, m)
        assert action.factors == factors
        assert action_order(action) == brute_action_order(g, m) == n
        assert factors[-1] % n != 0
