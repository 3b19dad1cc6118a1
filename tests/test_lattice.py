from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.lattice import (
    DegenerateLatticeError,
    GramLattice,
    determinant,
    inner,
    is_even,
    is_primitive,
    norm,
    signature,
)
from latcert.matrices import from_rows, mat_mul, transpose

from .conftest import (
    CONSTRUCTION_PATHS,
    ELEMENTARY_OPS,
    nondegenerate_lattices,
    random_unimodular,
    rebuild,
    small_vectors,
)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GramLattice.from_rows([[1, 2], [3, 1]])

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateLatticeError):
            GramLattice.from_rows([[1, 1], [1, 1]])

    def test_rejects_rank_out_of_range(self):
        for n in (1, 3, 4, 5):
            with pytest.raises(ValueError, match=f"rank {n}"):
                GramLattice.from_rows(
                    [[1 if i == j else 0 for j in range(n)] for i in range(n)]
                )

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    def test_every_construction_path_rejects_degenerate(self, paper_lattice, path):
        with pytest.raises(DegenerateLatticeError, match="degenerate"):
            rebuild(path, paper_lattice, entries=((0, 0), (0, 0)))

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    def test_every_construction_path_accepts_valid(self, paper_lattice, path):
        g = rebuild(path, paper_lattice, entries=((2, 1), (1, -2)))
        assert type(g) is GramLattice
        assert g.entries == ((2, 1), (1, -2))

    @pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
    @pytest.mark.parametrize(
        "entries",
        [
            [[4.9, 20], [20, 4]],  # int() made this the paper Gram
            [["4", 20], [20, 4]],  # int() parsed the string
            [[True, 20], [20, 4]],
            [[4, 20], 5],
            5,
            None,
        ],
    )
    def test_every_construction_path_refuses_non_integers(
        self, paper_lattice, path, entries
    ):
        with pytest.raises(ValueError) as err:
            rebuild(path, paper_lattice, entries=entries)
        assert str(err.value) == "field gram must be a 2D integer array"

    def test_from_rows_refuses_non_integers_with_the_cli_message(self):
        for rows in ([[4.9, 20], [20, 4]], [["4", 20], [20, 4]]):
            with pytest.raises(ValueError, match="gram must be a 2D integer"):
                GramLattice.from_rows(rows)

    def test_lists_are_stored_as_tuples(self, paper_lattice):
        g = GramLattice([[4, 20], [20, 4]])
        assert g == paper_lattice and g.entries == ((4, 20), (20, 4))
        assert hash(g) == hash(paper_lattice)

    def test_from_rows_neither_coerces_nor_raises_type_error(self):
        assert from_rows([[4.9, "4"], [True, 2]]) == ((4.9, "4"), (True, 2))
        for rows in (5, [[1, 2], 3]):
            with pytest.raises(ValueError, match="sequence of rows"):
                from_rows(rows)

    def test_immutable(self, paper_lattice):
        with pytest.raises(AttributeError):
            paper_lattice.entries = ((2, 0), (0, -2))
        with pytest.raises(AttributeError):
            paper_lattice.note = "no instance dict"


class TestInner:
    def test_paper_gram_basis_pairing(self, paper_lattice):
        assert inner(paper_lattice, (1, 0), (0, 1)) == 20

    def test_zero_vector(self, paper_lattice):
        assert inner(paper_lattice, (0, 0), (7, -3)) == 0

    def test_diagonal_sum(self, paper_lattice):
        assert inner(paper_lattice, (1, 1), (1, 1)) == 48

    def test_dimension_mismatch(self, paper_lattice):
        with pytest.raises(ValueError, match="length"):
            inner(paper_lattice, (1, 0, 0), (0, 1))

    @pytest.mark.parametrize(
        "u, v, n",
        [((1, 0, 0), (0, 1), 3), ((1, 0), (1,), 1), ((1,), (1, 2, 3), 1)],
    )
    def test_dimension_mismatch_message(self, paper_lattice, u, v, n):
        message = f"vector length {n} does not match lattice rank 2"
        with pytest.raises(ValueError) as err:
            inner(paper_lattice, u, v)
        assert str(err.value) == message


class TestNorm:
    def test_h1_squared(self, paper_lattice):
        assert norm(paper_lattice, (1, 0)) == 4

    def test_zero(self, paper_lattice):
        assert norm(paper_lattice, (0, 0)) == 0

    def test_difference_vector(self, paper_lattice):
        # 4*(1 - 10 + 1)
        assert norm(paper_lattice, (1, -1)) == -32


class TestDeterminant:
    def test_paper_gram(self, paper_lattice):
        assert determinant(paper_lattice) == -384

    def test_identity(self):
        assert determinant(GramLattice.from_rows([[1, 0], [0, 1]])) == 1

    def test_diagonal(self):
        assert determinant(GramLattice.from_rows([[2, 0], [0, -2]])) == -4


class TestSignature:
    def test_paper_gram(self, paper_lattice):
        sig = signature(paper_lattice)
        assert (sig.positive, sig.negative) == (1, 1)

    def test_identity(self):
        sig = signature(GramLattice.from_rows([[1, 0], [0, 1]]))
        assert (sig.positive, sig.negative) == (2, 0)

    def test_diagonal_mixed(self):
        sig = signature(GramLattice.from_rows([[2, 0], [0, -2]]))
        assert (sig.positive, sig.negative) == (1, 1)

    def test_zero_diagonal_needs_pivot_repair(self):
        sig = signature(GramLattice.from_rows([[0, 1], [1, 0]]))
        assert (sig.positive, sig.negative) == (1, 1)


def reference_signature(rows):
    """(positive, negative) by exact rational congruence diagonalization,
    repairing a zero pivot by a basis swap or by e_i -> e_i + e_j."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                j = next(j for j in range(i + 1, n) if a[i][j] != 0)
                for k in range(n):
                    a[i][k] += a[j][k]
                for k in range(n):
                    a[k][i] += a[k][j]
        pivot = a[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            factor = a[j][i] / pivot
            for k in range(n):
                a[j][k] -= factor * a[i][k]
            for k in range(n):
                a[k][j] -= factor * a[k][i]
    return pos, neg


def test_signature_matches_diagonalization_on_small_grams():
    checked = 0
    for a, b, c in product(range(-6, 7), repeat=3):
        if a * c == b * b:
            continue
        sig = signature(GramLattice.from_rows([[a, b], [b, c]]))
        assert (sig.positive, sig.negative) == reference_signature(
            [[a, b], [b, c]]
        ), (a, b, c)
        checked += 1
    assert checked > 2000


class TestEvenness:
    def test_paper_gram(self, paper_lattice):
        assert is_even(paper_lattice)

    def test_odd_identity(self):
        assert not is_even(GramLattice.from_rows([[1, 0], [0, 1]]))

    def test_even_off_diagonal_odd(self):
        g = GramLattice.from_rows([[2, 3], [3, 2]])
        assert is_even(g)
        # oracle: all norms on a box are even
        assert all(
            norm(g, (x, y)) % 2 == 0
            for x in range(-6, 7)
            for y in range(-6, 7)
        )


class TestPrimitivity:
    def test_basis_vector(self):
        assert is_primitive((1, 0))

    def test_imprimitive(self):
        assert not is_primitive((2, 4))

    def test_sigma_image(self):
        assert is_primitive((10, -1))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_primitive((0, 0))


@given(nondegenerate_lattices(), st.data())
@settings(max_examples=150)
def test_symmetry_and_bilinearity(g, data):
    u = data.draw(small_vectors(2))
    v = data.draw(small_vectors(2))
    w = data.draw(small_vectors(2))
    a = data.draw(st.integers(-4, 4))
    b = data.draw(st.integers(-4, 4))
    assert inner(g, u, v) == inner(g, v, u)
    combo = tuple(a * x + b * y for x, y in zip(u, w))
    assert inner(g, combo, v) == a * inner(g, u, v) + b * inner(g, w, v)


@given(nondegenerate_lattices())
@settings(max_examples=150)
def test_signature_counts_sum_to_rank(g):
    sig = signature(g)
    assert sig.positive + sig.negative == 2


@given(nondegenerate_lattices())
@settings(max_examples=150)
def test_signature_1_1_iff_rank_2_and_negative_det(g):
    # every GramLattice has rank 2; quadform and isometry test for
    # signature (1,1) by det < 0 alone
    sig = signature(g)
    is_hyperbolic = (sig.positive, sig.negative) == (1, 1)
    assert is_hyperbolic == (determinant(g) < 0)


@given(nondegenerate_lattices(), st.data())
@settings(max_examples=100)
def test_even_implies_even_norms(g, data):
    if not is_even(g):
        return
    v = data.draw(small_vectors(2))
    assert norm(g, v) % 2 == 0


@given(nondegenerate_lattices(), ELEMENTARY_OPS)
@settings(max_examples=150)
def test_determinant_unimodular_invariance(g, ops):
    u = random_unimodular(2, ops)
    transformed = mat_mul(transpose(u), mat_mul(g.entries, u))
    assert determinant(GramLattice(transformed)) == determinant(g)
