"""The closed-form 2x2 kernels against the generic n x n code they
replaced, kept here as references: recursive-minor det and adjugate, the
closure-based n x m Smith normal form, and the Fraction-based induced
action. Results must be identical, U, D and V of the SNF included, so
`disc` prints the same generators."""

import itertools
import random
from fractions import Fraction

import pytest

from latcert import quadform
from latcert.discgroup import induced_action, smith_normal_form
from latcert.lattice import GramLattice
from latcert.matrices import adjugate, det, mat_mul, mat_vec

from .conftest import mat_pow

ALL_SMALL = [
    ((a, b), (c, d)) for a, b, c, d in itertools.product(range(-6, 7), repeat=4)
]


def ref_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def ref_transpose(m):
    return tuple(zip(*m))


def ref_mat_mul(a, b):
    bt = ref_transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def ref_mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def ref_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * ref_det(minor)
    return total


def ref_adjugate(m):
    n = len(m)
    if n == 1:
        return ((1,),)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i
            )
            row.append((-1) ** (i + j) * ref_det(minor))
        cof.append(tuple(row))
    return ref_transpose(tuple(cof))


def ref_smith_normal_form(m):
    """(U, D, V) by elementary row/column reduction, pivoting on the
    smallest nonzero entry, for any n x m shape."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0])
    u = [list(r) for r in ref_identity(rows)]
    v = [list(r) for r in ref_identity(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            a[i][k] -= q * a[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(rows):
            a[k][i] -= q * a[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(rows):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for k in range(cols):
                a[i][k] = -a[i][k]
            for k in range(rows):
                u[i][k] = -u[i][k]

    def freeze(x):
        return tuple(tuple(row) for row in x)

    return freeze(u), freeze(a), freeze(v)


def ref_induced_action(gram, m):
    """(matrix, factors): generator coordinates of m * w_j, with the dual
    generators w_j taken in exact rational arithmetic."""
    u, d, _ = ref_smith_normal_form(gram)
    ug = ref_mat_mul(u, gram)
    scale = ref_det(ug)
    ug_inv = tuple(tuple(Fraction(x, scale) for x in row) for row in ref_adjugate(ug))
    factors, gens, coord_rows = [], [], []
    for i in range(2):
        if d[i][i] > 1:
            factors.append(d[i][i])
            gens.append(tuple(ug_inv[r][i] for r in range(2)))
            coord_rows.append(ug[i])
    cols = []
    for w in gens:
        coords = ref_mat_vec(coord_rows, ref_mat_vec(m, w))
        assert all(c.denominator == 1 for c in coords)
        cols.append([int(c) for c in coords])
    matrix = tuple(tuple(col[i] for col in cols) for i in range(len(coord_rows)))
    return matrix, tuple(factors)


def seeded_matrices(seed, count, size):
    rng = random.Random(seed)
    return [
        tuple(tuple(rng.randint(-size, size) for _ in range(2)) for _ in range(2))
        for _ in range(count)
    ]


def random_shears(rng, size):
    """[[1, 0], [q, 1]] * [[1, r], [0, 1]], det 1, with |q|, |r| <= size."""
    q, r = (rng.randint(-size, size) for _ in range(2))
    return ((1, r), (q, q * r + 1))


def test_det_and_adjugate_match_reference_on_every_small_matrix():
    for m in ALL_SMALL:
        assert det(m) == ref_det(m)
        assert adjugate(m) == ref_adjugate(m)


def test_snf_matches_reference_on_every_small_matrix():
    for m in ALL_SMALL:
        assert tuple(smith_normal_form(m)) == ref_smith_normal_form(m), m


@pytest.mark.parametrize("size", [10**3, 10**12, 10**40])
def test_kernels_match_reference_on_seeded_large_matrices(size):
    mats = seeded_matrices(size, 400, size)
    for m, other in zip(mats, mats[1:] + mats[:1]):
        assert det(m) == ref_det(m)
        assert adjugate(m) == ref_adjugate(m)
        assert mat_mul(m, other) == ref_mat_mul(m, other)
        assert mat_vec(m, other[0]) == ref_mat_vec(m, other[0])
        assert tuple(smith_normal_form(m)) == ref_smith_normal_form(m), m


def small_isometries():
    """(gram, isometry) pairs: each even indefinite [[2a,b],[b,2c]] with
    |a|, |c| <= 6, 0 <= b <= 8 and a short automorph, with the generator,
    its square, its inverse, -I and the negatives of all four."""
    pairs = []
    for a, b, c in itertools.product(range(-6, 7), range(9), range(-6, 7)):
        if 4 * a * c - b * b >= 0:
            continue
        f = quadform.BinaryForm(a, b, c)
        cont = quadform.content(f)
        disc = f.discriminant // (cont * cont)
        if quadform._is_square(disc) or not any(
            quadform._is_square(disc * u * u + 4) for u in range(1, 200)
        ):
            continue
        gen = quadform.automorph_generator(
            quadform.BinaryForm(a // cont, b // cont, c // cont)
        )
        (p, q), (r, s) = gen
        inv = ((s, -q), (-r, p))
        gram = ((2 * a, b), (b, 2 * c))
        for m in (gen, mat_pow(gen, 2), inv, ((-1, 0), (0, -1))):
            pairs.append((gram, m))
            pairs.append((gram, tuple(tuple(-x for x in row) for row in m)))
    return pairs


def test_induced_action_matches_reference_on_small_lattices():
    pairs = small_isometries()
    assert len(pairs) > 2000
    for gram, m in pairs:
        action = induced_action(GramLattice(gram), m)
        assert (action.matrix, action.factors) == ref_induced_action(gram, m)


@pytest.mark.parametrize("size", [10, 10**5, 10**10])
def test_induced_action_matches_reference_on_large_lattices(size):
    # The datum and sigma^k in a seeded basis P: P^T G P, with entries up
    # to about 10^40 at the largest size, and P^-1 sigma^k P.
    rng = random.Random(size)
    gram, sigma = ((4, 20), (20, 4)), ((10, 1), (-1, 0))
    for k in range(1, 41):
        p = random_shears(rng, size)
        (p0, p1), (p2, p3) = p
        p_inv = ((p3, -p1), (-p2, p0))
        g = mat_mul(ref_transpose(p), mat_mul(gram, p))
        m = mat_mul(p_inv, mat_mul(mat_pow(sigma, k), p))
        action = induced_action(GramLattice(g), m)
        assert (action.matrix, action.factors) == ref_induced_action(g, m)
