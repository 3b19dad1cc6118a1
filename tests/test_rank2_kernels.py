"""The closed-form 2x2 kernels against the generic code they replaced,
kept here as references: recursive-minor det and adjugate, the
closure-based n x m Smith normal form, the Fraction-based induced
action, the compose-and-compare action order, the per-degree S4
enumeration and the set-based multiple test. Results must be identical,
U, D and V of the SNF included, so `disc` prints the same generators."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from latcert import quadform
from latcert.certificate import _degree_window, enumerate_low_degree
from latcert.discgroup import (
    DiscAction,
    action_order,
    induced_action,
    smith_normal_form,
)
from latcert.isometry import char_poly_rank2, is_isometry, order
from latcert.lattice import GramLattice, LowDegreeClass, inner, multiple_of, norm
from latcert.matrices import adjugate, det, mat_mul, mat_vec

from .conftest import compose, is_identity, mat_pow

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


def nontrivial_block(action):
    """(matrix, factors) cut to the rows and columns whose factor is > 1,
    the frame of ref_induced_action."""
    keep = [i for i, d in enumerate(action.factors) if d > 1]
    matrix = tuple(tuple(action.matrix[i][j] for j in keep) for i in keep)
    return matrix, tuple(action.factors[i] for i in keep)


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
        u, d, v = ref_smith_normal_form(m)
        assert ref_mat_mul(ref_mat_mul(u, m), v) == d, m  # singular m included
        assert tuple(smith_normal_form(m)) == (u, d), m


NOT_2X2 = {
    "1x1": ((1,),),
    "3x3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "2x3": ((1, 0, 0), (0, 1, 0)),
}
PAPER = GramLattice.from_rows([[4, 20], [20, 4]])


@pytest.mark.parametrize("shape", sorted(NOT_2X2))
@pytest.mark.parametrize(
    "kernel",
    [
        functools.partial(is_isometry, PAPER),
        order,
        char_poly_rank2,
        smith_normal_form,
    ],
    ids=["is_isometry", "order", "char_poly_rank2", "smith_normal_form"],
)
def test_kernels_refuse_a_matrix_that_is_not_2x2(kernel, shape):
    # each kernel unpacks its matrix as matrices.det does
    with pytest.raises(ValueError):
        kernel(NOT_2X2[shape])


@pytest.mark.parametrize("size", [10**3, 10**12, 10**40])
def test_kernels_match_reference_on_seeded_large_matrices(size):
    mats = seeded_matrices(size, 400, size)
    for m, other in zip(mats, mats[1:] + mats[:1]):
        assert det(m) == ref_det(m)
        assert adjugate(m) == ref_adjugate(m)
        assert mat_mul(m, other) == ref_mat_mul(m, other)
        assert mat_vec(m, other[0]) == ref_mat_vec(m, other[0])
        assert tuple(smith_normal_form(m)) == ref_smith_normal_form(m)[:2], m


@functools.cache
def small_isometries():
    """(gram, isometry) pairs: each even indefinite [[2a,b],[b,2c]] with
    |a|, |c| <= 6, 0 <= b <= 8 and a short automorph, with the generator,
    its square, its inverse, -I and the negatives of all four, and the
    improper swap (a = c) or diag(1, -1) (b = 0) with its negative."""
    pairs = []
    for a, b, c in itertools.product(range(-6, 7), range(9), range(-6, 7)):
        if 4 * a * c - b * b >= 0:
            continue
        f = quadform.BinaryForm(a, b, c)
        cont = quadform.content(f)
        disc = f.discriminant // (cont * cont)
        if quadform._is_square(disc):
            continue
        # u <= 14^2 = 196 keeps the forms with u < 200, as none has its
        # least u in 197..199
        gen = quadform.automorph_generator(
            quadform.BinaryForm(a // cont, b // cont, c // cont), 14
        )
        if gen is None:
            continue
        (p, q), (r, s) = gen
        inv = ((s, -q), (-r, p))
        gram = ((2 * a, b), (b, 2 * c))
        improper = [((0, 1), (1, 0))] if a == c else []
        improper += [((1, 0), (0, -1))] if b == 0 else []
        for m in (gen, mat_pow(gen, 2), inv, ((-1, 0), (0, -1)), *improper):
            pairs.append((gram, m))
            pairs.append((gram, tuple(tuple(-x for x in row) for row in m)))
    return pairs


def test_induced_action_matches_reference_on_small_lattices():
    pairs = small_isometries()
    assert len(pairs) > 2000
    for gram, m in pairs:
        action = induced_action(GramLattice(gram), m)
        assert nontrivial_block(action) == ref_induced_action(gram, m)
        # well-defined on Z/d1 + Z/d2, so reducing row 0 mod d1 is exact
        d1, d2 = action.factors
        assert action.matrix[1][0] % (d2 // d1) == 0, (gram, m)


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
        assert nontrivial_block(action) == ref_induced_action(g, m)


def ref_action_order(a):
    """Least n <= |A| with a^n = id, composing unreduced matrices."""
    current = a
    for n in range(1, math.prod(a.factors) + 1):
        if is_identity(current):
            return n
        current = compose(current, a)
    return None


def ref_multiple_of(c, h):
    for m_cand in set(
        ci // hi for ci, hi in zip(c, h) if hi != 0 and ci % hi == 0
    ):
        if all(ci == m_cand * hi for ci, hi in zip(c, h)):
            return m_cand
    return None


def ref_enumerate_low_degree(g, h, bound):
    """One base point and parabola per degree d, squares from norm."""
    w = mat_vec(g.entries, h)
    gcd_w = math.gcd(*w)
    direction = (w[1] // gcd_w, -w[0] // gcd_w)
    a_coef = norm(g, direction)
    _, x0, y0 = quadform._extended_gcd(w[0], w[1])
    out = []
    for d in range(1, bound):
        if d % gcd_w != 0:
            continue
        scale = d // gcd_w
        base = (x0 * scale, y0 * scale)
        b_coef = 2 * inner(g, base, direction)
        c_coef = norm(g, base)
        disc = b_coef * b_coef - 4 * a_coef * c_coef
        if disc <= 0:
            continue
        k_lo, k_hi = _degree_window(a_coef, b_coef, disc)
        for k in range(k_lo, k_hi + 1):
            if a_coef * k * k + b_coef * k + c_coef <= 0:
                continue
            c = (base[0] + k * direction[0], base[1] + k * direction[1])
            out.append(LowDegreeClass(c, d, norm(g, c), ref_multiple_of(c, h)))
    out.sort(key=lambda cls: (cls.degree, cls.coords))
    return out


def up_to_six(n):
    """action_order's answer for a least order n: n up to 6, else None."""
    return n if n is not None and n <= 6 else None


def test_action_order_matches_reference_on_small_lattices():
    # the Grams of content 6, 8, ... give orders past 6 (12 for
    # [[-12, 6], [6, 12]]); action_order is bounded by 6 on S5's path only
    for gram, m in small_isometries():
        action = induced_action(GramLattice(gram), m)
        assert action_order(action) == up_to_six(ref_action_order(action)), (gram, m)


@pytest.mark.parametrize("size", [10, 10**5, 10**10])
def test_action_order_matches_reference_on_large_lattices(size):
    rng = random.Random(size)
    gram, sigma = ((4, 20), (20, 4)), ((10, 1), (-1, 0))
    for k in range(1, 41):
        p = random_shears(rng, size)
        (p0, p1), (p2, p3) = p
        g = mat_mul(ref_transpose(p), mat_mul(gram, p))
        m = mat_mul(((p3, -p1), (-p2, p0)), mat_mul(mat_pow(sigma, k), p))
        action = induced_action(GramLattice(g), m)
        assert action_order(action) == ref_action_order(action) == 4 // math.gcd(k, 4)


def test_action_order_matches_reference_on_cyclic_and_trivial_groups():
    trivial = DiscAction(((0, 0), (0, 0)), (1, 1))
    assert action_order(trivial) == ref_action_order(trivial) == 1
    for d in range(1, 50):
        for x in range(-2 * d, 3 * d):
            action = DiscAction(((0, 0), (0, x)), (1, d))
            assert action_order(action) == up_to_six(ref_action_order(action)), (x, d)


def test_multiple_of_matches_reference_on_every_small_pair():
    box = range(-6, 7)
    for c0, c1, h0, h1 in itertools.product(box, repeat=4):
        c, h = (c0, c1), (h0, h1)
        assert multiple_of(c, h) == ref_multiple_of(c, h), (c, h)


def test_enumerate_low_degree_matches_reference_on_paper_gram():
    # The reference treats each degree on its own, so its list for a
    # bound is its list for 512 cut below that bound.
    g = GramLattice(((4, 20), (20, 4)))
    full = ref_enumerate_low_degree(g, (1, 0), 512)
    for bound in range(1, 513):
        expected = [c for c in full if c.degree < bound]
        assert enumerate_low_degree(g, (1, 0), bound) == expected, bound


def test_enumerate_low_degree_matches_reference_on_seeded_grams():
    # h non-primitive, with a negative or a zero coordinate, and of
    # positive norm, as the degree window requires.
    rng = random.Random(20111020)
    kinds = {"non-primitive": 0, "negative": 0, "zero": 0}
    while min(kinds.values()) < 40:
        a, b, c = rng.randint(-20, 20), rng.randint(-30, 30), rng.randint(-20, 20)
        if 4 * a * c - b * b >= 0:
            continue
        g = GramLattice(((2 * a, b), (b, 2 * c)))
        kind = rng.choice(sorted(kinds))
        h = (rng.randint(-4, 4), rng.randint(-4, 4))
        if kind == "non-primitive":
            h = tuple(rng.randint(2, 4) * x for x in h)
        elif kind == "zero":
            h = rng.choice([(h[0], 0), (0, h[1])])
        elif min(h) >= 0:
            continue
        if h == (0, 0) or norm(g, h) <= 0:
            continue
        kinds[kind] += 1
        bound = rng.randint(1, 200)
        assert enumerate_low_degree(g, h, bound) == ref_enumerate_low_degree(
            g, h, bound
        ), (g, h, bound)
