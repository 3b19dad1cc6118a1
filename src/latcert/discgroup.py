"""Discriminant group machinery: Smith normal form, dual generators
and induced isometry actions."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .isometry import is_isometry
from .lattice import GramLattice
from .matrices import (
    Matrix,
    from_rows,
    identity,
    mat_mul,
    mat_vec,
    rational_inverse,
)

FracVector = tuple[Fraction, ...]


class SmithDecomposition(NamedTuple):
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0]))))


def smith_normal_form(m) -> SmithDecomposition:
    """Exact Smith normal form by elementary row/column reduction,
    pivoting on the smallest nonzero entry."""
    a = [list(row) for row in m]
    rows = len(a)
    if rows == 0 or len(a[0]) == 0:
        raise ValueError("matrix must be nonzero")
    cols = len(a[0])
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

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
        # find smallest nonzero entry in the remaining block
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
        # clear the pivot row and column
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
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to the pivot row
            continue
        t += 1

    # normalize signs on the diagonal
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for k in range(cols):
                a[i][k] = -a[i][k]
            for k in range(rows):
                u[i][k] = -u[i][k]

    return SmithDecomposition(
        U=from_rows(u), D=from_rows(a), V=from_rows(v)
    )


class DiscriminantGroup(NamedTuple):
    """L*/L of a nondegenerate lattice: cyclic invariant factors (> 1)
    with dual-vector generators given in exact rational coordinates.

    The generator coordinates of a dual class w are coordinates * w,
    row i taken modulo invariant_factors[i].
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[FracVector, ...]
    coordinates: Matrix
    gram: GramLattice

    @property
    def order(self) -> int:
        result = 1
        for f in self.invariant_factors:
            result *= f
        return result

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


def discriminant_group(g: GramLattice) -> DiscriminantGroup:
    """Invariant factors and generators of L*/L from the SNF of the
    Gram matrix.

    With U*G*V = D, the quotient is generated by the columns of
    (U*G)^(-1); the column at index i has order d_i, and row i of U*G
    gives the coordinate along it.
    """
    snf = smith_normal_form(g.entries)
    ug = mat_mul(snf.U, g.entries)
    ug_inv = rational_inverse(ug)
    factors = []
    gens = []
    rows = []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            factors.append(d)
            gens.append(tuple(ug_inv[r][i] for r in range(g.rank)))
            rows.append(ug[i])
    return DiscriminantGroup(
        invariant_factors=tuple(factors),
        generators=tuple(gens),
        coordinates=from_rows(rows),
        gram=g,
    )


class DiscAction(NamedTuple):
    """Action of an isometry on the discriminant group, as an integer
    matrix in generator coordinates; row i is taken modulo factors[i]."""

    matrix: Matrix
    factors: tuple[int, ...]

    def _reduced(self) -> Matrix:
        return tuple(
            tuple(x % d for x in row)
            for row, d in zip(self.matrix, self.factors)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscAction):
            return NotImplemented
        return self.factors == other.factors and self._reduced() == other._reduced()

    __ne__ = object.__ne__  # the negation of __eq__, not tuple inequality

    def __hash__(self):
        return hash((self.factors, self._reduced()))

    def is_identity(self) -> bool:
        ident = tuple(
            tuple((1 if i == j else 0) % d for j in range(len(self.factors)))
            for i, d in enumerate(self.factors)
        )
        return self._reduced() == ident

    def compose(self, other: "DiscAction") -> "DiscAction":
        if self.factors != other.factors:
            raise ValueError("actions on different groups")
        prod = mat_mul(self.matrix, other.matrix)
        return DiscAction(matrix=prod, factors=self.factors)


def induced_action(g: GramLattice, m: Matrix) -> DiscAction:
    """The map induced by the isometry m on the discriminant generators.

    Column j of the action matrix is the generator coordinates of the
    class of m*w_j.
    """
    if not is_isometry(g, m):
        raise ValueError("matrix is not an isometry of the lattice")
    group = discriminant_group(g)
    cols = []
    for w in group.generators:
        coords = mat_vec(group.coordinates, mat_vec(m, w))
        assert all(c.denominator == 1 for c in coords)
        cols.append([int(c) for c in coords])
    matrix = from_rows(
        [[col[i] for col in cols] for i in range(len(group.coordinates))]
    )
    return DiscAction(matrix=matrix, factors=group.invariant_factors)


def identity_action(factors: tuple[int, ...]) -> DiscAction:
    return DiscAction(matrix=identity(len(factors)), factors=factors)


def action_order(a: DiscAction) -> Optional[int]:
    """Least n >= 1 with a^n = id, by iterate-and-compare; None when n
    would exceed the group order."""
    if not a.factors:
        return 1
    cap = 1
    for d in a.factors:
        cap *= d
    current = a
    for n in range(1, cap + 1):
        if current.is_identity():
            return n
        current = current.compose(a)
    return None
