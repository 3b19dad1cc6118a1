"""Discriminant group machinery: Smith normal form, dual generators
and induced isometry actions."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .isometry import is_isometry
from .lattice import GramLattice
from .matrices import Matrix, adjugate, det, mat_mul


class SmithDecomposition(NamedTuple):
    """U * M * V = D for a 2x2 M, with U unimodular, D = diag(d1, d2),
    d1 | d2, and some unimodular V that is not kept."""

    U: Matrix
    D: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return (self.D[0][0], self.D[1][1])


def smith_normal_form(m) -> SmithDecomposition:
    """Exact Smith normal form of a 2x2 integer matrix (Cohen, GTM 138,
    section 2.4.4): pivot on the smallest nonzero entry, the first in
    row-major order on a tie; clear its row and column by Euclidean
    steps, swapping in a nonzero remainder; when the pivot does not
    divide the remaining entry, add that row to the pivot row and pivot
    again; finally make the diagonal nonnegative by negating rows."""
    (a, b), (c, d) = m
    u00, u01, u10, u11 = 1, 0, 0, 1
    while a or b or c or d:
        entries = (a, b, c, d)
        p = min((i for i in range(4) if entries[i]), key=lambda i: abs(entries[i]))
        if p >= 2:  # swap the rows
            a, b, c, d = c, d, a, b
            u00, u01, u10, u11 = u10, u11, u00, u01
        if p % 2:  # swap the columns
            a, b, c, d = b, a, d, c
        while b or c:
            if c:  # row 1 -= q * row 0
                q = c // a
                c, d, u10, u11 = c - q * a, d - q * b, u10 - q * u00, u11 - q * u01
                if c:
                    a, b, c, d = c, d, a, b
                    u00, u01, u10, u11 = u10, u11, u00, u01
            if b:  # column 1 -= q * column 0
                q = b // a
                b, d = b - q * a, d - q * c
                if b:
                    a, b, c, d = b, a, d, c
        if d % a == 0:
            break
        b, u00, u01 = d, u00 + u10, u01 + u11  # row 0 += row 1, with c = 0
    if a < 0:
        a, u00, u01 = -a, -u00, -u01
    if d < 0:
        d, u10, u11 = -d, -u10, -u11
    return SmithDecomposition(U=((u00, u01), (u10, u11)), D=((a, b), (c, d)))


class DiscriminantGroup(NamedTuple):
    """L*/L of a nondegenerate lattice, in one integer frame.

    Generator j is columns[j] / scale and has order
    invariant_factors[j] (each > 1).
    """

    invariant_factors: tuple[int, ...]
    columns: Matrix
    scale: int

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)


def discriminant_group(g: GramLattice) -> DiscriminantGroup:
    """Invariant factors and generators of L*/L from the SNF of the
    Gram matrix.

    With U*G*V = D, the quotient is generated by the columns of
    (U*G)^(-1) = adj(U*G) / det(U*G); the column at index i has order
    d_i, and row i of U*G gives the coordinate along it. Only the
    indices with d_i > 1 are kept.
    """
    snf = smith_normal_form(g.entries)
    (a, b), (c, d) = mat_mul(snf.U, g.entries)
    diagonal = snf.diagonal
    first = diagonal.count(1)  # d1 | d2: the 1s come first
    return DiscriminantGroup(
        invariant_factors=diagonal[first:],
        columns=((d, -c), (-b, a))[first:],  # of adj(U*G)
        scale=a * d - b * c,
    )


class DiscAction(NamedTuple):
    """Action of an isometry on L*/L = Z/d1 + Z/d2, d1 | d2, as a 2x2
    integer matrix in generator coordinates; row i is taken modulo
    factors[i], which tuple equality does not do. A factor of 1 stands
    for a trivial summand."""

    matrix: Matrix
    factors: tuple[int, int]


def induced_action(g: GramLattice, m: Matrix) -> DiscAction:
    """The map induced by the isometry m on the generators of L*/L, in
    integers: U * M^-T * U^-1 over factors (d1, d2), for U*G*V = D.

    Column j is the coordinates of m*w_j for the generator w_j, column j
    of (U*G)^(-1), so the matrix is U*G * M * (U*G)^(-1), and
    G * M * G^-1 = M^-T follows from M^T * G * M = G. Both inverses are
    exact: det M = +-1 as G is nondegenerate, and U is unimodular.
    """
    if not is_isometry(g, m):
        raise ValueError("matrix is not an isometry of the lattice")
    snf = smith_normal_form(g.entries)
    u = snf.U
    s = det(m) * det(u)  # M^-T = det(M) adj(M)^T, U^-1 = det(U) adj(U)
    (m00, m01), (m10, m11) = m
    m_inv_t = ((s * m11, -s * m10), (-s * m01, s * m00))  # det(U) * M^-T
    return DiscAction(mat_mul(mat_mul(u, m_inv_t), adjugate(u)), snf.diagonal)


def action_order(a: DiscAction) -> Optional[int]:
    """Least n in 1..6 with a^n = id; None when there is none.

    Under S5's precondition (v.G.v of content k in {2, 4}) an isometry
    M of infinite order (det M = 1: det -1 is a reflection) has n | 2, 4
    or 6. Let f0 = v.G.v / k have discriminant D0 and Gram matrix
    G0 = 2G/k. With J = [[0, 1], [-1, 0]], (G0*J)^2 = D0, so Z^2 is an
    invertible module over the order O of discriminant D0, sqrt D0
    acting as G0*J; M^-T commutes with G0*J, so it acts as a unit eps =
    (t + u*sqrt D0)/2 of norm 1. w -> G*w maps L*/L onto Z^2 / G*Z^2 =
    Z^2 / (k/2)*G0*J*Z^2, M acting as M^-T: L*/L ~ O/((k/2)*sqrt D0),
    M acting as eps. As eps - conj(eps) = u*sqrt D0, eps^2 =
    eps*conj(eps) = 1 mod sqrt D0. k = 2: n | 2. k = 4, 4 | D0: sqrt D0
    is in 2O, so eps^2 = 1 + x*sqrt D0 gives eps^4 = 1 mod 2*sqrt D0.
    k = 4, D0 odd: O/(2*sqrt D0) ~ O/2 x O/sqrt D0 by the Chinese
    remainder theorem, |(O/2O)^x| is 1 or 3 (D0 = 1 or 5 mod 8): eps^6 = 1.

    a^n is iterated on four residues: row i of a and of each power is
    kept reduced mod factors[i]. For an action induced by an isometry
    the (1, 0) entry of a and of every power is a multiple of d2/d1, so
    reducing both factors of a product leaves its reduced rows
    unchanged.
    """
    (d1, d2), ((a00, a01), (a10, a11)) = a.factors, a.matrix
    a00, a01, a10, a11 = a00 % d1, a01 % d1, a10 % d2, a11 % d2
    one1, one2 = 1 % d1, 1 % d2
    c00, c01, c10, c11 = a00, a01, a10, a11
    for n in range(1, 7):
        if c00 == one1 and c01 == 0 and c10 == 0 and c11 == one2:
            return n
        c00, c01, c10, c11 = (
            (c00 * a00 + c01 * a10) % d1,
            (c00 * a01 + c01 * a11) % d1,
            (c10 * a00 + c11 * a10) % d2,
            (c10 * a01 + c11 * a11) % d2,
        )
    return None
