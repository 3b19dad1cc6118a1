"""Exact arithmetic on integer symmetric bilinear forms of small rank."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .matrices import Matrix, Vector, det, from_rows

MAX_RANK = 4


class DegenerateLatticeError(ValueError):
    """Raised when a Gram matrix has determinant zero."""


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int


@dataclass(frozen=True)
class LowDegreeClass:
    """A class C of degree inner(C, h) and positive square norm(C)."""

    coords: Vector
    degree: int
    square: int
    multiple_of_h: Optional[int]


@dataclass(frozen=True)
class GramLattice:
    """An integer symmetric bilinear form on a fixed basis.

    Immutable after construction; symmetry and nondegeneracy are
    enforced here so downstream code can assume both.
    """

    entries: Matrix

    def __post_init__(self):
        n = len(self.entries)
        if not 1 <= n <= MAX_RANK:
            raise ValueError(f"rank must be in 1..{MAX_RANK}, got {n}")
        if any(len(row) != n for row in self.entries):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(
                        f"gram matrix not symmetric at ({i},{j})"
                    )
        if det(self.entries) == 0:
            raise DegenerateLatticeError("gram matrix is degenerate")

    @classmethod
    def from_rows(cls, rows) -> "GramLattice":
        return cls(from_rows(rows))

    @property
    def rank(self) -> int:
        return len(self.entries)


def _check_length(g: GramLattice, v: Vector) -> None:
    if len(v) != g.rank:
        raise ValueError(
            f"vector length {len(v)} does not match lattice rank {g.rank}"
        )


def inner(g: GramLattice, u: Vector, v: Vector) -> int:
    """Bilinear pairing u^T * gram * v."""
    _check_length(g, u)
    _check_length(g, v)
    return sum(
        u[i] * g.entries[i][j] * v[j]
        for i in range(g.rank)
        for j in range(g.rank)
    )


def norm(g: GramLattice, v: Vector) -> int:
    """Self-pairing inner(g, v, v)."""
    return inner(g, v, v)


def determinant(g: GramLattice) -> int:
    return det(g.entries)


def signature(g: GramLattice) -> Signature:
    """Counts of positive and negative squares, by exact rational
    congruence diagonalization.

    A zero diagonal pivot is repaired by adding another basis vector
    (which cannot fail on a nondegenerate form).
    """
    n = g.rank
    a = [[Fraction(x) for x in row] for row in g.entries]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swapped = False
            for j in range(i + 1, n):
                if a[j][j] != 0:
                    # swap basis vectors i and j
                    a[i], a[j] = a[j], a[i]
                    for row in a:
                        row[i], row[j] = row[j], row[i]
                    swapped = True
                    break
            if not swapped:
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        # replace e_i by e_i + e_j; new diagonal is 2*a[i][j]
                        for k in range(n):
                            a[i][k] += a[j][k]
                        for k in range(n):
                            a[k][i] += a[k][j]
                        break
                else:
                    raise DegenerateLatticeError(
                        "degenerate block during diagonalization"
                    )
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
    return Signature(positive=pos, negative=neg)


def is_even(g: GramLattice) -> bool:
    """True iff every diagonal entry is even (hence every norm is even)."""
    return all(g.entries[i][i] % 2 == 0 for i in range(g.rank))


def is_primitive(v: Vector) -> bool:
    """True iff the gcd of the coordinates is 1."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitivity")
    return math.gcd(*v) == 1


def multiple_of(c: Vector, h: Vector) -> Optional[int]:
    """The integer m with c = m*h, or None."""
    for m_cand in set(
        ci // hi for ci, hi in zip(c, h) if hi != 0 and ci % hi == 0
    ):
        if all(ci == m_cand * hi for ci, hi in zip(c, h)):
            return m_cand
    return None
