"""Exact arithmetic on integer symmetric bilinear forms of rank 2."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .matrices import Matrix, Vector, det, from_rows


class DegenerateLatticeError(ValueError):
    """Raised when a Gram matrix has determinant zero."""


class Signature(NamedTuple):
    positive: int
    negative: int


class LowDegreeClass(NamedTuple):
    """A class C of degree inner(C, h) and positive square norm(C)."""

    coords: Vector
    degree: int
    square: int
    multiple_of_h: Optional[int]


def is_integer_array(value, depth: int) -> bool:
    """The integer rule of every input: an int at depth 0, else a tuple
    or list of depth - 1 arrays; bool, float and str are never coerced."""
    if depth == 0:
        return type(value) is int
    if not isinstance(value, (tuple, list)):
        return False
    for x in value:  # a plain loop: all() over a generator costs a call
        if not is_integer_array(x, depth - 1):
            return False
    return True


class _GramEntries(NamedTuple):
    entries: Matrix


class GramLattice(_GramEntries):
    """An integer symmetric bilinear form of rank 2 on a fixed basis.

    Immutable; int entries (stored as tuples), the 2x2 shape, symmetry
    and nondegeneracy are enforced on every construction path."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, entries):
        if not is_integer_array(entries, 2):
            raise ValueError("field gram must be a 2D integer array")
        self = super().__new__(cls, from_rows(entries))
        n = len(self.entries)
        if n != 2:
            raise ValueError(f"gram matrix must be 2x2 (rank 2), got rank {n}")
        if len(self.entries[0]) != 2 or len(self.entries[1]) != 2:
            raise ValueError("gram matrix must be square")
        (a, b), (c, d) = self.entries
        if b != c:
            raise ValueError("gram matrix not symmetric at (1,0)")
        if a * d - b * c == 0:
            raise DegenerateLatticeError("gram matrix is degenerate")
        return self

    @classmethod
    def from_rows(cls, rows) -> "GramLattice":
        return cls(rows)


def inner(g: GramLattice, u: Vector, v: Vector) -> int:
    """Bilinear pairing u^T * gram * v."""
    if len(u) != 2 or len(v) != 2:
        n = len(u) if len(u) != 2 else len(v)
        raise ValueError(f"vector length {n} does not match lattice rank 2")
    (a, b), (c, d) = g.entries
    return u[0] * (a * v[0] + b * v[1]) + u[1] * (c * v[0] + d * v[1])


def norm(g: GramLattice, v: Vector) -> int:
    """Self-pairing inner(g, v, v)."""
    return inner(g, v, v)


def determinant(g: GramLattice) -> int:
    return det(g.entries)


def signature(g: GramLattice) -> Signature:
    """Counts of positive and negative squares. The form is indefinite
    exactly when det < 0; otherwise a*c > b^2 >= 0, so it is definite
    with the sign of the (1,1) entry."""
    if determinant(g) < 0:
        return Signature(positive=1, negative=1)
    if g.entries[0][0] > 0:
        return Signature(positive=2, negative=0)
    return Signature(positive=0, negative=2)


def is_even(g: GramLattice) -> bool:
    """True iff every diagonal entry is even (hence every norm is even)."""
    (a, _), (_, d) = g.entries
    return a % 2 == 0 and d % 2 == 0


def is_primitive(v: Vector) -> bool:
    """True iff the gcd of the coordinates is 1."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitivity")
    return math.gcd(*v) == 1


def multiple_of(c: Vector, h: Vector) -> Optional[int]:
    """The integer m with c = m*h, or None. c is a rational multiple of
    a nonzero h exactly when the cross product c0*h1 - c1*h0 vanishes;
    m is then c_i / h_i on a nonzero coordinate of h, if that division
    is exact."""
    (c0, c1), (h0, h1) = c, h
    if c0 * h1 != c1 * h0 or not (h0 or h1):
        return None
    m, r = divmod(c0, h0) if h0 else divmod(c1, h1)
    return None if r else m
