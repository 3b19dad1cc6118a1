"""Validation and analysis of lattice isometries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import GramLattice, inner, norm, signature
from .matrices import (
    Matrix,
    Vector,
    det,
    identity,
    mat_mul,
    mat_vec,
    transpose,
)

# Every finite-order element of GL(2, Z) has order dividing 12.
MAX_FINITE_ORDER_RANK2 = 12


@dataclass(frozen=True)
class OrderResult:
    finite: Optional[int]  # None means infinite order

    @property
    def is_infinite(self) -> bool:
        return self.finite is None


@dataclass(frozen=True)
class QuadraticRoot:
    """Exact value p + q*sqrt(d) with rational p, q and squarefree d > 1."""

    p: Fraction
    q: Fraction
    d: int

    def __str__(self) -> str:
        return f"{self.p} + {self.q}*sqrt({self.d})"


@dataclass(frozen=True)
class CharData:
    trace: int
    det: int
    dominant_root: Optional[QuadraticRoot]  # None when roots are rational
    rational_root: Optional[Fraction] = None


def is_isometry(g: GramLattice, m: Matrix) -> bool:
    """True iff M^T * gram * M = gram exactly."""
    if len(m) != g.rank or any(len(row) != g.rank for row in m):
        raise ValueError("matrix shape does not match lattice rank")
    return mat_mul(transpose(m), mat_mul(g.entries, m)) == g.entries


def preserves_positive_cone(g: GramLattice, m: Matrix, h: Vector) -> bool:
    """Whether the isometry maps the cone of h to itself.

    In signature (1,1) an isometry sends the positive cone to plus or
    minus itself, so the sign of inner(M*h, h) on one interior vector
    decides.
    """
    sig = signature(g)
    if (sig.positive, sig.negative) != (1, 1):
        raise ValueError("cone test requires signature (1,1)")
    if norm(g, h) <= 0:
        raise ValueError("h must lie in the positive cone (norm > 0)")
    return inner(g, mat_vec(m, h), h) > 0


def order(m: Matrix) -> OrderResult:
    """Finite order k (power check up to 12) or infinite, for rank 2."""
    if len(m) != 2:
        raise ValueError("order test implemented for rank 2 only")
    ident = identity(2)
    power = m
    for k in range(1, MAX_FINITE_ORDER_RANK2 + 1):
        if power == ident:
            return OrderResult(finite=k)
        power = mat_mul(power, m)
    return OrderResult(finite=None)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d). Requires n > 0."""
    s, d = 1, 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        k += 1
    return s, d * n


def char_poly_rank2(m: Matrix) -> CharData:
    """Characteristic data (trace, det) of a 2x2 matrix, with the
    dominant real root in exact symbolic form when it is irrational."""
    if len(m) != 2:
        raise ValueError("rank 2 only")
    tr = m[0][0] + m[1][1]
    dt = det(m)
    disc = tr * tr - 4 * dt
    if disc > 0:
        s = math.isqrt(disc)
        if s * s == disc:
            root = Fraction(tr + s, 2)
            return CharData(tr, dt, None, rational_root=root)
        sq, d = _squarefree_split(disc)
        return CharData(
            tr, dt, QuadraticRoot(p=Fraction(tr, 2), q=Fraction(sq, 2), d=d)
        )
    if disc == 0:
        return CharData(tr, dt, None, rational_root=Fraction(tr, 2))
    return CharData(tr, dt, None)  # complex roots


def polarization_orbit(
    g: GramLattice, m: Matrix, h: Vector, k_max: int
) -> list[tuple[int, Vector, int]]:
    """Orbit segment [(k, M^k h, inner(M^k h, h)) for k = 0..k_max]."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    out = []
    v = h
    for k in range(k_max + 1):
        out.append((k, v, inner(g, v, h)))
        v = mat_vec(m, v)
    return out

