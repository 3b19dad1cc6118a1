"""Validation and analysis of lattice isometries."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .lattice import GramLattice, determinant, inner, norm
from .matrices import Matrix, Vector, det, mat_mul, mat_vec, transpose

# Order of an elliptic element of SL(2, Z), keyed by its trace.
ELLIPTIC_ORDER = {-1: 3, 0: 4, 1: 6}


class OrderResult(NamedTuple):
    finite: Optional[int]  # None means infinite order

    @property
    def is_infinite(self) -> bool:
        return self.finite is None


def ratio(p: int, q: int) -> str:
    """p/q in lowest terms with a positive denominator, as str(Fraction)
    prints it: "p" when q divides p."""
    k = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    p, q = p // k, q // k
    return str(p) if q == 1 else f"{p}/{q}"


class QuadraticRoot(NamedTuple):
    """Exact value (p + q*sqrt(d)) / 2 with integers p, q and squarefree
    d > 1."""

    p: int
    q: int
    d: int

    def __str__(self) -> str:
        return f"{ratio(self.p, 2)} + {ratio(self.q, 2)}*sqrt({self.d})"


class CharData(NamedTuple):
    trace: int
    det: int
    dominant_root: Optional[QuadraticRoot]  # None when roots are rational


def is_isometry(g: GramLattice, m: Matrix) -> bool:
    """True iff M^T * gram * M = gram exactly."""
    if len(m) != g.rank or any(len(row) != g.rank for row in m):
        raise ValueError("matrix shape does not match lattice rank")
    return mat_mul(transpose(m), mat_mul(g.entries, m)) == g.entries


def preserves_positive_cone(g: GramLattice, m: Matrix, h: Vector) -> bool:
    """Whether the isometry maps the cone of h to itself.

    In signature (1,1) an isometry sends the positive cone to plus or
    minus itself, so the sign of inner(M*h, h) on one interior vector
    decides. A rank-2 lattice has signature (1,1) exactly when its
    determinant is negative.
    """
    if determinant(g) >= 0:
        raise ValueError("cone test requires signature (1,1)")
    if norm(g, h) <= 0:
        raise ValueError("h must lie in the positive cone (norm > 0)")
    return inner(g, mat_vec(m, h), h) > 0


def order(m: Matrix) -> OrderResult:
    """Finite order or infinite, for rank 2, from trace and determinant.

    det 1: |tr| >= 3 is hyperbolic (infinite); tr -1, 0, 1 is elliptic
    of order 3, 4, 6; tr +-2 is +-I (order 1, 2) or parabolic (infinite).
    det -1: M^2 = I iff tr = 0 (Cayley-Hamilton), else the eigenvalues
    are real and not +-1. Any other det has |det^k| != 1 for all k.
    """
    if len(m) != 2:
        raise ValueError("order test implemented for rank 2 only")
    tr = m[0][0] + m[1][1]
    dt = det(m)
    if dt == 1 and tr in ELLIPTIC_ORDER:
        return OrderResult(finite=ELLIPTIC_ORDER[tr])
    if dt == 1 and abs(tr) == 2 and m[0][1] == m[1][0] == 0:
        return OrderResult(finite=1 if tr == 2 else 2)
    if dt == -1 and tr == 0:
        return OrderResult(finite=2)
    return OrderResult(finite=None)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d). Requires n > 0.

    Trial division strips each prime k while k^3 <= n. The remainder then
    has no prime factor below k and is less than k^3, so it is 1, p, p*q
    or p^2, and only p^2 is not squarefree: isqrt tells it exactly.
    """
    s, d = 1, 1
    k = 2
    while k * k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        if n % k == 0:
            n //= k
            d *= k
        k += 1
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def char_poly_rank2(m: Matrix) -> CharData:
    """Characteristic data (trace, det) of a 2x2 matrix, with the
    dominant real root in exact symbolic form when it is irrational.

    tr^2 - 4*det = (a - d)^2 + 4*b*c, so g = gcd(a - d, b, c) squared
    divides it and only disc / g^2 is factored. For an isometry of a
    Gram G that quotient is a primitive discriminant, at most 4*|det G|.
    """
    if len(m) != 2:
        raise ValueError("rank 2 only")
    tr = m[0][0] + m[1][1]
    dt = det(m)
    disc = tr * tr - 4 * dt
    if disc <= 0 or math.isqrt(disc) ** 2 == disc:
        return CharData(tr, dt, None)  # rational or complex roots
    g = math.gcd(m[0][0] - m[1][1], m[0][1], m[1][0])
    sq, d = _squarefree_split(disc // (g * g))
    return CharData(tr, dt, QuadraticRoot(p=tr, q=g * sq, d=d))


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

