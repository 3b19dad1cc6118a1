"""Validation and analysis of lattice isometries."""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional

from .lattice import GramLattice, determinant, inner, norm
from .matrices import Matrix, Vector, det, mat_mul, mat_vec, transpose

# Order of an elliptic element of SL(2, Z), keyed by its trace.
ELLIPTIC_ORDER = {-1: 3, 0: 4, 1: 6}
# trial_division divides by the primes up to this bound only. Its cube
# exceeds 4*|det G| (at most 4 * 10^12 on the benchmark's Grams), which
# bounds the factored part of an isometry's discriminant, so those roots
# are reduced exactly as without a bound. S2's local test reads it too.
TRIAL_DIVISION_BOUND = 2**16
# Longest orbit segment polarization_orbit walks. Growing entries reach
# the print limit long before it; entries that do not grow (an isometry
# of finite order, or a parabolic one) are kept, about 0.3 KB each.
MAX_K_MAX = 100_000


def ratio(p: int, q: int) -> str:
    """p/q in lowest terms with a positive denominator, as str(Fraction)
    prints it: "p" when q divides p."""
    k = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    p, q = p // k, q // k
    return str(p) if q == 1 else f"{p}/{q}"


class QuadraticRoot(NamedTuple):
    """Exact value (p + q*sqrt(d)) / 2 with integers p, q and d > 1.

    q^2 * d is the discriminant tr^2 - 4*det of the characteristic
    polynomial, exactly. d is squarefree when that is below
    TRIAL_DIVISION_BOUND^3; past it, d may keep the square of a prime
    above the bound (_squarefree_split)."""

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


def order(m: Matrix) -> Optional[int]:
    """The finite order of a rank-2 matrix, or None when it is infinite,
    from trace and determinant.

    det 1: |tr| >= 3 is hyperbolic (infinite); tr -1, 0, 1 is elliptic
    of order 3, 4, 6; tr +-2 is +-I (order 1, 2) or parabolic (infinite).
    det -1: M^2 = I iff tr = 0 (Cayley-Hamilton), else the eigenvalues
    are real and not +-1. Any other det has |det^k| != 1 for all k.
    """
    (a, b), (c, d) = m
    tr, dt = a + d, det(m)
    if dt == 1 and tr in ELLIPTIC_ORDER:
        return ELLIPTIC_ORDER[tr]
    if dt == 1 and abs(tr) == 2 and b == c == 0:
        return 1 if tr == 2 else 2
    if dt == -1 and tr == 0:
        return 2
    return None


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes up to TRIAL_DIVISION_BOUND, sieved once per process."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (TRIAL_DIVISION_BOUND - 1)
    for k in range(2, math.isqrt(TRIAL_DIVISION_BOUND) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(sieve[k * k :: k]))
    return tuple(itertools.compress(range(len(sieve)), sieve))


def trial_division(n: int) -> tuple[list[int], int]:
    """(primes, r) with n = r * prod(primes): the prime factors of n > 0
    up to TRIAL_DIVISION_BOUND, ascending and repeated. It stops at the
    first p with p^2 > r, so r below the bound squared is 1 or a prime."""
    primes = []
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            primes.append(p)
    return primes, n


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d; returns (s, d). Requires n > 0.

    What trial_division leaves below TRIAL_DIVISION_BOUND^3 is 1, p, p*q
    or p^2, and isqrt tells p^2 exactly, so d is squarefree. A larger
    remainder is kept whole unless it is a perfect square, so d may keep
    a square factor above the bound squared.
    """
    primes, r = trial_division(n)
    d = math.prod(p for p in set(primes) if primes.count(p) % 2)
    if math.isqrt(r) ** 2 != r:
        d *= r
    return math.isqrt(n // d), d


def char_poly_rank2(m: Matrix) -> CharData:
    """Characteristic data (trace, det) of a 2x2 matrix, with the
    dominant real root in exact symbolic form when it is irrational.

    tr^2 - 4*det = (a - d)^2 + 4*b*c, so g = gcd(a - d, b, c) squared
    divides it and only disc / g^2 is factored. For an isometry of a
    Gram G that quotient is a primitive discriminant, at most 4*|det G|.
    """
    (a, b), (c, d) = m
    tr, dt = a + d, det(m)
    disc = tr * tr - 4 * dt
    if disc <= 0 or math.isqrt(disc) ** 2 == disc:
        return CharData(tr, dt, None)  # rational or complex roots
    g = math.gcd(a - d, b, c)
    sq, free = _squarefree_split(disc // (g * g))
    return CharData(tr, dt, QuadraticRoot(p=tr, q=g * sq, d=free))


def polarization_orbit(
    g: GramLattice, m: Matrix, h: Vector, k_max: int, limit: int
) -> Optional[list[tuple[int, Vector, int]]]:
    """Orbit segment [(k, M^k h, inner(M^k h, h)) for k = 0..k_max];
    None as soon as a coordinate or degree reaches limit in absolute
    value, so the walk keeps no entry past it."""
    if not 1 <= k_max <= MAX_K_MAX:
        raise ValueError(f"k_max must be between 1 and {MAX_K_MAX}")
    out = []
    v = h
    for k in range(k_max + 1):
        d = inner(g, v, h)
        if max(abs(v[0]), abs(v[1]), abs(d)) >= limit:
            return None
        out.append((k, v, d))
        v = mat_vec(m, v)
    return out

