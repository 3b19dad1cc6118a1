"""Diophantine kernel for binary quadratic forms of rank-2 lattices.

Representability is decided only for S2's targets 0 and -2, on one
bounded path: the content filter, the local test at 2 and at the odd
primes dividing the discriminant, then the divisor search of a square
discriminant or one walk of the reduced rho-cycle. Both are complete;
the one "unknown" is a cycle past search_bound rho-steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .isometry import trial_division
from .lattice import GramLattice, determinant
from .matrices import Matrix, mat_mul, mat_vec

# S2's default budget: the most rho-steps its cycle walk takes.
DEFAULT_SEARCH_BOUND = 1000

# Reason codes for negative/unknown representability outcomes.
REASON_CONTENT = "content-divisibility"
REASON_LOCAL = "local-obstruction"
REASON_NONSQUARE_DISC = "nonsquare-discriminant"
REASON_CYCLE = "reduced-cycle"
REASON_DIVISOR = "divisor-search"


class BinaryForm(NamedTuple):
    """f(x, y) = a*x^2 + b*x*y + c*y^2 with integer coefficients."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


class _PellFields(NamedTuple):
    x: int
    y: int
    D: int


class PellSolution(_PellFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.x * self.x - self.D * self.y * self.y != 1:
            raise ValueError("not a solution of x^2 - D*y^2 = 1")
        return self


class Representation(NamedTuple):
    """Outcome of a representability query: yes / no / unknown."""

    status: str  # "yes", "no" or "unknown"
    witness: Optional[tuple[int, int]] = None
    reason: Optional[str] = None
    steps: Optional[int] = None  # rho-steps walked around the cycle
    prime: Optional[int] = None  # the prime of a local obstruction


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def to_binary_form(g: GramLattice) -> BinaryForm:
    """The quadratic form f(x, y) = norm(g, (x, y)) of a rank-2 lattice."""
    e = g.entries
    return BinaryForm(a=e[0][0], b=2 * e[0][1], c=e[1][1])


def content(f: BinaryForm) -> int:
    return math.gcd(f.a, f.b, f.c)


def primitive_part(f: BinaryForm) -> tuple[BinaryForm, int]:
    """(f / content(f), content(f))."""
    cont = content(f)
    return BinaryForm(f.a // cont, f.b // cont, f.c // cont), cont


def represents_zero_nontrivially(f: BinaryForm) -> bool:
    """A nondegenerate integral binary form has a nontrivial zero iff
    its discriminant is a perfect square."""
    disc = f.discriminant
    if disc == 0:
        raise ValueError("degenerate form")
    return _is_square(disc)


def zero_witness(f: BinaryForm) -> tuple[int, int]:
    """A nonzero integer pair (x, y) with f(x, y) = 0."""
    if not represents_zero_nontrivially(f):
        raise ValueError("form has no nontrivial zero")
    if f.a == 0:
        return (1, 0)
    s = math.isqrt(f.discriminant)
    x, y = -f.b + s, 2 * f.a
    if x == 0:
        x, y = -f.b - s, 2 * f.a
    g = math.gcd(x, y)
    return (x // g, y // g)


def pell_fundamental(d: int, y_limit: int) -> Optional[PellSolution]:
    """Minimal positive solution of x^2 - d*y^2 = 1, from one period of
    the rho-cycle of the reduced principal form (1, 2*a0, a0^2 - d) of
    discriminant 4d, a0 = isqrt(d); None when the walk passes y_limit
    before the period ends (the solution's y is then larger).

    The product M of the period's steps is the least proper automorph of
    that form (Buchmann & Vollmer, Binary Quadratic Forms, ch. 6), up to
    sign and inverse: [[x - a0*y, (d - a0^2)*y], [y, x + a0*y]] for the
    least solution (x, y), so |M's lower left entry| is y, and the walk
    keeps only M's second row (y_prev, y). Each form is reduced, so k has
    the sign of the form's last coefficient, which alternates, and
    |k| >= 1: the |y| grow at least as fast as Fibonacci numbers, and the
    walk takes O(log y_limit) steps."""
    if d <= 0:
        raise ValueError("d must be positive")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")
    s = math.isqrt(4 * d)
    start = form = (1, 2 * a0, a0 * a0 - d)
    y_prev, y = 0, 1
    while True:
        form, k = _rho(form, s)
        y_prev, y = y, k * y - y_prev
        if form == start:
            x = math.isqrt(d * y_prev * y_prev + 1)
            return PellSolution(x=x, y=abs(y_prev), D=d)
        if abs(y_prev) > y_limit:
            return None


def _local_obstruction(f0: BinaryForm, t0: int) -> Optional[int]:
    """The least prime p at which f0 = t0 has no p-adic solution, or None,
    for a primitive f0 of discriminant D > 0 and t0 in {-1, -2}. Every
    solution is primitive (t0 is squarefree), so a "no" at p rules out
    every integer one. Tested: 2, and the odd p | D that trial_division
    finds; at odd p not dividing D, f0 mod p takes every nonzero value.
    The prime q it may leave over needs no test: f0 fails to represent
    t0 over Q_v at an even number of places v (Hilbert's product
    formula), none at infinity, and as q || D, failing over Z_q is
    failing over Q_q, so a failure at q comes with one at a smaller p.

    Odd p | D: 4a*f0 = (2ax + by)^2 - D*y^2, and p | a gives p | b, so
    f0 = alpha*L^2 (mod p), L linear, alpha = a (or c when p | a) a unit.
    So t0 is a value mod p exactly when (alpha*t0 | p) = 1 (Euler's
    criterion); the gradient 2*alpha*L*grad(L) is then a unit, and
    Hensel's lemma lifts the solution.

    p = 2, e = v2(t0): if f0(w) = t0 (mod 2^(e+3)) at a primitive w,
    f0(w) / t0 is a 2-adic unit = 1 (mod 8), so it is u^2 for a unit u,
    and f0(w / u) = t0. So primitive residues mod m = 2^(e+3) decide,
    and as odd u have u^2 = 1 (mod 8), the points (1, y) and (2y, 1)
    stand for them all.
    """
    m = 8 * (t0 & -t0)
    if all(
        (f0.evaluate(1, y) - t0) % m and (f0.evaluate(2 * y, 1) - t0) % m
        for y in range(m)
    ):
        return 2
    for p in trial_division(f0.discriminant)[0]:
        alpha = f0.c if f0.a % p == 0 else f0.a
        if p > 2 and pow(alpha * t0, (p - 1) // 2, p) == p - 1:
            return p
    return None


def _divisor_search(f: BinaryForm, t: int) -> Optional[tuple[int, int]]:
    """Solve f(x, y) = t for a primitive form f with a perfect square
    discriminant s^2 and t in {-1, -2}, the values S2's targets leave
    after the content filter (-1 on an even lattice).

    Such a form factors over Z: 4*a*f = (2ax + (b - s)y)(2ax + (b + s)y),
    and dividing each factor by its content leaves primitive linear
    forms L1, L2 with f = sign(a)*L1*L2 (Gauss's lemma). Every solution
    therefore has L1(x, y) = d1 for a divisor d1 of t, and d1 fixes the
    solution through a 2x2 linear system. The divisors of t are among
    1, -1, 2, -2, tried in that order.
    """
    a, b, c = f.a, f.b, f.c
    if a == 0:
        if c == 0:
            # f = b*x*y with b = +-1
            return (1, t // b)
        # swap variables so the leading coefficient is nonzero
        w = _divisor_search(BinaryForm(c, b, a), t)
        return None if w is None else (w[1], w[0])
    s = math.isqrt(f.discriminant)
    g1, g2 = math.gcd(2 * a, b - s), math.gcd(2 * a, b + s)
    # L1 = al*x + be*y, L2 = ga*x + de*y
    al, be = 2 * a // g1, (b - s) // g1
    ga, de = 2 * a // g2, (b + s) // g2
    det_l = al * de - be * ga
    sign_a = 1 if a > 0 else -1
    for d1 in (1, -1, 2, -2):
        if t % d1:
            continue
        d2 = sign_a * (t // d1)
        x_num, y_num = de * d1 - be * d2, al * d2 - ga * d1
        if x_num % det_l or y_num % det_l:
            continue
        x, y = x_num // det_l, y_num // det_l
        if f.evaluate(x, y) == t:
            return (x, y)
    return None


def _rho(f: tuple[int, int, int], s: int) -> tuple[tuple[int, int, int], int]:
    """rho(f) = f o [[0, -1], [1, k]] = (c, r, (r^2 - D) / (4c)) and its
    k, for f = (a, b, c) of nonsquare discriminant D and s = isqrt(D):
    r = -b + 2ck lies in (-|c|, |c|] when |c| > s, else in (s - 2|c|, s],
    that is (sqrt D - 2|c|, sqrt D). det = 1 keeps proper equivalence.
    Forms are plain tuples, not BinaryForm: a NamedTuple built per step
    costs about a quarter of a walk's time."""
    a, b, c = f
    top = max(abs(c), s)
    k = (top - (top + b) % (2 * abs(c)) + b) // (2 * c)
    return (c, 2 * c * k - b, a + k * (c * k - b)), k


def _rho_reduce(
    f: tuple[int, int, int], s: int
) -> tuple[tuple[int, int, int], list[int]]:
    """The first reduced form, |sqrt D - 2|a|| < b < sqrt D, of f's
    rho-orbit, and each step's k. |c| > s gives |c'| <= |c| / 4, as r^2
    and D are at most c^2; |c| < sqrt(D) / 2 makes r's interval the
    reduced one; sqrt(D) / 2 < |c| < sqrt D gives |c'| < sqrt(D) / 2.
    So the loop takes at most log4(|c| / sqrt D) + 3 steps."""
    ks = []
    while not (s - 2 * abs(f[0]) < f[1] <= s and 2 * abs(f[0]) <= f[1] + s):
        f, k = _rho(f, s)
        ks.append(k)
    return f, ks


def _rho_matrix(ks: list[int]) -> Matrix:
    """The product of the steps' matrices [[0, -1], [1, k]], in order."""
    m = ((1, 0), (0, 1))
    for k in ks:
        m = mat_mul(m, ((0, -1), (1, k)))
    return m


def _cycle_search(f0: BinaryForm, t0: int, search_bound: int) -> Representation:
    """Decide f0(x, y) = t0 for a primitive f0 of nonsquare discriminant
    D > 0 and a squarefree t0. Every solution is then primitive, the
    first column of some M in SL2(Z) with f0 o M = (t0, beta, gamma),
    and beta moves by 2*t0 with M's second column. So f0 represents t0
    exactly when it is properly equivalent to some such form with
    0 <= beta < 2|t0|, and two reduced forms are so exactly when they lie
    on one rho-cycle (Buchmann & Vollmer, Binary Quadratic Forms, ch. 6).
    rev(a, b, c) = (c, b, a) keeps a form reduced, and rho(rev(rho(f)))
    = rev(f): the walk goes both ways from f0's reduced form, a step
    each in turn. It says "yes" at a reduced target, "no" when its ends
    meet, after the period, a class invariant, and "unknown" after
    search_bound steps. The witness is the first column of m(f0) *
    m(walk) * m(target)^-1, m conjugated by rev's swap when backwards."""
    disc = f0.discriminant
    s = math.isqrt(disc)
    start, to_start = _rho_reduce(f0, s)
    targets = dict(  # the reduced (t0, beta, gamma), at most two
        _rho_reduce((t0, beta, (beta * beta - disc) // (4 * t0)), s)
        for beta in range(2 * abs(t0)) if (beta * beta - disc) % (4 * t0) == 0
    )
    # rev is [::-1]; rev(bwd) walks f0's cycle backwards
    fwd, bwd, fwd_ks, bwd_ks, steps = start, start[::-1], [], [], 0
    while fwd not in targets and bwd[::-1] not in targets:
        if steps == search_bound:
            return Representation("unknown", reason=REASON_CYCLE, steps=steps)
        if steps % 2:
            bwd, k = _rho(bwd, s)
            bwd_ks.append(k)
        else:
            fwd, k = _rho(fwd, s)
            fwd_ks.append(k)
        steps += 1
        if fwd == bwd[::-1]:
            return Representation("no", reason=REASON_CYCLE, steps=steps)
    if fwd in targets:
        (_, _), (r, u) = _rho_matrix(targets[fwd])
        x, y = mat_vec(_rho_matrix(fwd_ks), (u, -r))
    else:
        (_, _), (r, u) = _rho_matrix(targets[bwd[::-1]])
        y, x = mat_vec(_rho_matrix(bwd_ks), (-r, u))
    witness = mat_vec(_rho_matrix(to_start), (x, y))
    return Representation("yes", witness, steps=steps)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def represents_value(
    g: GramLattice, t: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Representation:
    """Decide whether the rank-2 lattice g represents t, one of S2's
    targets 0 and -2; any other t is a ValueError. A rank-2 lattice has
    signature (1,1) exactly when its determinant is negative.

    One path: zero criterion / content filter / `_local_obstruction`
    (a "no" names its prime) / `_divisor_search` when the primitive part
    f0 has a square discriminant, else `_cycle_search` on f0, at most
    search_bound steps.
    """
    if t not in (0, -2):
        raise ValueError(f"represents_value decides t = 0 and t = -2 only, not {t}")
    if determinant(g) >= 0:
        raise ValueError("representability pipeline requires signature (1,1)")
    f = to_binary_form(g)
    if t == 0:
        if represents_zero_nontrivially(f):
            return Representation(status="yes", witness=zero_witness(f))
        return Representation(status="no", reason=REASON_NONSQUARE_DISC)
    f0, cont = primitive_part(f)
    if t % cont != 0:
        return Representation(status="no", reason=REASON_CONTENT)
    t0 = t // cont
    if (prime := _local_obstruction(f0, t0)) is not None:
        return Representation(status="no", reason=REASON_LOCAL, prime=prime)
    if _is_square(f0.discriminant):
        w = _divisor_search(f0, t0)
        if w is None:
            return Representation(status="no", reason=REASON_DIVISOR)
        result = Representation(status="yes", witness=w)
    else:
        result = _cycle_search(f0, t0, search_bound)
    if result.status == "yes" and f.evaluate(*result.witness) != t:
        raise RuntimeError(f"witness {result.witness} does not represent {t}")
    return result


def automorph_generator(
    f: BinaryForm, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Optional[Matrix]:
    """The standard proper automorph of a primitive indefinite form, from
    the least solution of t^2 - disc*u^2 = 4 with 0 < u <= search_bound^2
    (one linear scan); None when that u is larger."""
    if content(f) != 1:
        raise ValueError("form must be primitive")
    disc = f.discriminant
    if disc <= 0 or _is_square(disc):
        raise ValueError("form must be indefinite with nonsquare discriminant")
    for u in range(1, search_bound * search_bound + 1):
        t = math.isqrt(rhs := disc * u * u + 4)
        if t * t == rhs:
            return ((t - f.b * u) // 2, -f.c * u), (f.a * u, (t + f.b * u) // 2)
    return None
