"""Diophantine kernel for binary quadratic forms of rank-2 lattices.

Representability is decided only for S2's targets 0 and -2, on one
bounded path (content and congruence filters, then one Pell-class search
with an exact class bound, or box scans at one root solve per row) that
returns an honest "unknown" when the search budget is exhausted.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .lattice import GramLattice, determinant
from .matrices import Matrix, mat_vec

DEFAULT_MODULI = (3, 5, 16)
# S2's default budget: the largest y the Pell-class search scans.
DEFAULT_SEARCH_BOUND = 1000

# Reason codes for negative/unknown representability outcomes.
REASON_CONTENT = "content-divisibility"
REASON_CONGRUENCE = "congruence-filter"
REASON_NONSQUARE_DISC = "nonsquare-discriminant"
REASON_PELL = "pell-exhausted"
REASON_DIVISOR = "divisor-search"
REASON_BOX = "box-exhausted"


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
    """Minimal positive solution of x^2 - d*y^2 = 1, via the periodic
    continued-fraction expansion of sqrt(d); None when a convergent
    denominator passes y_limit before the solution is reached (its y is
    then larger). The denominators grow at least as fast as Fibonacci
    numbers, so the walk takes O(log y_limit) steps.

    The n-th convergent p_cur / q_cur has
    p_cur^2 - d*q_cur^2 = (-1)^(n+1) * q, with q the expansion's next
    denominator (Jacobson & Williams, Solving the Pell Equation, 2009),
    so the solution is at the first odd n with q = 1, and the walk
    squares no convergent."""
    if d <= 0:
        raise ValueError("d must be positive")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")
    m, q, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    odd = False  # the parity of the index n of p_cur / q_cur
    while True:
        m = q * a - m
        q = (d - m * m) // q
        if odd and q == 1:
            return PellSolution(x=p_cur, y=q_cur, D=d)
        if q_cur > y_limit:
            return None
        a = (a0 + m) // q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        odd = not odd


def _congruence_blocks(f: BinaryForm, t: int) -> bool:
    """True if some modulus in DEFAULT_MODULI rules out f(x, y) = t.
    Each modulus k stops at the first residues x, y with f(x, y) = t
    (mod k); y needs only 0..k/2, as f(-x, -y) = f(x, y). The modulus 8
    is left out: 8 divides 16, so f(x, y) = t (mod 16) gives
    f(x, y) = t (mod 8), and whenever 8 rules t out, so does 16."""
    return not all(
        _attains_mod(f.a % k, f.b % k, f.c % k, t % k, k) for k in DEFAULT_MODULI
    )


def _attains_mod(a: int, b: int, c: int, t: int, k: int) -> bool:
    """Whether a*x^2 + b*x*y + c*y^2 = t (mod k) for some x, 0 <= y <= k/2."""
    ys = range(k // 2 + 1)
    for x in range(k):
        rest, bx = a * x * x - t, b * x
        for y in ys:
            if not (rest + y * (bx + c * y)) % k:
                return True
    return False


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


def _pell_class_search(
    f: BinaryForm, t: int, search_bound: int
) -> Representation:
    """Decide f(x, y) = t for a form with leading coefficient 1 and
    positive nonsquare discriminant.

    Completing the square gives u^2 - disc*y^2 = 4t with u = 2x + b*y.
    Every solution class of the generalized Pell equation contains a
    representative with |y| below an exact bound derived from the
    fundamental unit (x, y), so a finite scan is a complete decision.
    With n = 4t, that bound passes search_bound S whenever
    y*|n| >= 2*S^2*sqrt(disc), as 2*(x - 1) < 2*y*sqrt(disc); the walk
    to the unit stops there, and the answer is "yes" or "unknown".
    """
    if f.a != 1:
        raise ValueError("the Pell-class search needs leading coefficient 1")
    disc = f.discriminant
    n = 4 * t
    fund = pell_fundamental(disc, math.isqrt(4 * search_bound**4 * disc // n**2) + 1)
    if fund is None:
        y_bound = search_bound + 1
    else:
        bound_sq = (fund.y * fund.y * abs(n)) // (2 * (fund.x - 1))
        y_bound = math.isqrt(bound_sq) + 1
    for y in range(min(y_bound, search_bound) + 1):
        rhs = n + disc * y * y
        if rhs < 0 or not _is_square(rhs):
            continue
        u = math.isqrt(rhs)
        for uu in ({u, -u} if u else {0}):
            if (uu - f.b * y) % 2 == 0:
                x = (uu - f.b * y) // 2
                if f.evaluate(x, y) == t:
                    return Representation(status="yes", witness=(x, y))
    if y_bound > search_bound:
        return Representation(status="unknown", reason=REASON_PELL)
    return Representation(status="no", reason=REASON_PELL)


def _int_roots(qa: int, qb: int, qc: int) -> list[int]:
    """The integer roots of qa*y^2 + qb*y + qc = 0 (qa != 0), ascending."""
    disc = qb * qb - 4 * qa * qc
    if not _is_square(disc):
        return []
    s = math.isqrt(disc)
    den = 2 * qa
    return sorted({num // den for num in (-qb - s, -qb + s) if num % den == 0})


def _first_in_box(
    f: BinaryForm, targets: tuple[int, ...], box: int
) -> Optional[tuple[int, int]]:
    """The first (r, s) in the box |r|, |s| <= box, r ascending, then s,
    with f(r, s) in targets. Each row costs one square test of
    D*r^2 + 4*c*t per target, and a root solve in s only on a hit:
    O(box), not O(box^2) (c != 0, as callers pass only nonsquare
    discriminants). A row r > 0 holds only mirrors (-r, -s) of hits in
    row -r, so it is not scanned."""
    a, b, c = f
    disc = f.discriminant
    for r in range(-box, 1):
        hits = []  # a plain loop: a comprehension per row costs a call
        for t in targets:
            if _is_square(disc * r * r + 4 * c * t):
                roots = _int_roots(c, b * r, a * r * r - t)
                hits += [s for s in roots if -box <= s <= box]
        if hits:
            return r, min(hits)
    return None


def _unimodular_to_leading_one(
    f: BinaryForm, box: int
) -> Optional[tuple[BinaryForm, Matrix]]:
    """An equivalent form with leading coefficient f(r, s) = +-1 at the
    first such (r, s) of the box, and the change of variables (a
    column-action matrix). gcd(r, s)^2 divides f(r, s) = +-1, so the
    point is primitive and completes to a unimodular matrix."""
    found = _first_in_box(f, (1, -1), box)
    if found is None:
        return None
    r, s = found
    _, xg, yg = _extended_gcd(r, s)
    q, p = xg, -yg  # r*q - s*p = r*xg + s*yg = 1
    a, b, c = f
    a2 = f.evaluate(r, s)
    b2 = 2 * a * r * p + b * (r * q + s * p) + 2 * c * s * q
    c2 = f.evaluate(p, q)
    return BinaryForm(a2, b2, c2), ((r, p), (s, q))


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

    One path: zero criterion / content filter / congruence filter /
    `_decide_primitive` on the primitive part, whose one Pell-class
    search scans at most search_bound + 1 rows.
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
    if _congruence_blocks(f, t):
        return Representation(status="no", reason=REASON_CONGRUENCE)
    result = _decide_primitive(f0, t // cont, search_bound)
    if result.status == "yes" and f.evaluate(*result.witness) != t:
        raise RuntimeError(f"witness {result.witness} does not represent {t}")
    return result


def _decide_primitive(
    f0: BinaryForm, t0: int, search_bound: int
) -> Representation:
    """A square discriminant goes to the complete `_divisor_search`. Any
    other f0 takes one path: a change of variables m to a or c = +-1 (the
    identity, else `_unimodular_to_leading_one`'s box-20 point), a sign
    making it 1, a swap putting it first, and one Pell-class search of at
    most search_bound + 1 rows; with no +-1 in the box, a box-50 scan."""
    if _is_square(f0.discriminant):
        w = _divisor_search(f0, t0)
        if w is None:
            return Representation(status="no", reason=REASON_DIVISOR)
        return Representation(status="yes", witness=w)
    f1, m = f0, ((1, 0), (0, 1))
    if not {f0.a, f0.c} & {1, -1}:
        found = _unimodular_to_leading_one(f0, box=20)
        if found is None:
            w = _first_in_box(f0, (t0,), min(50, search_bound))
            if w is None:
                return Representation(status="unknown", reason=REASON_BOX)
            return Representation(status="yes", witness=w)
        f1, m = found
    sign = 1 if 1 in (f1.a, f1.c) else -1
    a, b, c = sign * f1.a, sign * f1.b, sign * f1.c
    if a != 1:  # swap the variables: a and c trade places, as do m's columns
        a, c, m = c, a, (m[0][::-1], m[1][::-1])
    r = _pell_class_search(BinaryForm(a, b, c), sign * t0, search_bound)
    return r._replace(witness=mat_vec(m, r.witness)) if r.witness else r


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
