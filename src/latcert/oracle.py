"""Independent brute-force verifiers.

Every decision procedure in the package must agree with these scans on
small instances; the CLI exposes them behind --verify and `enumerate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .lattice import GramLattice, LowDegreeClass, inner, multiple_of, norm
from .matrices import (
    Matrix,
    Vector,
    adjugate,
    det,
    mat_mul,
    mat_vec,
    transpose,
)

DEFAULT_BOX_RADIUS = 50


def brute_values(g: GramLattice, radius: int) -> dict[int, Vector]:
    """All norms attained on the box [-radius, radius]^rank, with one
    witness each; the zero vector is excluded so the t = 0 entry means a
    nontrivial zero."""
    if g.rank > 2:
        raise ValueError("value scan supports rank <= 2 only")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    out: dict[int, Vector] = {}
    if g.rank == 1:
        vectors = ((x,) for x in range(-radius, radius + 1))
    else:
        vectors = (
            (x, y)
            for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
        )
    for v in vectors:
        if all(c == 0 for c in v):
            continue
        t = norm(g, v)
        if t not in out:
            out[t] = v
    return out


def _ceil_sqrt_fraction(q: Fraction) -> int:
    """Smallest integer >= sqrt(q) for a nonnegative rational q."""
    if q < 0:
        raise ValueError("negative radicand")
    # ceil(sqrt(p/r)) = ceil(sqrt(p*r)/r)
    p, r = q.numerator, q.denominator
    s = math.isqrt(p * r)
    if s * s < p * r:
        s += 1
    return -(-s // r)


def required_box_radius(g: GramLattice, h: Vector, bound: int) -> int:
    """A box radius provably containing every class C with
    0 < inner(C, h) < bound and norm(C) > 0, for rank-2 g.

    Splits C = t*h + s*v0 with v0 a primitive vector orthogonal to h;
    norm(v0) < 0 in signature (1,1), so norm(C) > 0 bounds |s|.
    """
    if g.rank != 2:
        raise ValueError("rank 2 only")
    nh = norm(g, h)
    if nh <= 0:
        raise ValueError("polarization must have positive norm")
    w = mat_vec(g.entries, h)
    gcd_w = math.gcd(*w)
    v0 = (w[1] // gcd_w, -w[0] // gcd_w)
    nv0 = norm(g, v0)
    if nv0 >= 0:
        raise ValueError("orthogonal direction not negative; signature not (1,1)?")
    t_max = Fraction(bound - 1, nh)
    s_max_sq = t_max * t_max * Fraction(nh, -nv0)
    s_max = _ceil_sqrt_fraction(s_max_sq)
    radius = 0
    for i in range(2):
        radius = max(
            radius,
            _ceil_sqrt_fraction((t_max * abs(h[i]) + s_max * abs(v0[i])) ** 2),
        )
    return radius + 1


def brute_low_degree(
    g: GramLattice, h: Vector, bound: int, radius: Optional[int] = None
) -> list[LowDegreeClass]:
    """Exhaustive box enumeration of classes with 0 < degree < bound and
    positive square. The box radius is validated (or derived) from the
    exact degree-window analysis, so the scan is provably complete."""
    needed = required_box_radius(g, h, bound)
    if radius is None:
        radius = needed
    elif radius < needed:
        raise ValueError(
            f"box radius {radius} insufficient; need at least {needed}"
        )
    out = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            c = (x, y)
            d = inner(g, c, h)
            if not 0 < d < bound:
                continue
            sq = norm(g, c)
            if sq <= 0:
                continue
            out.append(
                LowDegreeClass(
                    coords=c,
                    degree=d,
                    square=sq,
                    multiple_of_h=multiple_of(c, h),
                )
            )
    out.sort(key=lambda cls: (cls.degree, cls.coords))
    return out


def brute_pell(d: int, y_max: int) -> Optional[tuple[int, int]]:
    """Smallest (x, y) with y in 1..y_max and x^2 - d*y^2 = 1, if any."""
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be a positive nonsquare")
    for y in range(1, y_max + 1):
        rhs = d * y * y + 1
        x = math.isqrt(rhs)
        if x * x == rhs:
            return x, y
    return None


def brute_action_order(g: GramLattice, m: Matrix) -> Optional[int]:
    """Least n <= |det G| with m^n acting trivially on L*/L, i.e. with
    m^n adj(G) = adj(G) mod |det G|, because L* = adj(G) Z^r / det G.
    Independent of the structured action machinery."""
    if mat_mul(transpose(m), mat_mul(g.entries, m)) != g.entries:
        raise ValueError("matrix is not an isometry")
    mod = abs(det(g.entries))

    def reduce(a: Matrix) -> Matrix:
        return tuple(tuple(x % mod for x in row) for row in a)

    adj = reduce(adjugate(g.entries))
    image = adj
    for n in range(1, mod + 1):
        image = reduce(mat_mul(m, image))
        if image == adj:
            return n
    return None
