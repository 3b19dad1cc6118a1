"""Independent brute-force verifiers.

Every decision procedure in the package must agree with these scans on
small instances; the CLI exposes them behind --verify and `enumerate`.
"""

from __future__ import annotations

import math
from typing import Optional

from .lattice import GramLattice, LowDegreeClass, multiple_of, norm
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
# Largest box radius an input document may ask for. At this radius the
# rank-2 value scan visits 161,201 points and keeps at most 80,401 values
# (v and -v share one); it took 45-90 ms and about 25 MB on a 2-vCPU Xeon
# VM with CPython 3.11, and a whole `check --verify` process 0.2-0.3 s.
MAX_BOX_RADIUS = 200


def brute_values(
    g: GramLattice, radius: int, targets: Optional[tuple[int, ...]] = None
) -> dict[int, Vector]:
    """All norms attained on the box [-radius, radius]^2, with one
    witness each; the zero vector is excluded so the t = 0 entry means a
    nontrivial zero. The witness of a norm is the first vector that
    attains it in lexicographic order. With targets given, only those
    norms are kept, and the scan stops once each has its witness.

    The scan evaluates a*x^2 + 2b*x*y + c*y^2 directly, with the
    x-terms taken out of the inner loop: O(radius^2) time."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    (a, b), (_, c) = g.entries
    box = range(-radius, radius + 1)
    keep = None if targets is None else set(targets)
    out: dict[int, Vector] = {}
    for x in box:
        ax2 = a * x * x
        bx2 = 2 * b * x
        for y in box:
            t = ax2 + y * (bx2 + c * y)
            if t not in out and (x or y) and (keep is None or t in keep):
                out[t] = (x, y)
                if keep is not None and len(out) == len(keep):
                    return out
    return out


def _ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer >= sqrt(num / den), for num >= 0 and den > 0."""
    if num < 0:
        raise ValueError("negative radicand")
    # ceil(sqrt(num/den)) = ceil(ceil(sqrt(num*den)) / den)
    s = math.isqrt(num * den)
    if s * s < num * den:
        s += 1
    return -(-s // den)


def required_box_radius(g: GramLattice, h: Vector, bound: int) -> int:
    """A box radius provably containing every class C with
    0 < inner(C, h) < bound and norm(C) > 0.

    Splits C = t*h + s*v0 with v0 a primitive vector orthogonal to h;
    norm(v0) < 0 in signature (1,1), so norm(C) > 0 bounds |s|.
    """
    nh = norm(g, h)
    if nh <= 0:
        raise ValueError("polarization must have positive norm")
    w = mat_vec(g.entries, h)
    gcd_w = math.gcd(*w)
    v0 = (w[1] // gcd_w, -w[0] // gcd_w)
    nv0 = norm(g, v0)
    if nv0 >= 0:
        raise ValueError("orthogonal direction not negative; signature not (1,1)?")
    # C = t*h + s*v0 with rational t, s: 0 < t*nh < bound and
    # norm(C) > 0 give s^2 < t^2 * nh / -nv0 <= (bound - 1)^2 / (nh * -nv0).
    s_max = _ceil_sqrt_ratio((bound - 1) ** 2, nh * -nv0)
    # |C_i| <= t_max * |h_i| + s_max * |v0_i| with t_max = (bound - 1) / nh
    radius = max(
        -(-abs((bound - 1) * abs(h[i]) + s_max * abs(v0[i]) * nh) // nh)
        for i in range(2)
    )
    return radius + 1


def brute_low_degree(
    g: GramLattice, h: Vector, bound: int, radius: Optional[int] = None
) -> list[LowDegreeClass]:
    """Exhaustive box enumeration of classes with 0 < degree < bound and
    positive square. The box radius is validated (or derived) from the
    exact degree-window analysis, so the scan is provably complete. With
    G*h = (p, q) the degree of (x, y) is p*x + q*y; the square is
    evaluated only inside the degree window."""
    needed = required_box_radius(g, h, bound)
    if radius is None:
        radius = needed
    elif radius < needed:
        raise ValueError(
            f"box radius {radius} insufficient; need at least {needed}"
        )
    (a, b), (_, c) = g.entries
    p, q = mat_vec(g.entries, h)
    box = range(-radius, radius + 1)
    out = []
    for x in box:
        px = p * x
        ax2 = a * x * x
        bx2 = 2 * b * x
        for y in box:
            d = px + q * y
            if not 0 < d < bound:
                continue
            sq = ax2 + y * (bx2 + c * y)
            if sq <= 0:
                continue
            out.append(
                LowDegreeClass(
                    coords=(x, y),
                    degree=d,
                    square=sq,
                    multiple_of_h=multiple_of((x, y), h),
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
