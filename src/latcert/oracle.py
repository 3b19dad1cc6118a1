"""Independent brute-force verifiers.

Every decision procedure in the package must agree with these scans on
small instances; the CLI runs them only behind `check --verify`.
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
# Largest box radius a document or brute_low_degree may use; the
# low-degree scan of that box visits 161,201 points.
MAX_BOX_RADIUS = 200


def brute_values(
    g: GramLattice, radius: int, targets: tuple[int, ...]
) -> dict[int, Vector]:
    """The target norms attained on the box [-radius, radius]^2, with
    one witness each; the zero vector is excluded so the t = 0 entry
    means a nontrivial zero. The witness of a norm is the first vector
    that attains it in lexicographic order, so it lies in a row x <= 0.
    Each target is found by solving the rows -radius..0 for y:
    O(radius) per target."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    (a, b), (_, c) = g.entries
    out: dict[int, Vector] = {}
    for t in set(targets):
        for x in range(-radius, 1):
            y = _first_y(a, b, c, x, t, radius)
            if y is not None:
                out[t] = (x, y)
                break
    return out


def _first_y(a: int, b: int, c: int, x: int, t: int, radius: int) -> Optional[int]:
    """The least y in [-radius, radius] with norm t at (x, y) != 0, or None."""
    rest = a * x * x - t  # c*y^2 + 2b*x*y + rest = 0
    if c:  # y = (-b*x +- s) / c with s^2 = (b*x)^2 - c*rest
        e = b * b * x * x - c * rest
        s = math.isqrt(max(e, 0))
        ys = [n // c for n in (-b * x - s, -b * x + s) if s * s == e and n % c == 0]
    elif b * x:
        ys = [-rest // (2 * b * x)] if rest % (2 * b * x) == 0 else []
    else:
        ys = [-radius] if rest == 0 else []  # every y solves
    return min((y for y in ys if -radius <= y <= radius and (x or y)), default=None)


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


def brute_low_degree(g: GramLattice, h: Vector, bound: int) -> list[LowDegreeClass]:
    """Exhaustive box enumeration of classes with 0 < degree < bound and
    positive square. The box radius is derived from the exact
    degree-window analysis, so the scan is provably complete, and a box
    wider than MAX_BOX_RADIUS is refused. With G*h = (p, q) the degree
    of (x, y) is p*x + q*y; the square is evaluated only inside the
    degree window."""
    radius = required_box_radius(g, h, bound)
    if radius > MAX_BOX_RADIUS:  # the scan visits (2*radius + 1)^2 points
        raise ValueError(
            f"degree bound {bound} needs a low-degree box radius of {radius}; "
            f"the limit is {MAX_BOX_RADIUS}"
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
