"""Independent brute-force verifiers.

Every decision procedure in the package must agree with these scans on
small instances; the CLI runs them only behind `check --verify`. The
scans are complete where a radius is derived for them: S4's classes
lie in the box `required_box_radius` gives, and S2's values 0 and -2,
when represented at all, in the box `required_values_radius` gives.
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

# The radius of the refute-only value scan, where required_values_radius
# derives none.
DEFAULT_BOX_RADIUS = 50
# Largest box radius brute_low_degree scans or required_values_radius
# gives; the low-degree scan of that box visits 161,201 points.
MAX_BOX_RADIUS = 200
# Largest u the value referee tries in s^2 - D*u^2 = 4.
UNIT_SEARCH_CAP = 10_000


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


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def required_values_radius(g: GramLattice, t: int) -> Optional[int]:
    """A box radius r <= MAX_BOX_RADIUS such that g represents t if and
    only if brute_values(g, r, (t,)) finds t, or None where the proof
    below gives no such r.

    Write f(x, y) = norm(g, (x, y)) = k*(a*x^2 + b*x*y + c*y^2) with
    content k, and D = -4*det G = k^2 * D0.
    - t = 0: f has a nontrivial zero iff D is a square. A nonsquare D
      gives 1, as no box holds a zero; a square D gives None.
    - t != 0 and k does not divide t: t is not represented; 1.
    - Otherwise f = t iff f0 = (a, b, c) takes the value m = t/k. For a
      positive nonsquare D0, let (s, u) be the least solution with
      u >= 1 of s^2 - D0*u^2 = 4, found by a linear search in u up to
      UNIT_SEARCH_CAP (None past it); the search stops early, with None,
      where the box would be wider than MAX_BOX_RADIUS. Any solution
      would do; the least gives the smallest box. A definite or square
      D0 gives None.

    Proof of the box (Buchmann & Vollmer, Binary Quadratic Forms,
    ch. 6). As D0 is not a square, a != 0. Put
        xi = a*x + (b + sqrt D0)/2 * y,   xi' = a*x + (b - sqrt D0)/2 * y,
    so that xi*xi' = a*f0(x, y), and a solution has xi*xi' = a*m != 0.
    The matrix A = [[(s - b*u)/2, -c*u], [a*u, (s + b*u)/2]] is integral
    (s^2 = b^2*u^2 mod 4, so s = b*u mod 2) with determinant 1. It maps
    xi to eps*xi and xi' to xi'/eps, with eps = (s + u*sqrt D0)/2, so it
    preserves f0 = xi*xi'/a; and 1 < eps < s, as u*sqrt D0 < s. A power
    of A or of its inverse thus takes any solution to a solution with
    1/eps <= |xi/xi'| < eps, where |xi|, |xi'| <= sqrt(eps*N) < sqrt(s*N)
    with N = |a*m|. From sqrt(D0)*y = xi - xi' and 2a*x = xi + xi' - b*y,
        |y| < 2*sqrt(s*N/D0),   |x| < (sqrt(s*N) + |b|*sqrt(s*N/D0))/|a|,
    and r is the larger bound, each square root rounded up in integers.
    """
    (a, b), (_, c) = g.entries  # f = a*x^2 + 2b*x*y + c*y^2
    disc = 4 * (b * b - a * c)
    if t == 0:
        return None if _is_square(disc) else 1
    k = math.gcd(a, 2 * b, c)
    if t % k:
        return 1
    a, b, m, disc = a // k, 2 * b // k, t // k, disc // (k * k)
    if disc <= 0 or _is_square(disc):
        return None
    n = abs(a * m)
    # The box grows with s and, past s_max, is wider than MAX_BOX_RADIUS
    # by the bound on x alone or on y alone; so is every u past u_max.
    s_max = min(MAX_BOX_RADIUS**2 * a * a // n, MAX_BOX_RADIUS**2 * disc // (4 * n))
    u_max = math.isqrt(max(s_max * s_max - 4, 0) // disc)
    for u in range(1, min(u_max, UNIT_SEARCH_CAP) + 1):
        square = disc * u * u + 4
        s = math.isqrt(square)
        if s * s == square:
            break
    else:
        return None
    sn = s * n
    y = _ceil_sqrt_ratio(4 * sn, disc)
    x = -(-(_ceil_sqrt_ratio(sn, 1) + abs(b) * _ceil_sqrt_ratio(sn, disc)) // abs(a))
    radius = max(x, y)
    return radius if radius <= MAX_BOX_RADIUS else None


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
