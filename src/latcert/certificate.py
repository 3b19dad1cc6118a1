"""Certificate pipeline: the five lattice-side checks behind the
negative answer to Gizatullin's question, assembled into a structured,
machine-readable verdict.

Steps:
  S1  the lattice is even, rank 2, signature (1,1)
  S2  the lattice represents neither 0 nor -2
  S3  the polarization is primitive of norm 4
  S4  every class of degree < degree_bound with positive square is an
      integer multiple of the polarization
  S5  an infinite-order cone-preserving isometry moves the polarization

Geometric ingredients (very-ampleness, Torelli/Nikulin realization, the
log Sarkisov degree bound, finiteness of the linear stabilizer) are
cited in the report, not recomputed.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

from . import quadform
from .discgroup import action_order, discriminant_group, induced_action
from .isometry import char_poly_rank2, order, preserves_positive_cone
from .lattice import (
    GramLattice,
    LowDegreeClass,
    determinant,
    inner,
    is_even,
    is_integer_array,
    is_primitive,
    multiple_of,
    norm,
    signature,
)
from .matrices import Matrix, Vector, from_rows, mat_vec

FORMAT_VERSION = "1"
DEFAULT_DEGREE_BOUND = 16
# S4 lists every class of degree < degree_bound, and their number grows
# as degree_bound^2 (261,121 at 1024 for [[4,1],[1,0]]); the paper needs 16.
MAX_DEGREE_BOUND = 1024
POLARIZATION_NORM = 4

# The published lemma states the dominant eigenvalue of the isometry as
# 5 + 4*sqrt(6); the matrix it defines has characteristic polynomial
# x^2 - 10x + 1, whose dominant root is 5 + 2*sqrt(6). The certificate
# flags the mismatch; the infinite-order conclusion is unaffected.
PUBLISHED_GRAM = ((4, 20), (20, 4))
PUBLISHED_EIGENVALUE_CLAIM = "5 + 4*sqrt(6)"

CITED_STEPS = (
    "very ampleness of the polarization: Saint-Donat, Theorem 6.1",
    "realization of the isometry power as an automorphism: "
    "Nikulin, Proposition 1.6.1 and the global Torelli theorem",
    "degree bound 16 for quartics: Takahashi's log Sarkisov theorem",
    "finiteness of the linear stabilizer: Hilbert-scheme argument "
    "with H^0(T_S) = 0",
)


class _InputFields(NamedTuple):
    gram: GramLattice
    polarization: Vector
    isometry: Optional[Matrix] = None
    degree_bound: int = DEFAULT_DEGREE_BOUND
    search_bound: int = quadform.DEFAULT_SEARCH_BOUND


class CertificateInput(_InputFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, *args, **kwargs):  # every command's input rules
        self = super().__new__(cls, *args, **kwargs)
        g, h, m = self[:3]
        if not isinstance(g, GramLattice):
            g = GramLattice(g)  # a bad gram is reported first
        if not is_integer_array(h, 1):
            raise ValueError("field polarization must be an integer array")
        if m is not None and not is_integer_array(m, 2):
            raise ValueError("field isometry must be a 2D integer array")
        for key in ("degree_bound", "search_bound"):
            if not is_integer_array(getattr(self, key), 0):
                raise ValueError(f"field {key} must be a positive integer")
        if len(h) != 2:
            raise ValueError("field polarization must have 2 entries")
        if not (h[0] or h[1]):
            raise ValueError("polarization must be nonzero")
        if m is not None and (len(m) != 2 or len(m[0]) != 2 or len(m[1]) != 2):
            raise ValueError("field isometry must be a 2x2 matrix")
        if self.degree_bound < 1:
            raise ValueError("degree_bound must be >= 1")
        if self.degree_bound > MAX_DEGREE_BOUND:
            raise ValueError(f"degree_bound must be at most {MAX_DEGREE_BOUND}")
        if self.search_bound < 1:
            raise ValueError("search_bound must be >= 1")
        m = None if m is None else from_rows(m)  # lists are stored as tuples
        return super().__new__(cls, g, tuple(h), m, *self[3:])


class StepResult(NamedTuple):
    """One row of the report; its fields, in order, are the keys of a
    step in the report document."""

    id: str
    status: str  # "pass", "fail", "unknown" or "skipped"
    witness: Optional[object]
    citation: str
    details: dict


class CertificateReport(NamedTuple):
    steps: tuple[StepResult, ...]
    verdict: str  # "pass", "fail" or "unknown"
    notes: tuple[str, ...]
    timing: dict  # step id -> wall time in ms; == ignores it

    def __eq__(self, other) -> bool:
        if not isinstance(other, CertificateReport):
            return NotImplemented
        return self[:3] == other[:3]

    __ne__ = object.__ne__  # the negation of __eq__, not tuple inequality

    def step(self, step_id: str) -> StepResult:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(step_id)


def check_S1_lattice(g: GramLattice) -> StepResult:
    """Even, rank 2, signature (1,1)."""
    citation = "Lemma morrison: even lattice of rank 2 with signature (1,1)"
    problems = []
    if not is_even(g):
        problems.append("lattice is not even")
    sig = signature(g)
    if (sig.positive, sig.negative) != (1, 1):
        problems.append(f"signature is ({sig.positive},{sig.negative})")
    details = {"signature": (sig.positive, sig.negative)}
    if problems:
        return StepResult("S1", "fail", "; ".join(problems), citation, details)
    return StepResult("S1", "pass", None, citation, details)


def check_S2_no_0_minus2(g: GramLattice, search_bound: int) -> StepResult:
    """Neither 0 nor -2 is represented."""
    citation = "Lemma rational curve: NS(S) represents neither 0 nor -2"
    details = {}
    witnesses = []
    saw_unknown = False
    for target in (0, -2):
        rep = quadform.represents_value(g, target, search_bound)
        details[f"t={target}"] = {"status": rep.status, "reason": rep.reason}
        if rep.steps is not None:  # the rho-steps of the cycle walk
            details[f"t={target}"]["steps"] = rep.steps
        if rep.status == "yes":
            witnesses.append({"target": target, "vector": rep.witness})
        elif rep.status == "unknown":
            saw_unknown = True
    if witnesses:
        return StepResult("S2", "fail", witnesses, citation, details)
    if saw_unknown:
        return StepResult("S2", "unknown", None, citation, details)
    return StepResult("S2", "pass", None, citation, details)


def normalize_polarization(h: Vector) -> tuple[Vector, bool]:
    """Sign-normalize so the leading nonzero coordinate is positive;
    mirrors the published replacement of h1 by -h1."""
    for x in h:
        if x != 0:
            if x < 0:
                return tuple(-c for c in h), True
            return h, False
    raise ValueError("zero polarization")


def check_S3_polarization(g: GramLattice, h: Vector) -> StepResult:
    """Primitive, norm 4 (lattice side of very-ampleness)."""
    citation = (
        "Lemma veryample: h1 non-divisible with (h1^2)_S = 4; "
        "very ampleness via Saint-Donat Thm 6.1 (cited)"
    )
    h_norm, negated = normalize_polarization(h)
    h_sq = norm(g, h_norm)
    details = {"normalized": negated, "norm": h_sq}
    problems = []
    if not is_primitive(h_norm):
        problems.append(f"polarization {h_norm} is not primitive")
    if h_sq != POLARIZATION_NORM:
        problems.append(f"norm is {h_sq}, expected {POLARIZATION_NORM}")
    if problems:
        return StepResult("S3", "fail", "; ".join(problems), citation, details)
    return StepResult("S3", "pass", None, citation, details)


def _degree_window(a_coef: int, b_coef: int, disc: int) -> tuple[int, int]:
    """k_lo, k_hi: the roots (b_coef -+ sqrt(disc)) / (2*|a_coef|), a_coef < 0,
    rounded outward exactly in integers, with one k to spare on each side."""
    spread, width = math.isqrt(disc) + 1, -2 * a_coef
    return (b_coef - spread) // width - 1, -((-b_coef - spread) // width) + 1


def enumerate_low_degree(
    g: GramLattice, h: Vector, bound: int
) -> list[LowDegreeClass]:
    """All integer classes C with 0 < inner(C, h) < bound and
    norm(C) > 0, by exact per-degree window analysis.

    For each degree d the constraint inner(C, h) = d is a line of
    integer points; along that line the square is a downward parabola
    (the direction vector is orthogonal to h, hence of negative square
    in signature (1,1)), so the window of positive-square points is
    finite and its endpoints are computed exactly. The classes come in
    (degree, coords) order: the lines in ascending degree, and each line
    walked along a lexicographically positive direction.

    Precondition, which S1 and S3 establish: norm(h) > 0 and g has
    signature (1,1), so the direction has negative square; else
    ValueError.
    """
    if norm(g, h) <= 0:
        raise ValueError("polarization must have positive norm")
    w = mat_vec(g.entries, h)  # inner(C, h) = w . C
    gcd_w = math.gcd(*w)
    direction = (w[1] // gcd_w, -w[0] // gcd_w)
    if direction < (0, 0):  # k ascending walks each line in coordinate order
        direction = (-direction[0], -direction[1])
    a_coef = norm(g, direction)
    if a_coef >= 0:
        raise ValueError("orthogonal direction not negative; signature not (1,1)?")
    _, x0, y0 = quadform._extended_gcd(w[0], w[1])
    # Degree d = scale * gcd_w is the line scale * (x0, y0) + k * direction,
    # on which the square is a_coef*k^2 + scale*b1*k + scale^2*c1.
    b1 = 2 * inner(g, (x0, y0), direction)
    c1 = norm(g, (x0, y0))
    out = []
    for scale in range(1, (bound - 1) // gcd_w + 1):
        b_coef, c_coef = scale * b1, scale * scale * c1
        disc = b_coef * b_coef - 4 * a_coef * c_coef
        if disc <= 0:
            continue
        d, bx, by = scale * gcd_w, scale * x0, scale * y0
        k_lo, k_hi = _degree_window(a_coef, b_coef, disc)
        for k in range(k_lo, k_hi + 1):
            square = (a_coef * k + b_coef) * k + c_coef
            if square <= 0:
                continue
            c = (bx + k * direction[0], by + k * direction[1])
            out.append(LowDegreeClass(c, d, square, multiple_of(c, h)))
    return out


def check_S4_low_degree(
    g: GramLattice, h: Vector, degree_bound: int
) -> StepResult:
    """Every positive class of degree < degree_bound lies in Z*h."""
    citation = (
        "Lemma num: C = mh for every curve class of degree < 16; "
        "bound from Theorem logsarkisov(2)"
    )
    h_norm, _ = normalize_polarization(h)
    listing = [
        {"coords": list(xy), "degree": d, "square": sq, "multiple_of_h": m}
        for xy, d, sq, m in enumerate_low_degree(g, h_norm, degree_bound)
    ]
    details = {"classes": listing, "degree_bound": degree_bound}
    for row in listing:
        if row["multiple_of_h"] is None:
            witness = {k: row[k] for k in ("coords", "degree", "square")}
            return StepResult("S4", "fail", witness, citation, details)
    return StepResult("S4", "pass", None, citation, details)


def check_S5_isometry(
    g: GramLattice, h: Vector, m: Optional[Matrix], search_bound: int
) -> StepResult:
    """Infinite-order cone-preserving isometry moving the polarization,
    plus the least n acting trivially on the discriminant group.

    Precondition, which S1-S3 establish: v.G.v has content k in {2, 4}
    (S3's primitive h of norm 4 on an even lattice forces k | 4 and
    2 | k) and a positive nonsquare discriminant; else ValueError.

    With no isometry supplied, S5 checks the automorph generator
    M = [[(t - b*u)/2, -c*u], [a*u, (t + b*u)/2]] of the primitive form
    v.G.v / k = a*x^2 + b*x*y + c*y^2 of discriminant D, with
    t^2 - D*u^2 = 4 and u >= 1 least (one scan up to search_bound^2,
    else "unknown"); no other candidate is needed. det M = 1 and t > 2,
    so M has infinite order and eigenvalues l, 1/l > 0, with isotropic
    eigenvectors v, w (norm(v) = norm(l*v) = l^2 * norm(v)).
    For h = x*v + y*w, inner(M*h, h) = (l + 1/l) * x*y * inner(v, w) =
    (t/2) * norm(h): M preserves each cone, and M*h = h would make 1 an
    eigenvalue, so M moves every h of positive norm.
    """
    citation = (
        "Lemma autom: infinite-order isometry with g*(h) != h; "
        "sigma^n = id on the discriminant group; realization via "
        "Nikulin Prop. 1.6.1 and global Torelli (cited)"
    )
    f0, k = quadform.primitive_part(quadform.to_binary_form(g))
    disc = f0.discriminant
    if k not in (2, 4) or disc <= 0 or math.isqrt(disc) ** 2 == disc:
        raise ValueError(
            "S5 needs S1-S3: v.G.v must have content 2 or 4 and a positive "
            "nonsquare discriminant"
        )
    h, _ = normalize_polarization(h)
    if m is None:
        m = quadform.automorph_generator(f0, search_bound)
        if m is None:
            reason = f"no automorph with u <= search_bound^2 = {search_bound**2}"
            return StepResult("S5", "unknown", None, citation, {"reason": reason})
    try:
        action = induced_action(g, m)  # the one check of M^T * G * M = G
    except ValueError:
        return StepResult("S5", "fail", "matrix is not an isometry", citation, {})
    char = char_poly_rank2(m)
    root = str(char.dominant_root) if char.dominant_root else None
    details = {
        "char_poly": {"trace": char.trace, "det": char.det},
        "dominant_root": root,
    }
    claimed = PUBLISHED_EIGENVALUE_CLAIM
    if g.entries == PUBLISHED_GRAM and root not in (None, claimed):
        details["eigenvalue_discrepancy"] = (
            f"published claim {claimed} does not "
            f"match the computed dominant root {root} of the "
            "supplied isometry; infinite-order conclusion unaffected"
        )
    problems = []
    if not preserves_positive_cone(g, m, h):
        problems.append("isometry does not preserve the positive cone")
    finite = order(m)
    if finite is not None:
        problems.append(f"isometry has finite order {finite}")
    moves = mat_vec(m, h) != h
    if not moves:
        problems.append("isometry fixes the polarization")
    details["moves_polarization"] = moves
    if problems:
        return StepResult("S5", "fail", "; ".join(problems), citation, details)
    n = action_order(action)
    if n is None:  # action_order proves n <= 6 under the precondition
        raise RuntimeError("induced action on L*/L has no order <= 6")
    details["disc_action_order"] = n
    details["isometry"] = [list(row) for row in m]
    return StepResult("S5", "pass", None, citation, details)


def run_certificate(inp: CertificateInput) -> CertificateReport:
    """Run S1-S5 in order, timing each step; the first step that does
    not pass blocks the rest, which are reported as skipped."""
    # Step functions are looked up at call time, so rebinding a module
    # attribute (as a tracer does) takes effect.
    g, h = inp.gram, inp.polarization
    steps: list[StepResult] = []
    timing = {}
    verdict = "pass"
    for step_id, check, args in (
        ("S1", check_S1_lattice, (g,)),
        ("S2", check_S2_no_0_minus2, (g, inp.search_bound)),
        ("S3", check_S3_polarization, (g, h)),
        ("S4", check_S4_low_degree, (g, h, inp.degree_bound)),
        ("S5", check_S5_isometry, (g, h, inp.isometry, inp.search_bound)),
    ):
        if verdict != "pass":
            steps.append(StepResult(step_id, "skipped", None, "", {}))
            continue
        start = time.perf_counter()
        steps.append(check(*args))
        timing[step_id] = round((time.perf_counter() - start) * 1000, 3)
        verdict = steps[-1].status
    return CertificateReport(
        steps=tuple(steps), verdict=verdict, notes=CITED_STEPS, timing=timing
    )


def report_document(
    inp: CertificateInput, report: CertificateReport
) -> dict:
    """The JSON-ready report document (format FORMAT_VERSION) that
    `latcert check --format json` prints, without the --verify block."""
    s5 = report.step("S5").details
    return {
        "format_version": FORMAT_VERSION,
        "verdict": report.verdict,
        "steps": [s._asdict() for s in report.steps],
        "derived": {
            "det": determinant(inp.gram),
            "signature": list(report.step("S1").details["signature"]),
            "invariant_factors": list(
                discriminant_group(inp.gram).invariant_factors
            ),
            "disc_action_order": s5.get("disc_action_order"),
            "char_poly": s5.get("char_poly"),
            "dominant_root": s5.get("dominant_root"),
        },
        "notes": list(report.notes),
        "timing": report.timing,
    }
