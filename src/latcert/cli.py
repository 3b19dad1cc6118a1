"""Command-line front end.

Subcommands: check, pell, disc, orbit, enumerate. Input is a JSON
document with integer entries only; unknown fields are rejected. Exit
codes for `check`: 0 pass, 1 fail, 2 unknown, 3 input/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .certificate import (
    CertificateInput,
    CertificateReport,
    enumerate_low_degree,
    normalize_polarization,
    report_document,
    run_certificate,
)
from .discgroup import discriminant_group
from .isometry import char_poly_rank2, is_isometry, polarization_orbit, ratio
from .lattice import norm
from .matrices import from_rows
from .oracle import (
    DEFAULT_BOX_RADIUS,
    brute_action_order,
    brute_low_degree,
    brute_values,
    required_values_radius,
)
from .quadform import pell_fundamental

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def load_document(path: str, degree_bound: Optional[int] = None) -> CertificateInput:
    """The CertificateInput of a document, with the JSON checks only:
    CertificateInput owns the field rules, integer entries included, and
    the defaults. A degree bound given on the command line overrides the
    document's."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read input document: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # overlong ints, deep nesting
        raise ValueError(f"malformed JSON in input document: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("input document must be a JSON object")
    unknown = set(raw) - set(CertificateInput._fields)
    if unknown:
        raise ValueError(
            f"unknown field(s) in input document: {', '.join(sorted(unknown))}"
        )
    for key in ("gram", "polarization"):
        if key not in raw:
            raise ValueError(f"missing required field: {key}")
    if degree_bound is not None:
        raw["degree_bound"] = degree_bound
    return CertificateInput(**raw)


def _run_verify(inp: CertificateInput, report: CertificateReport) -> dict:
    """Cross-check the pipeline against the brute-force oracles."""
    g = inp.gram
    out = {}

    # complete: the box holds a witness of each target g represents
    radii = [required_values_radius(g, t) for t in (0, -2)]
    complete = None not in radii
    radius = max(radii) if complete else DEFAULT_BOX_RADIUS
    values = brute_values(g, radius, targets=(0, -2))
    s2 = report.step("S2")
    # a box witness refutes S2's "no" at its target (a skipped S2 says
    # nothing); a pipeline witness must have its target norm wherever it lies
    agree = all(
        s2.details.get(f"t={t}", {}).get("status") != "no" for t in values
    ) and all(norm(g, w["vector"]) == w["target"] for w in s2.witness or ())
    confirmed = complete and s2.status == "pass"
    out["values_box_scan"] = {
        "status": "mismatch" if not agree else "confirmed" if confirmed else "agree",
        "box_radius": radius,
        "complete": complete,
        "witnesses": {str(t): list(v) for t, v in values.items()},
    }

    s4 = report.step("S4")
    if s4.status in ("pass", "fail"):
        h, _ = normalize_polarization(inp.polarization)
        oracle_classes = brute_low_degree(g, h, inp.degree_bound)
        pipeline = {tuple(c["coords"]) for c in s4.details["classes"]}
        oracle_set = {c.coords for c in oracle_classes}
        out["low_degree_enumeration"] = {
            "status": "agree" if pipeline == oracle_set else "mismatch",
            "count": len(oracle_set),
        }

    s5 = report.step("S5")
    if s5.status == "pass" and s5.details.get("isometry"):
        m = from_rows(s5.details["isometry"])
        n_oracle = brute_action_order(g, m)
        n_pipeline = s5.details.get("disc_action_order")
        out["disc_action_order"] = {
            "status": "agree" if n_oracle == n_pipeline else "mismatch",
            "oracle": n_oracle,
            "pipeline": n_pipeline,
        }
    return out


def _emit(doc: dict, fmt: str) -> None:
    """Print the report whole: the text is built before the first print,
    so an integer past the print limit leaves stdout empty."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    lines = [f"verdict: {doc['verdict']}"]
    for s in doc["steps"]:
        line = f"  {s['id']}: {s['status']}"
        if s["witness"] is not None:
            line += f"  witness={s['witness']}"
        lines.append(line)
    derived = doc["derived"]
    lines.append(f"  det={derived['det']} signature={derived['signature']}")
    lines.append(f"  invariant_factors={derived['invariant_factors']}")
    if derived["disc_action_order"] is not None:
        lines.append(f"  disc_action_order={derived['disc_action_order']}")
    if derived["dominant_root"]:
        lines.append(f"  dominant_root={derived['dominant_root']}")
    if "verify" in doc:
        for name, v in doc["verify"].items():
            lines.append(f"  verify {name}: {v['status']}")
    for step_id, ms in doc["timing"].items():
        lines.append(f"  timing {step_id}: {ms} ms")
    print("\n".join(lines))


def cmd_check(args) -> int:
    inp = load_document(args.path, args.degree_bound)
    report = run_certificate(inp)
    out = report_document(inp, report)
    if args.verify:
        out["verify"] = _run_verify(inp, report)
        if any(v["status"] == "mismatch" for v in out["verify"].values()):
            out["verdict"] = "fail"
    _emit(out, args.format)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "unknown": EXIT_UNKNOWN}[
        out["verdict"]
    ]


def _print_limit() -> int:
    """The most digits str() prints of an integer: the interpreter's
    limit, or its default when that limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def cmd_pell(args) -> int:
    digits = _print_limit()
    # The walk stops once y is too long to print; x > y is checked too.
    sol = pell_fundamental(args.d, 10**digits)
    if sol is None or sol.x >= 10**digits:
        raise ValueError(
            f"the entries of the least solution of x^2 - {args.d}*y^2 = 1 "
            f"exceed the {digits}-digit limit for printing an integer"
        )
    if args.format == "json":
        print(json.dumps({"D": sol.D, "x": sol.x, "y": sol.y}, sort_keys=True))
    else:
        print(f"({sol.x}, {sol.y})")
    return EXIT_PASS


def cmd_disc(args) -> int:
    group = discriminant_group(load_document(args.path).gram)
    gens = [[ratio(x, group.scale) for x in c] for c in group.columns]
    if args.format == "json":
        doc = {
            "invariant_factors": list(group.invariant_factors),
            "order": group.order,
            "generators": gens,
        }
        print(json.dumps(doc, sort_keys=True))
        return EXIT_PASS
    lines = [
        f"invariant factors: {list(group.invariant_factors)}",
        f"order: {group.order}",
    ]
    for f, w in zip(group.invariant_factors, gens):
        lines.append(f"  Z/{f} generated by ({', '.join(w)})")
    print("\n".join(lines))  # built whole, as _emit's text
    return EXIT_PASS


def cmd_orbit(args) -> int:
    inp = load_document(args.path)
    m = inp.isometry
    if m is None:
        raise ValueError("orbit requires an isometry in the document")
    if not is_isometry(inp.gram, m):
        raise ValueError("matrix is not an isometry of the lattice")
    digits = _print_limit()
    orbit = polarization_orbit(inp.gram, m, inp.polarization, args.k_max, 10**digits)
    if orbit is None:
        raise ValueError(
            f"orbit entries up to --k-max {args.k_max} exceed the {digits}-digit "
            "limit for printing an integer; lower --k-max"
        )
    char = char_poly_rank2(m)
    root = str(char.dominant_root) if char.dominant_root else None
    # Each entry is printed as it is formatted, so the text is never held
    # whole; the JSON is byte for byte json.dumps(doc, sort_keys=True).
    if args.format == "json":
        poly = {"trace": char.trace, "det": char.det}
        head = json.dumps({"char_poly": poly, "dominant_root": root}, sort_keys=True)
        print(head[:-1] + ', "orbit": [', end="")  # "orbit" sorts last
        sep = ""
        for k, (x, y), d in orbit:  # ints print as json.dumps prints them
            print(f'{sep}{{"coords": [{x}, {y}], "degree": {d}, "k": {k}}}', end="")
            sep = ", "
        print("]}")
    else:
        for k, v, d in orbit:
            print(f"k={k}: {v} degree={d}")
        print(f"char poly: trace={char.trace} det={char.det}")
        if root:
            print(f"dominant root: {root}")
    return EXIT_PASS


def cmd_enumerate(args) -> int:
    inp = load_document(args.path, args.bound)
    h, _ = normalize_polarization(inp.polarization)  # as S4 lists them
    classes = enumerate_low_degree(inp.gram, h, inp.degree_bound)
    # streamed; byte for byte json.dumps([c._asdict() ...], sort_keys=True)
    if args.format == "json":
        print("[", end="")
        sep = ""
        for (x, y), d, sq, k in classes:
            k = "null" if k is None else k
            row = f'"coords": [{x}, {y}], "degree": {d}, "multiple_of_h": {k}'
            print(f'{sep}{{{row}, "square": {sq}}}', end="")
            sep = ", "
        print("]")
    else:
        for (x, y), d, sq, k in classes:
            tail = " (not a multiple of h)" if k is None else f" = {k}*h"
            print(f"({x}, {y}) degree={d} square={sq}{tail}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcert",
        description="Lattice-side certificate checker for quartic K3 "
        "automorphisms that extend to no Cremona transformation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the full certificate")
    p_check.add_argument("path", help="input JSON document")
    p_check.add_argument("--verify", action="store_true")
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.add_argument("--degree-bound", dest="degree_bound", type=int)
    p_check.set_defaults(func=cmd_check)

    p_pell = sub.add_parser("pell", help="fundamental Pell solution")
    p_pell.add_argument("d", type=int)
    p_pell.add_argument("--format", choices=("json", "text"), default="text")
    p_pell.set_defaults(func=cmd_pell)

    p_disc = sub.add_parser("disc", help="discriminant group")
    p_disc.add_argument("path")
    p_disc.add_argument("--format", choices=("json", "text"), default="text")
    p_disc.set_defaults(func=cmd_disc)

    p_orbit = sub.add_parser("orbit", help="polarization orbit")
    p_orbit.add_argument("path")
    p_orbit.add_argument("--k-max", dest="k_max", type=int, default=5)
    p_orbit.add_argument("--format", choices=("json", "text"), default="text")
    p_orbit.set_defaults(func=cmd_orbit)

    p_enum = sub.add_parser("enumerate", help="low-degree class scan")
    p_enum.add_argument("path")
    p_enum.add_argument("--bound", type=int)
    p_enum.add_argument("--format", choices=("json", "text"), default="text")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return EXIT_PASS if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
