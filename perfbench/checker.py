"""Independent output checker for the latcert benchmark.

Plain integer arithmetic only; nothing here imports latcert. Each check
returns a list of problems, empty when the output is correct. Reports
are plain dicts: {"verdict": ..., "steps": [{"id", "status", "witness",
"details"}, ...]}, the shape of `latcert check --format json`.
"""

from __future__ import annotations

import json
import math
import re

STEP_IDS = ("S1", "S2", "S3", "S4", "S5")


def inner(g, u, v) -> int:
    return sum(u[i] * g[i][j] * v[j] for i in range(2) for j in range(2))


def det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul_mod(a, b, mod: int):
    return [
        [(a[i][0] * b[0][j] + a[i][1] * b[1][j]) % mod for j in range(2)]
        for i in range(2)
    ]


def mat_pow_mod(m, n: int, mod: int):
    result, base = [[1 % mod, 0], [0, 1 % mod]], [[x % mod for x in row] for row in m]
    while n:
        if n & 1:
            result = mat_mul_mod(result, base, mod)
        base = mat_mul_mod(base, base, mod)
        n >>= 1
    return result


def acts_trivially(g, m, n: int) -> bool:
    """Whether m^n fixes L*/L pointwise: (m^n - I) * adj(G) = 0 mod |det G|,
    because L* = G^-1 Z^2 = adj(G) Z^2 / det G."""
    mod = abs(det2(g))
    adj = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]
    p = mat_pow_mod(m, n, mod)
    diff = [[p[i][j] - (i == j) for j in range(2)] for i in range(2)]
    return all(
        sum(diff[i][k] * adj[k][j] for k in range(2)) % mod == 0
        for i in range(2)
        for j in range(2)
    )


def _prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def is_disc_order(g, m, n) -> bool:
    """n is the least positive power of m acting trivially on L*/L."""
    if not isinstance(n, int) or n < 1 or not acts_trivially(g, m, n):
        return False
    return all(not acts_trivially(g, m, n // p) for p in _prime_factors(n))


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def multiple_of(c, h):
    """The integer k with c = k*h, or None."""
    k = next((ci // hi for ci, hi in zip(c, h) if hi), None)
    if k is None or any(ci != k * hi for ci, hi in zip(c, h)):
        return None
    return k


def check_report(doc: dict, report: dict) -> list[str]:
    """Check a certificate report against its input document."""
    g, h = doc["gram"], list(doc["polarization"])
    if next(x for x in h if x) < 0:
        h = [-x for x in h]
    bound = doc.get("degree_bound", 16)
    problems = []
    steps = report["steps"]
    if [s["id"] for s in steps] != list(STEP_IDS):
        return [f"steps are {[s['id'] for s in steps]}"]
    statuses = [s["status"] for s in steps]
    blocked = next((i for i, s in enumerate(statuses) if s != "pass"), 5)
    if any(s != "skipped" for s in statuses[blocked + 1:]):
        problems.append(f"steps after {STEP_IDS[blocked]} not skipped")
    expected_verdict = (
        "pass" if blocked == 5 else "fail" if statuses[blocked] == "fail" else "unknown"
    )
    if report["verdict"] != expected_verdict:
        problems.append(f"verdict {report['verdict']} but steps {statuses}")
    by_id = {s["id"]: s for s in steps}
    det = det2(g)
    lattice_ok = g[0][0] % 2 == 0 and g[1][1] % 2 == 0 and det < 0
    s1 = by_id["S1"]["status"]
    if s1 != ("pass" if lattice_ok else "fail"):
        problems.append(f"S1 is {s1} for gram {g}")

    s2 = by_id["S2"]
    if s2["status"] == "fail":
        for w in s2["witness"] or [None]:
            if not w or w["target"] not in (0, -2):
                problems.append(f"S2 witness {w} has no valid target")
                continue
            v = w["vector"]
            if not any(v) or inner(g, v, v) != w["target"]:
                problems.append(f"S2 witness {v} does not have norm {w['target']}")
    elif s2["status"] == "pass" and is_square(-det):
        problems.append("S2 passed but -det is a square, so 0 is represented")

    s3 = by_id["S3"]["status"]
    h_ok = math.gcd(*h) == 1 and inner(g, h, h) == 4
    if s3 not in ("skipped", "pass" if h_ok else "fail"):
        problems.append(f"S3 is {s3} for polarization {h}")

    s4 = by_id["S4"]
    if s4["status"] == "fail":
        w = s4["witness"] or {}
        c = w.get("coords")
        if not c or len(c) != 2:
            problems.append(f"S4 witness {w} has no coordinates")
        else:
            degree, square = inner(g, c, h), inner(g, c, c)
            if not 0 < degree < bound:
                problems.append(f"S4 witness {c} has degree {degree}, bound {bound}")
            if square <= 0:
                problems.append(f"S4 witness {c} has square {square}")
            if multiple_of(c, h) is not None:
                problems.append(f"S4 witness {c} lies in Z*h")
            if (w.get("degree"), w.get("square")) != (degree, square):
                problems.append(f"S4 witness {w} misreports degree or square")

    s5 = by_id["S5"]
    if s5["status"] == "pass":
        problems += _check_isometry(g, h, doc.get("isometry"), s5["details"])

    expect = doc.get("expect", {})
    if "verdict" in expect and report["verdict"] != expect["verdict"]:
        problems.append(f"verdict {report['verdict']}, expected {expect['verdict']}")
    if "failed_step" in expect and STEP_IDS[blocked:blocked + 1] != (expect["failed_step"],):
        problems.append(f"first non-pass step is not {expect['failed_step']}")
    if "disc_action_order" in expect and s5["status"] == "pass":
        n = s5["details"].get("disc_action_order")
        if n != expect["disc_action_order"]:
            problems.append(f"disc action order {n}, expected {expect['disc_action_order']}")
    return problems


def _check_isometry(g, h, supplied, details: dict) -> list[str]:
    m = details.get("isometry")
    if not m:
        return ["S5 passed without an isometry"]
    m = [list(row) for row in m]
    problems = []
    if supplied is not None and m != [list(row) for row in supplied]:
        problems.append("S5 isometry differs from the supplied one")
    mt_g_m = [
        [sum(m[k][i] * g[k][l] * m[l][j] for k in range(2) for l in range(2)) for j in range(2)]
        for i in range(2)
    ]
    if mt_g_m != [list(row) for row in g]:
        problems.append(f"S5 matrix {m} is not an isometry")
        return problems
    mh = [m[0][0] * h[0] + m[0][1] * h[1], m[1][0] * h[0] + m[1][1] * h[1]]
    if inner(g, mh, h) <= 0:
        problems.append("S5 isometry does not preserve the positive cone")
    if abs(m[0][0] + m[1][1]) <= 2:
        problems.append("S5 isometry has |trace| <= 2, so finite or parabolic order")
    if mh == h:
        problems.append("S5 isometry fixes h")
    n = details.get("disc_action_order")
    if not is_disc_order(g, m, n):
        problems.append(f"S5 disc action order {n} is not the order of {m}")
    return problems


# --- CLI outputs -------------------------------------------------------


def _dominant_root(m) -> str:
    """The dominant eigenvalue (tr + s*sqrt(d))/2 of a 2x2 integer matrix
    as latcert prints it, with d squarefree."""
    tr = m[0][0] + m[1][1]
    disc = tr * tr - 4 * det2(m)
    s, d, k = 1, disc, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1

    def half(x):
        return str(x // 2) if x % 2 == 0 else f"{x}/2"

    return f"{half(tr)} + {half(s)}*sqrt({d})"


def _invariant_factors(g) -> list[int]:
    d1 = math.gcd(g[0][0], g[0][1], g[1][1])
    return [d for d in (d1, abs(det2(g)) // d1) if d > 1]


def _disc_order(g, m) -> int:
    return next(n for n in range(1, abs(det2(g)) + 1) if acts_trivially(g, m, n))


def _low_degree_classes(g, h, bound):
    """Classes with 0 < degree < bound and positive square, by a complete
    box scan. Writing C = t*h + s*v0 with v0 orthogonal to h gives
    0 < t < bound/h^2 and s^2 < t^2 * h^2 / -v0^2, which bounds the box."""
    nh = inner(g, h, h)
    w = [g[0][0] * h[0] + g[0][1] * h[1], g[1][0] * h[0] + g[1][1] * h[1]]
    v0 = [w[1] // math.gcd(*w), -w[0] // math.gcd(*w)]
    nv0 = -inner(g, v0, v0)
    r_t = bound // nh + 1
    r_s = math.isqrt(bound * bound // (nh * nv0)) + 1
    radius = r_t * max(map(abs, h)) + r_s * max(map(abs, v0))
    out = set()
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            c = (x, y)
            if 0 < inner(g, c, h) < bound and inner(g, c, c) > 0:
                out.add(c)
    return out


def datum_facts(doc: dict) -> dict:
    """Everything the CLI prints about a document with an isometry,
    recomputed here."""
    g, m, h = doc["gram"], doc["isometry"], doc["polarization"]
    bound = doc.get("degree_bound", 16)
    orbit, v = [], list(h)
    for k in range(6):
        orbit.append((k, tuple(v), inner(g, v, h)))
        v = [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]
    return {
        "det": det2(g),
        "invariant_factors": _invariant_factors(g),
        "disc_action_order": _disc_order(g, m),
        "dominant_root": _dominant_root(m),
        "trace": m[0][0] + m[1][1],
        "mdet": det2(m),
        "orbit": orbit,
        "low_degree": _low_degree_classes(g, h, bound),
    }


_INT_PAIR = r"\((-?\d+), (-?\d+)\)"


def check_cli(argv: list[str], code: int, expected_code: int, out: str,
              doc: dict, facts: dict) -> list[str]:
    """Check one CLI invocation. `doc` is the document named in argv (if
    any) and `facts` the datum facts recomputed by datum_facts."""
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}"]
    cmd = argv[0]
    if cmd == "check":
        if "--format" in argv:
            report = json.loads(out)
            problems = check_report(doc, report)
            derived = report["derived"]
            for key in ("det", "invariant_factors", "disc_action_order", "dominant_root"):
                if derived.get(key) != facts[key]:
                    problems.append(f"derived {key} {derived.get(key)}, expected {facts[key]}")
            return problems
        verdict = {0: "pass", 1: "fail", 2: "unknown"}[code]
        problems = []
        if f"verdict: {verdict}" not in out.splitlines()[:1]:
            problems.append(f"text verdict does not read {verdict}")
        if "mismatch" in out:
            problems.append("--verify reported a mismatch")
        if doc.get("isometry"):
            for line in (
                f"  det={facts['det']} signature=[1, 1]",
                f"  invariant_factors={facts['invariant_factors']}",
                f"  disc_action_order={facts['disc_action_order']}",
                f"  dominant_root={facts['dominant_root']}",
            ):
                if line not in out.splitlines():
                    problems.append(f"missing line {line.strip()!r}")
        return problems
    if cmd == "pell":
        d = int(argv[1])
        found = re.fullmatch(_INT_PAIR, out.strip())
        if not found:
            return [f"pell output {out.strip()!r} is not a pair"]
        x, y = int(found[1]), int(found[2])
        if y < 1 or x * x - d * y * y != 1:
            return [f"({x}, {y}) does not solve x^2 - {d}y^2 = 1"]
        if any(is_square(d * z * z + 1) for z in range(1, y)):
            return [f"({x}, {y}) is not the fundamental solution"]
        return []
    if cmd == "disc":
        factors = facts["invariant_factors"]
        order = math.prod(factors)
        expected = [f"invariant factors: {factors}", f"order: {order}"]
        return [f"missing line {e!r}" for e in expected if e not in out.splitlines()]
    if cmd == "orbit":
        expected = [f"k={k}: {v} degree={d}" for k, v, d in facts["orbit"]]
        expected += [
            f"char poly: trace={facts['trace']} det={facts['mdet']}",
            f"dominant root: {facts['dominant_root']}",
        ]
        if out.splitlines() != expected:
            return [f"orbit output differs: {out!r}"]
        return []
    if cmd == "enumerate":
        listed, problems = set(), []
        g, h = doc["gram"], doc["polarization"]
        for line in out.splitlines():
            found = re.match(_INT_PAIR + r" degree=(-?\d+) square=(-?\d+)(.*)$", line)
            if not found:
                problems.append(f"unparsed line {line!r}")
                continue
            c = (int(found[1]), int(found[2]))
            listed.add(c)
            if (int(found[3]), int(found[4])) != (inner(g, c, h), inner(g, c, c)):
                problems.append(f"class {c} misreports degree or square")
            k = multiple_of(c, h)
            tail = f" = {k}*h" if k is not None else " (not a multiple of h)"
            if found[5] != tail:
                problems.append(f"class {c} misreports its multiple of h")
        if listed != facts["low_degree"]:
            problems.append(f"classes {sorted(listed)}, expected {sorted(facts['low_degree'])}")
        return problems
    return [f"unknown command {cmd}"]
