"""Span recorder for the traced benchmark run.

Wraps the public latcert functions named in TRACED by rebinding every
latcert.* module attribute that is the original function (certificate
and cli import several of them by name). Each call records a span
[name, start_ns, end_ns, parent_index, op_id, extra] in memory; the
spans are written out at the end and aggregated into per-function calls,
self time (duration minus direct child spans) and median duration.

The hot helpers lattice.inner, lattice.norm and matrices.* are not
wrapped: their call counts would swamp the timing they are meant to show.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

TRACED = {
    "cli": ("main", "load_document"),
    "certificate": (
        "check_S1_lattice",
        "check_S2_no_0_minus2",
        "check_S3_polarization",
        "check_S4_low_degree",
        "check_S5_isometry",
        "enumerate_low_degree",
    ),
    "quadform": ("represents_value", "pell_fundamental", "automorph_generator"),
    "isometry": ("char_poly_rank2", "order", "preserves_positive_cone", "is_isometry"),
    "discgroup": (
        "smith_normal_form",
        "discriminant_group",
        "induced_action",
        "action_order",
    ),
    "lattice": ("signature",),
    "oracle": ("brute_values", "brute_low_degree", "brute_action_order"),
}
# Modules a deadline hit can be charged to; a hit outside every span is
# charged to the module that ran the op.
HIT_MODULES = ("cli", "certificate", "quadform", "discgroup", "isometry", "lattice", "oracle")
S5 = "certificate.check_S5_isometry"


def _points(radius: int) -> int:
    return (2 * radius + 1) ** 2


def _extra(name: str, args, kwargs, result, oracle):
    """Counts recorded at the boundary of one call, or None."""
    if name == "quadform.represents_value":
        return {"status": result.status}
    if name == "certificate.enumerate_low_degree":
        return {"classes": len(result)}
    if name == "discgroup.action_order":
        action = args[0]
        cap = args[1] if len(args) > 1 else kwargs.get("cap")
        return {"iterations": result if result is not None else cap or math.prod(action.factors)}
    if name == "oracle.brute_values":
        return {"points": _points(args[1] if len(args) > 1 else kwargs["radius"])}
    if name == "oracle.brute_low_degree":
        radius = args[3] if len(args) > 3 else kwargs.get("radius")
        if radius is None:
            radius = oracle.required_box_radius(*args[:3])
        return {"points": _points(radius)}
    return None


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.orphan_hits = 0

    def _wrap(self, name: str, fn, oracle):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _extra(name, args, kwargs, result, oracle)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every latcert.* attribute that is a traced function."""
        import latcert.cli  # noqa: F401  (imports every traced module)

        modules = [m for n, m in sys.modules.items() if n == "latcert" or n.startswith("latcert.")]
        oracle = sys.modules["latcert.oracle"]
        for mod_name, fn_names in TRACED.items():
            mod = sys.modules[f"latcert.{mod_name}"]
            for fn_name in fn_names:
                orig = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, oracle)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def charge_deadline(self) -> None:
        """Mark the innermost open span as the one the deadline hit."""
        if self.stack:
            span = self.spans[self.stack[-1]]
            span[5] = dict(span[5] or {}, deadline=True)
        else:
            self.orphan_hits += 1

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "orphan_hits": self.orphan_hits}, fh)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("startup.interp_ms", "ms", "lower"),
        ("startup.import_ms", "ms", "lower"),
    ]
    for mod_name, fn_names in TRACED.items():
        for fn_name in fn_names:
            base = f"{mod_name}.{fn_name}"
            out += [
                (f"{base}.calls", "1/op", "lower"),
                (f"{base}.self_ms", "ms/op", "lower"),
                (f"{base}.p50_us", "us", "lower"),
            ]
    out += [
        ("certificate.S5.candidates_tried", "1/op", "lower"),
        ("certificate.enumerate_low_degree.classes", "1/op", "lower"),
        ("quadform.represents_value.yes", "share", "higher"),
        ("quadform.represents_value.no", "share", "higher"),
        ("quadform.represents_value.unknown", "share", "lower"),
        ("discgroup.action_order.iterations", "1/op", "lower"),
        ("oracle.brute_values.points", "1/op", "lower"),
        ("oracle.brute_low_degree.points", "1/op", "lower"),
    ]
    out += [(f"{m}.deadline_hits", "1/op", "lower") for m in HIT_MODULES]
    out += [
        ("trace.overhead.op_ms.p50", "ms", "lower"),
        ("trace.overhead.ops_per_s", "1/s", "lower"),
    ]
    return out


def aggregate(span_sets, ops: int, extra_hits: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from lists of spans. Counts and times are per
    attempted op; p50 is the median call duration."""
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    counts = dict.fromkeys(
        (
            "certificate.S5.candidates_tried",
            "certificate.enumerate_low_degree.classes",
            "discgroup.action_order.iterations",
            "oracle.brute_values.points",
            "oracle.brute_low_degree.points",
        ),
        0,
    )
    rv_status = {"yes": 0, "no": 0, "unknown": 0}
    hits = dict.fromkeys(HIT_MODULES, 0)
    for module, n in extra_hits.items():
        hits[module] += n
    for spans, orphan_hits, default_module in span_sets:
        hits[default_module] += orphan_hits
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op, _extra in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _op, extra) in enumerate(spans):
            durations.setdefault(name, []).append(end - start)
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
            if name == "isometry.is_isometry" and parent is not None and spans[parent][0] == S5:
                counts["certificate.S5.candidates_tried"] += 1
            if not extra:
                continue
            if extra.get("deadline"):
                hits[name.split(".")[0]] += 1
            if "status" in extra:
                rv_status[extra["status"]] += 1
            for key in ("classes", "iterations", "points"):
                if key in extra:
                    counts[f"{name}.{key}"] += extra[key]
    ops = max(ops, 1)
    out: dict[str, float] = {}
    for mod_name, fn_names in TRACED.items():
        for fn_name in fn_names:
            base = f"{mod_name}.{fn_name}"
            d = durations.get(base, [])
            out[f"{base}.calls"] = len(d) / ops
            out[f"{base}.self_ms"] = self_ns.get(base, 0) / 1e6 / ops
            out[f"{base}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
    rv_calls = sum(rv_status.values())
    for key, n in counts.items():
        out[key] = n / ops
    for status, n in rv_status.items():
        out[f"quadform.represents_value.{status}"] = n / rv_calls if rv_calls else 0.0
    for module, n in hits.items():
        out[f"{module}.deadline_hits"] = n / ops
    return out
