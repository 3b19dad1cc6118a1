"""Structural checks: the oracles stay independent of the pipeline they
verify, the CLI leaves the Gram matrix to `CertificateInput`, every
function the benchmark tracer wraps exists and is loaded by
`import latcert.cli`, the CLI's import path stays lean, the package
computes in integers only (no `fractions`) and holds no `assert` that
`python -O` would strip, every record type's annotations resolve,
scripts/reproduce.py keeps its committed output, and every loop has an
entry in the loop ledger."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latcert"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "reproduce.txt"


def package_imports(module: str) -> set[str]:
    """Sibling modules that src/latcert/<module>.py imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("latcert.")
            )
    return out


def test_oracle_imports_only_lattice_and_matrices():
    assert package_imports("oracle") <= {"lattice", "matrices"}


def test_certificate_does_not_import_oracle():
    assert "oracle" not in package_imports("certificate")


def test_cli_runs_the_oracles_only_under_verify():
    # every other command answers from the pipeline; the oracles referee it
    oracles = {
        "brute_values",
        "brute_low_degree",
        "brute_action_order",
        "required_values_radius",
    }
    uses = {}
    for top in ast.parse((PACKAGE / "cli.py").read_text()).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in oracles:  # a name or an attribute, not the import
                uses.setdefault(name, set()).add(scope)
    assert uses == {name: {"_run_verify"} for name in oracles}


def test_cli_leaves_the_gram_to_certificate_input():
    # CertificateInput builds the GramLattice, so the CLI never names it
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "GramLattice" not in [alias.name for alias in node.names]
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name != "GramLattice"


def test_no_module_imports_fractions():
    # anywhere in the module, a lazy import inside a function included
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "fractions" not in names, path.name


def test_no_module_holds_an_assert_statement():
    # python -O strips assert statements, so every check is explicit
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_named_tuple_has_resolvable_annotations():
    # with `from __future__ import annotations` a name missing from the
    # module only shows when the hints are evaluated
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        mod = importlib.import_module(f"latcert.{path.stem}")
        for obj in vars(mod).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, tuple)
                and hasattr(obj, "_fields")
                and obj.__module__ == mod.__name__
            ):
                assert typing.get_type_hints(obj), obj
                checked += 1
    assert checked >= 10


def traced_table() -> dict:
    """The TRACED table of perfbench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    return ast.literal_eval(table)


def test_traced_functions_exist():
    # perfbench/spans.py rebinds latcert.<module>.<function> for each name
    # in its TRACED table; a missing name would crash only the traced run.
    traced = traced_table()
    assert traced
    for module, functions in traced.items():
        mod = importlib.import_module(f"latcert.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"latcert.{module}.{name}"


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # pulls in decimal and numbers; every `latcert` process would pay to
    # import them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, latcert.cli; print(' '.join(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "latcert.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    heavy |= {"fractions", "decimal", "numbers"}
    assert not heavy & loaded


def test_cli_import_loads_every_traced_module():
    # Recorder.install in perfbench/spans.py runs `import latcert.cli` and
    # then reads sys.modules["latcert.<module>"] for every traced module,
    # so a lazy import of one of them would crash every `--trace 1` run.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, latcert.cli; print(' '.join(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    missing = {f"latcert.{m}" for m in traced_table()} - loaded
    assert not missing


def test_reproduce_output_matches_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [
        line.replace(str(ROOT / "data"), "data")
        for line in proc.stdout.splitlines()
        if not line.startswith("  timing S")
    ]
    assert lines == GOLDEN.read_text().splitlines()


# Every loop in src/latcert -- each `for`, `while` and comprehension --
# keyed by (module, function, kind, ordinal). The function is the
# innermost enclosing def, dotted under its class or outer def; the
# ordinal counts the loops of that kind in that function in source
# order, so a key does not move with line numbers. Each entry bounds the
# trip count in one of three ways:
#   ("bits", why)       polynomially in the bit size of the input
#   ("constant", why)   by a fixed count
#   ("budget", name)    by a CertificateInput field or a module constant
# A new or edited loop fails test_every_loop_is_in_the_ledger until it
# is entered here or in UNBOUNDED.
LOOP_LEDGER = {
    ("certificate", "CertificateInput.__new__", "for", 1): ("constant", "2 bounds"),
    ("certificate", "CertificateReport.step", "for", 1): ("constant", "5 steps"),
    ("certificate", "check_S2_no_0_minus2", "for", 1): ("constant", "t = 0, -2"),
    ("certificate", "normalize_polarization", "for", 1): ("constant", "2 entries"),
    ("certificate", "normalize_polarization", "genexp", 1): ("constant", "2 entries"),
    # (bound - 1) // gcd(G*h) degree lines
    ("certificate", "enumerate_low_degree", "for", 1): ("budget", "degree_bound"),
    # about bound^2 / (norm(h) * sqrt|det G|) classes in all, plus 3 per line
    ("certificate", "enumerate_low_degree", "for", 2): ("budget", "degree_bound"),
    ("certificate", "check_S4_low_degree", "listcomp", 1): ("budget", "degree_bound"),
    ("certificate", "check_S4_low_degree", "for", 1): ("budget", "degree_bound"),
    ("certificate", "check_S4_low_degree", "dictcomp", 1): ("constant", "3 keys"),
    ("certificate", "check_S5_isometry", "listcomp", 1): ("constant", "2 rows"),
    ("certificate", "run_certificate", "for", 1): ("constant", "5 steps"),
    ("certificate", "report_document", "listcomp", 1): ("constant", "5 steps"),
    ("cli", "load_document", "for", 1): ("constant", "2 required fields"),
    ("cli", "_run_verify", "listcomp", 1): ("constant", "t = 0, -2"),
    ("cli", "_run_verify", "genexp", 1): ("constant", "<= 2 box targets"),
    ("cli", "_run_verify", "genexp", 2): ("constant", "<= 2 S2 witnesses"),
    ("cli", "_run_verify", "dictcomp", 1): ("constant", "t = 0, -2"),
    ("cli", "_run_verify", "setcomp", 1): ("budget", "degree_bound"),
    ("cli", "_run_verify", "setcomp", 2): ("budget", "oracle.MAX_BOX_RADIUS"),
    ("cli", "_emit", "for", 1): ("constant", "5 steps"),
    ("cli", "_emit", "for", 2): ("constant", "<= 3 verify checks"),
    ("cli", "_emit", "for", 3): ("constant", "<= 5 timings"),
    ("cli", "cmd_check", "genexp", 1): ("constant", "<= 3 verify checks"),
    ("cli", "cmd_disc", "listcomp", 1): ("constant", "<= 2 generators"),
    ("cli", "cmd_disc", "listcomp", 2): ("constant", "2 coordinates"),
    ("cli", "cmd_disc", "for", 1): ("constant", "<= 2 generators"),
    ("cli", "cmd_enumerate", "for", 1): ("budget", "degree_bound"),
    ("cli", "cmd_enumerate", "for", 2): ("budget", "degree_bound"),
    # stops at the print limit when the entries grow; a matrix of finite
    # order or a parabolic one runs all k_max + 1 steps
    ("cli", "cmd_orbit", "for", 1): ("budget", "isometry.MAX_K_MAX"),
    ("cli", "cmd_orbit", "for", 2): ("budget", "isometry.MAX_K_MAX"),
    # each pass that does not break makes the pivot a proper divisor of itself
    ("discgroup", "smith_normal_form", "while", 1): ("bits", "log2 of the entries"),
    ("discgroup", "smith_normal_form", "genexp", 1): ("constant", "4 entries"),
    ("discgroup", "smith_normal_form", "while", 2): ("bits", "Euclid's steps"),
    # n is 1, 2, 3, 4 or 6 on S5's path (proved in its docstring)
    ("discgroup", "action_order", "for", 1): ("constant", "n <= 6"),
    ("isometry", "_squarefree_split", "while", 1): (
        "budget",
        "isometry.TRIAL_DIVISION_BOUND",
    ),
    ("isometry", "_squarefree_split", "while", 2): ("bits", "one pass per k^2 | n"),
    ("isometry", "polarization_orbit", "for", 1): ("budget", "isometry.MAX_K_MAX"),
    ("lattice", "is_integer_array", "for", 1): ("bits", "one pass over the input"),
    ("lattice", "is_primitive", "genexp", 1): ("constant", "2 entries"),
    ("oracle", "brute_values", "for", 1): ("bits", "one pass per target given"),
    ("oracle", "brute_values", "for", 2): ("budget", "oracle.MAX_BOX_RADIUS"),
    ("oracle", "_first_y", "listcomp", 1): ("constant", "2 roots"),
    ("oracle", "_first_y", "genexp", 1): ("constant", "<= 2 roots"),
    # the value referee's linear search for the unit of s^2 - D*u^2 = 4
    ("oracle", "required_values_radius", "for", 1): (
        "budget",
        "oracle.UNIT_SEARCH_CAP",
    ),
    ("oracle", "required_box_radius", "genexp", 1): ("constant", "2 coordinates"),
    ("oracle", "brute_low_degree", "for", 1): ("budget", "oracle.MAX_BOX_RADIUS"),
    ("oracle", "brute_low_degree", "for", 2): ("budget", "oracle.MAX_BOX_RADIUS"),
    ("oracle", "brute_action_order.reduce", "genexp", 1): ("constant", "2 rows"),
    ("oracle", "brute_action_order.reduce", "genexp", 2): ("constant", "2 entries"),
    ("quadform", "_congruence_blocks", "genexp", 1): (
        "budget",
        "quadform.DEFAULT_MODULI",
    ),
    ("quadform", "_attains_mod", "for", 1): ("budget", "quadform.DEFAULT_MODULI"),
    ("quadform", "_attains_mod", "for", 2): ("budget", "quadform.DEFAULT_MODULI"),
    ("quadform", "_divisor_search", "for", 1): ("constant", "d1 in 1, -1, 2, -2"),
    # |c| quarters while it is above sqrt D, then at most 3 more steps
    # (proof in the docstring)
    ("quadform", "_rho_reduce", "while", 1): ("bits", "log4(|c| / sqrt D) + 3"),
    # a walk of at most search_bound steps and the reductions' O(bits)
    ("quadform", "_rho_matrix", "for", 1): ("budget", "search_bound"),
    ("quadform", "_cycle_search", "genexp", 1): ("constant", "beta < 2|t0| <= 4"),
    # one rho-step per pass, at most search_bound of them
    ("quadform", "_cycle_search", "while", 1): ("budget", "search_bound"),
    ("quadform", "_extended_gcd", "while", 1): ("bits", "Euclid's steps"),
    # u = 1..search_bound^2: hang 1, [[4, 0], [0, -244]], whose least u is
    # 226,153,980, stops at u = 10^6 and makes S5 "unknown"
    ("quadform", "automorph_generator", "for", 1): ("budget", "search_bound"),
    # |y| grows at least like the Fibonacci numbers up to y_limit
    ("quadform", "pell_fundamental", "while", 1): ("bits", "log of y_limit"),
}

# Loops whose trip count grows with the value of an integer, not with
# its bit size. This list may only shrink: a change that bounds one of
# these loops moves its key to LOOP_LEDGER. Only an oracle may hold
# one, so no loop of the pipeline grows with a value: hang 1 was the
# last (see automorph_generator's entry).
UNBOUNDED = {
    # the independent reference for action_order: n <= |L*/L|, a value
    ("oracle", "brute_action_order", "for", 1): "n <= |det G|",
}

LOOP_KINDS = {
    ast.For: "for",
    ast.While: "while",
    ast.ListComp: "listcomp",
    ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp",
    ast.GeneratorExp: "genexp",
}


def package_loops() -> list[tuple[str, str, str, int]]:
    """The ledger key of every loop in src/latcert."""
    keys = []

    def walk(node, module, scope, counts):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, module, scope + (child.name,), {})
                continue
            kind = LOOP_KINDS.get(type(child))
            if kind:
                function = ".".join(scope)
                counts[function, kind] = counts.get((function, kind), 0) + 1
                keys.append((module, function, kind, counts[function, kind]))
            walk(child, module, scope, counts)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, (), {})
    return keys


def test_every_loop_is_in_the_ledger():
    found = package_loops()
    assert len(found) == len(set(found))
    assert not LOOP_LEDGER.keys() & UNBOUNDED.keys()
    assert sorted(set(found) - LOOP_LEDGER.keys() - UNBOUNDED.keys()) == []
    assert sorted(LOOP_LEDGER.keys() - set(found)) == []
    assert sorted(UNBOUNDED.keys() - set(found)) == []
    assert len(UNBOUNDED) <= 1  # may only shrink
    assert {module for module, *_ in UNBOUNDED} <= {"oracle"}


def test_every_budget_names_an_input_field_or_a_module_constant():
    certificate = importlib.import_module("latcert.certificate")
    for key, (bound, why) in LOOP_LEDGER.items():
        assert bound in ("bits", "constant", "budget"), key
        if bound == "budget" and why not in certificate.CertificateInput._fields:
            module, name = why.split(".")
            assert name.isupper(), key
            assert hasattr(importlib.import_module(f"latcert.{module}"), name), key
