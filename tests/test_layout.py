"""Structural checks: the oracles stay independent of the pipeline they
verify, every function the benchmark tracer wraps exists and is loaded
by `import latcert.cli`, the CLI's import path stays lean, the package
computes in integers only (no `fractions`), every record type's
annotations resolve, and scripts/reproduce.py keeps its committed
output."""

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
