"""The test configuration itself (a failing test is reported, not an internal
error) and the package's own hygiene (no function, class, constant or spec
option only tests use, no assert statement, and no dotted name in the docs
that does not resolve)."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # reporting a hypothesis failure imports libcst, whose DeprecationWarning
    # the error:: filters would otherwise raise inside pytest's report hook
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed" in run.stdout


# referenced outside the package on purpose; name -> who needs it
USED_OUTSIDE_THE_PACKAGE = {
    "discrete_norm": "benchmarks/workload.py measures the mg-fine discretization error with it",
}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a module-level function, class or assignment defines, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = set().union(*(_names(t) for t in targets))
    else:
        names = set()
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_function_is_used_in_the_package():
    # a function, class or constant only tests use belongs in the tests
    # (tests/oracle.py for shared ones), not on the solver path
    statements = [stmt for path in sorted((ROOT / "src" / "ocmg").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names(stmt) for stmt in statements]
    unused = {name for i, stmt in enumerate(statements) for name in _defined(stmt)
              if not any(name in used for j, used in enumerate(names) if j != i)}
    assert unused == set(USED_OUTSIDE_THE_PACKAGE)


def test_every_spec_option_is_set_outside_the_tests():
    # an option only tests set is a dead parameter: every field with a default
    # in SmootherSpec and CycleSpec is passed by keyword to a spec, to
    # dataclasses.replace or to cli._given (whose keywords are spec fields) in
    # src/ocmg or benchmarks/.  CycleSpec.max_iters is set only by
    # benchmarks/workload.py.
    specs = ("SmootherSpec", "CycleSpec")
    sources = (sorted((ROOT / "src" / "ocmg").glob("*.py"))
               + sorted((ROOT / "benchmarks").glob("*.py")))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    passed = {kw.arg for node in nodes if isinstance(node, ast.Call)
              and _names(node.func) & {*specs, "replace", "_given"} for kw in node.keywords}
    options = {node.name: {stmt.target.id for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and stmt.value is not None}
               for node in nodes if isinstance(node, ast.ClassDef) and node.name in specs}
    assert sorted(options) == ["CycleSpec", "SmootherSpec"]
    assert {name: fields - passed for name, fields in options.items()} == {
        "CycleSpec": set(), "SmootherSpec": set()}


def test_the_package_has_no_assert_statement():
    # python -O strips asserts: a check the package needs raises an error, and
    # a fact it relies on is a test
    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "src" / "ocmg").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_text_file_the_package_opens_names_its_encoding():
    # without encoding= a text file is read and written in the locale's encoding
    def mode(call: ast.Call) -> str:
        given = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
        return given[0].value if given and isinstance(given[0], ast.Constant) else "r"

    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "src" / "ocmg").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open" and "b" not in mode(node)
             and not any(kw.arg == "encoding" for kw in node.keywords)]
    assert found == []


def _docs() -> dict[str, str]:
    """README.md and the module, class and function docstrings of each package file."""
    docs = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for path in sorted((ROOT / "src" / "ocmg").glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        docs[path.name] = "\n".join(filter(None, (
            ast.get_docstring(node) for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))))
    return docs


def _resolves(name: str) -> bool:
    first, *rest = name.split(".")
    obj = importlib.import_module("oracle" if first == "oracle" else "ocmg")
    for part in rest if first in ("ocmg", "oracle") else [first, *rest]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_dotted_package_name_in_the_docs_resolves():
    # a name that is deleted or renamed must not live on in README.md or a
    # docstring: each dotted name that starts with a package module, ocmg or
    # the tests' oracle (grid.SaddleSine, ocmg.multigrid.solve,
    # oracle.cycle_matrix) must resolve; file names such as oracle.py are not names
    modules = [path.stem for path in sorted((ROOT / "src" / "ocmg").glob("*.py"))
               if path.stem != "__init__"]
    for module in modules:
        importlib.import_module(f"ocmg.{module}")
    dotted = re.compile(r"\b(?:ocmg|oracle|%s)(?:\.\w+)+" % "|".join(modules))
    names = {(doc, name) for doc, text in _docs().items() for name in dotted.findall(text)
             if not name.endswith(".py")}
    assert len(names) > 20  # the scan reads the docs
    assert sorted(f"{doc}: {name}" for doc, name in names if not _resolves(name)) == []
