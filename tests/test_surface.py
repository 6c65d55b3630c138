"""The public names that the README and the benchmark's tracer reach, and a reader for every public name.

Deleting a name either of them uses fails here, in the quick tests, rather
than when someone runs the quick start or a traced benchmark.  So does a public
name that nothing outside the tests reads, and a name the package re-exports:
each name has one home, the module that defines it.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "groupoidqm"
# Public names that no command, benchmark, quick start or entry point reads.
# Each is paper content, kept for the named test that reproduces it.
PAPER_CONTENT = {
    "algebra.algebra_unit": "tests/test_acceptance.py::test_criterion_02_star_algebra_laws",
    "algebra.operator_norm": "tests/test_acceptance.py::test_criterion_02_star_algebra_laws",
    "groupoid.pair_element": "tests/test_acceptance.py::test_criterion_03_pair_matrix_isomorphism",
    "histories.make_history": "tests/test_acceptance.py::test_criterion_04_action_axioms",
    "propagator.sign_case_matrix": "tests/test_acceptance.py::test_criterion_08_sign_case_spectra",
    "propagator.special_case_spectrum": "tests/test_acceptance.py::test_criterion_08_sign_case_spectra",
    "propagator.evolve_state": "tests/test_acceptance.py::test_criterion_09_worked_unitary_instance",
    "histories.amplitude_via_reference": "tests/test_acceptance.py::test_criterion_10_reference_independence",
    "algebra.lagrangian_element": "tests/test_algebra.py::test_lagrangian_element_is_observable",
    "algebra.is_observable": "tests/test_algebra.py::test_lagrangian_element_is_observable",
    "histories.unit_history": "tests/test_histories.py::test_unit_history_is_a_two_sided_unit",
}
_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _quick_start() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S)
    assert block is not None, "no python block under 'Library quick start'"
    return block.group(1)


def _bench_layers() -> dict[str, tuple[str, ...]]:
    """bench/spans.py's LAYERS: the names the tracer wraps, found by getattr on each module."""
    return next(
        ast.literal_eval(node.value)
        for node in _parse(ROOT / "bench" / "spans.py").body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )


def _public_definitions() -> dict[str, tuple[str, ...]]:
    """Each module's public top-level definitions, as 'module.name'."""
    found = {}
    for path in SRC.glob("*.py"):
        names = []
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
        found[path.stem] = tuple(f"{path.stem}.{n}" for n in names if not n.startswith("_"))
    return found


def _reads(tree: ast.Module, own: tuple[str, ...] = ()) -> set[str]:
    """'module.name' of each library name that the code in tree reads.

    A read is a Name that an import, or one of ``own`` (the tree's own
    definitions), binds to a library name, in a scope that does not rebind
    it; or an attribute of a name bound to a library module.  Comments,
    strings and docstrings are not code, and an import alone reads nothing.
    A definition that reads its own name (recursion) does not count.
    """
    names = {key.split(".")[1]: key for key in own}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level, module) in ((0, "groupoidqm"), (1, "")):  # from groupoidqm import cli
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif node.level == 1 or module.startswith("groupoidqm."):
                home = module.removeprefix("groupoidqm.")
                names.update((a.asname or a.name, f"{home}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and node.value.args:
            arg = node.value.args[0]  # m = importlib.import_module("groupoidqm.M")
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("groupoidqm."):
                home = arg.value.removeprefix("groupoidqm.")
                modules.update((t.id, home) for t in node.targets if isinstance(t, ast.Name))
    found = set()

    def visit(node: ast.AST, hidden: frozenset, owner: str | None) -> None:
        if isinstance(node, _SCOPES):
            hidden = hidden | {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                hidden = hidden | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in hidden:
            if node.id in names and names[node.id] != owner:
                found.add(names[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.value.id not in hidden:
                found.add(f"{modules[node.value.id]}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, hidden, owner)

    for top in tree.body:
        visit(top, frozenset(), names.get(getattr(top, "name", None)))
    return found


def test_readme_quick_start_runs():
    exec(compile(_quick_start(), "README.md quick start", "exec"), {})


def test_bench_span_names_exist():
    layers = _bench_layers()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"groupoidqm.{layer}"), name)
    ]
    assert layers
    assert missing == []


def test_package_binds_only_its_version():
    tree = _parse(SRC / "__init__.py")
    assert ast.get_docstring(tree)
    statements = [ast.unparse(node) for node in tree.body[1:]]  # after the docstring
    assert [s.split(" = ")[0] for s in statements] == ["__version__"]


def test_every_public_name_has_a_reader():
    definitions = _public_definitions()
    read = {f"{layer}.{name}" for layer, names in _bench_layers().items() for name in names}
    for path in SRC.glob("*.py"):
        read |= _reads(_parse(path), definitions[path.stem])
    for path in (ROOT / "bench").glob("*.py"):
        read |= _reads(_parse(path))
    read |= _reads(ast.parse(_quick_start()))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    read |= {f"{m}.{n}" for m, n in re.findall(r'"groupoidqm\.(\w+):(\w+)"', pyproject)}  # entry points
    defined = {key for keys in definitions.values() for key in keys}
    unread = sorted(defined - read - PAPER_CONTENT.keys())
    assert unread == [], "public names that nothing outside the tests reads: read them, list them or delete them"
    for key, test_id in PAPER_CONTENT.items():
        assert key in defined, f"{key} is listed but not defined"
        path, test = test_id.split("::")
        tree = _parse(ROOT / path)
        assert any(isinstance(n, ast.FunctionDef) and n.name == test for n in tree.body), test_id
        assert key in _reads(tree), f"{path} does not use {key}"
