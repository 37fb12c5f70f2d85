"""Source hygiene: every module uses each name it imports, the fiber
modules multiply matrices through one kernel, and only ``lie_core`` builds
representation matrices.

No linter ships with the test dependencies, so this AST scan stands in for
the unused-import check: a name counts as used when the module reads it
anywhere (including quoted annotations) or re-exports it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugejets"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("name", ["lie_core.py", "jets.py", "actions.py"])
def test_fiber_products_use_mm(name):
    """Fiber-matrix products go through ``lie_core.mm``, never the ``@`` operator."""
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )
    assert not lines, f"{name} uses @ on lines {lines}; use lie_core.mm"


REP_BUILDERS = {"rep_matrix", "rep_algebra_matrix"}


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "lie_core.py"], ids=lambda p: p.name
)
def test_rep_matrices_stay_in_lie_core(path):
    """Representation matrices are built and applied in ``lie_core`` alone."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in REP_BUILDERS)
        or (isinstance(node, ast.Attribute) and node.attr in REP_BUILDERS)
        or (isinstance(node, ast.alias) and node.name in REP_BUILDERS)
    )
    assert not lines, f"{path.name} references rep_matrix/rep_algebra_matrix on lines {lines}"
