"""Source hygiene: every module uses each name it imports, the fiber
modules multiply matrices through the ``lie_core`` kernels and bracket
stacks through ``pair_products``, one study takes every action integral,
the densities import no layer above ``jets``, only ``lie_core`` builds
representation matrices, every fiber type declares its arrays in one
``Fiber.LAYOUT``, no two of them alike, every fiber type has a JGF1 kind,
only ``jets`` symmetrizes in (mu, nu) or differences fields beside
``patch``, every suite is registered by the ``@_suite`` decorator on its
function, every function the benchmark tracer wraps still exists, and
every definition has a caller outside the tests.

No linter ships with the test dependencies, so this AST scan stands in for
the unused-import check: a name counts as used when the module reads it
anywhere (including quoted annotations) or re-exports it in ``__all__``.
"""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugejets import jets, jgf, lie_core

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gaugejets"
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


# array products that only ``lie_core``'s kernels may call
PRODUCT_CALLS = {"matmul", "einsum", "dot", "tensordot"}


@pytest.mark.parametrize("name", ["lie_core.py", "jets.py", "actions.py"])
def test_fiber_products_use_mm(name):
    """No fiber module uses the ``@`` operator, and ``jets`` and ``actions``
    call no ``matmul``, ``einsum``, ``dot`` or ``tensordot``: their products
    go through the ``lie_core`` kernels, ``mm`` for single products and
    ``ad``, ``ad_stacks`` and ``pair_products`` for stacks."""
    tree = ast.parse((SRC / name).read_text(), filename=name)
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )
    assert not lines, f"{name} uses @ on lines {lines}; use lie_core.mm"
    if name == "lie_core.py":
        return
    calls = sorted(
        (node.lineno, fn)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (fn := getattr(node.func, "attr", getattr(node.func, "id", None))) in PRODUCT_CALLS
    )
    assert not calls, f"{name} calls array products {calls}; use a lie_core kernel"


def _mm_args(node: ast.AST) -> list[str] | None:
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "mm":
        return [ast.dump(arg) for arg in node.args]
    return None


def _commutator_lines(tree: ast.Module) -> list[int]:
    """Lines of ``mm(x, y) - mm(y, x)``, also as the tail of ``... + mm(x, y) - mm(y, x)``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            continue
        left = node.left
        while isinstance(left, ast.BinOp) and isinstance(left.op, ast.Add):
            left = left.right
        xy, yx = _mm_args(left), _mm_args(node.right)
        if xy and yx and xy == yx[::-1]:
            lines.append(node.lineno)
    return sorted(lines)


# ``lie_core.bracket`` brackets two grids of single matrices, not a stack
SPELLED_BRACKETS = {"lie_core.py": "bracket"}


@pytest.mark.parametrize("name", ["jets.py", "actions.py", "lie_core.py"])
def test_brackets_use_pair_products(name):
    """The jet laws, the connection law, ``curvature``, the flatness defect and
    the structure constants take their brackets from ``pair_products`` as
    P[mu, nu] - P[nu, mu]; only ``lie_core.bracket`` spells a bracket out as
    ``mm(x, y) - mm(y, x)``."""
    tree = ast.parse((SRC / name).read_text(), filename=name)
    allowed = SPELLED_BRACKETS.get(name)
    tree.body = [node for node in tree.body if getattr(node, "name", None) != allowed]
    lines = _commutator_lines(tree)
    assert not lines, f"{name} spells out a bracket on lines {lines}; use pair_products"


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The top-level definition (or ``<module>``) around each call of ``name``."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
    }


def test_only_the_action_study_integrates():
    """Every action integral is taken in one place, ``harness._action_invariance``,
    on the points of the region it integrates."""
    callers = {
        f"{path.name}:{where}"
        for path in MODULES
        for where in _callers(ast.parse(path.read_text(), filename=str(path)), "integrate")
    }
    assert callers == {"harness.py:_action_invariance"}


def _package_imports(tree: ast.Module) -> set[str]:
    """The ``gaugejets`` modules a module imports from, relatively or by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gaugejets")):
            module = (node.module or "").removeprefix("gaugejets").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("gaugejets.") for a in node.names if a.name.startswith("gaugejets")}
    return found


def test_densities_sit_below_the_actions():
    """``lagrangians`` imports from ``lie_core`` and ``jets`` alone: the densities
    read fibers and jets, never the action laws that move them."""
    tree = ast.parse((SRC / "lagrangians.py").read_text(), filename="lagrangians.py")
    assert _package_imports(tree) <= {"lie_core", "jets"}


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


# fiber types whose constructor adds a check the layout cannot state
EXTRA_CHECKS = {"Jet2Gauge"}  # s must be stored exactly symmetric


@pytest.mark.parametrize("module", [lie_core, jets], ids=lambda m: m.__name__)
def test_fiber_types_declare_layout(module):
    """A dataclass with array fields is a ``Fiber`` whose ``LAYOUT`` lists exactly
    those fields, in field order, and writes no constructor of its own."""
    found = []
    for cls in vars(module).values():
        if not dataclasses.is_dataclass(cls) or cls.__module__ != module.__name__:
            continue
        arrays = [f.name for f in dataclasses.fields(cls) if f.type in ("np.ndarray", np.ndarray)]
        if not arrays:
            continue
        found.append(cls.__name__)
        assert issubclass(cls, lie_core.Fiber), f"{cls.__name__} is not a Fiber"
        assert list(cls.LAYOUT) == arrays, f"{cls.__name__}.LAYOUT does not list {arrays}"
        if cls.__name__ not in EXTRA_CHECKS:
            assert "__post_init__" not in vars(cls), f"{cls.__name__} writes its own constructor"
    assert found, f"no fiber types found in {module.__name__}"


def test_only_fiber_defines_batch_shape():
    """Batch shapes come from the layout; no other class computes its own."""
    owners = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "batch_shape" for item in node.body)
    ]
    assert owners == ["lie_core.py:Fiber"]


FIBERS = [
    cls
    for module in (lie_core, jets)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, lie_core.Fiber) and cls is not lie_core.Fiber
]


def test_every_stored_fiber_type_has_a_jgf_kind():
    """JGF1 stores every fiber type, and only those."""
    assert set(FIBERS) == {cls for cls, _ in jgf.KINDS.values()}


def test_no_two_fiber_types_share_a_layout():
    """A type whose ``LAYOUT`` copies another's is the same fiber under a second name."""
    seen = {}
    for cls in FIBERS:
        twin = seen.setdefault(tuple(cls.LAYOUT.items()), cls)
        assert twin is cls, f"{cls.__name__} has the layout of {twin.__name__}"


def _references(path: Path, name: str) -> bool:
    """Whether the module defines, imports or reads ``name``."""
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, (ast.alias, ast.FunctionDef)) and node.name == name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    )


def _swaps_mu_nu(node: ast.AST) -> bool:
    """A ``swapaxes(x, -4, -3)`` call: the (mu, nu) transpose of rank-2 stacks."""
    if not isinstance(node, ast.Call) or len(node.args) != 3:
        return False
    fn = node.func
    if getattr(fn, "attr", getattr(fn, "id", None)) != "swapaxes":
        return False
    try:
        return [ast.literal_eval(a) for a in node.args[1:]] == [-4, -3]
    except ValueError:
        return False


def test_rank2_symmetrization_stays_in_jets():
    """The (mu, nu) transpose behind ``jets.sym`` is spelled in ``jets`` alone."""
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if any(_swaps_mu_nu(n) for n in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {"jets.py"}


def test_central_diff_stays_in_patch_and_jets():
    """Finite differences of sampled fields come from the jets' ``*_of`` builders."""
    users = {path.name for path in sorted(SRC.glob("*.py")) if _references(path, "central_diff")}
    assert users == {"patch.py", "jets.py"}


MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _suites_writers(tree: ast.Module) -> list[str]:
    """The function (or ``<module>``) around each statement that binds, stores into
    or mutates a name or attribute ``SUITES``."""

    def is_suites(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "SUITES"

    def writes(node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            return any(is_suites(t) or is_suites(getattr(t, "value", None)) for t in targets)
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and is_suites(node.func.value)
        )

    found = []

    def visit(node, where):
        if writes(node):
            found.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_suites_are_registered_by_decorator():
    """Each ``_suite_<name>`` function in ``harness`` carries ``@_suite(...)``, and
    ``SUITES`` is written only where it is declared and inside that decorator."""
    tree = ast.parse((SRC / "harness.py").read_text(), filename="harness.py")
    suites = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")
    ]
    assert suites
    for fn in suites:
        names = [getattr(d.func, "id", None) for d in fn.decorator_list if isinstance(d, ast.Call)]
        assert names == ["_suite"], f"{fn.name} is not declared by @_suite(...)"
    writers = {
        path.name: _suites_writers(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: w for name, w in writers.items() if w} == {"harness.py": ["<module>", "register"]}


def test_traced_names_resolve(monkeypatch):
    """Every function ``bench/tracing.py`` wraps still exists, so renaming one
    fails here instead of silently zeroing its layer in a traced bench run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(tracing)
    targets = [t for layer in tracing.LAYERS for t in layer.targets]
    targets += list(tracing.HARNESS_TARGETS)
    assert targets
    assert [t for t in targets if tracing._resolve(t) is None] == []


BENCH = sorted((ROOT / "bench").glob("*.py"))
# called by name from nowhere: the ``@_suite`` decorator registers ``_suite_*``,
# and ``algebra_from_coords`` stays for the adjoint coordinates of ROADMAP item 6
# (the same reason ``test_reach.ALLOWED`` gives)
UNCALLED = {"algebra_from_coords"}


def _definitions(tree: ast.Module):
    """(label, name) of each top-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _reads(tree: ast.Module) -> set[str]:
    """Every name the tree reads as an ``ast.Name`` or the attribute of an ``ast.Attribute``."""
    return {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _dotted_parts(tree: ast.Module) -> set[str]:
    """Each part of every dotted string constant, the way the tracer names its targets."""
    return {
        part
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value
        for part in node.value.split(".")
    }


def test_every_definition_has_a_caller():
    """Every function, class and method of the package is read somewhere in the
    package (re-exports in ``__init__`` do not count) or in the benchmark, so
    no library name lives on for the tests alone."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + BENCH}
    read = set().union(*map(_reads, trees.values()), *(_dotted_parts(trees[p]) for p in BENCH))
    uncalled = sorted(
        f"{path.name}:{label}"
        for path in MODULES
        for label, name in _definitions(trees[path])
        if name not in read and name not in UNCALLED and not name.startswith("_suite_")
    )
    assert not uncalled, f"defined but called only from the tests: {', '.join(uncalled)}"
