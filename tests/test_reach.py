"""Reach gate: every statement of ``src/gaugejets`` runs in some program path.

``conftest.program_trace`` runs the program paths under a line trace.  A
statement that none of them executes is reached by the tests alone, so it
checks none of the paper's claims: this test fails on it, unless ``ALLOWED``
names it with a reason.  A failure lists each such statement as
``file:line (enclosing function): text``.  Mend it by deleting the code, or
by adding to ``conftest.cli_programs`` real input that reaches it; an
allowlist entry is the last resort.

Statements outside function bodies run at import, before the trace starts,
so they count as reached once their module is imported; those under a
module-level branch do not.  A function that decorates a definition at
import runs there too, with the functions it defines (``harness._suite``
and the ``register`` it returns).  ``raise`` statements and docstrings are
not counted: a refusal is reached by the bad input the tests feed it.  A
multi-line statement counts as reached when any of its lines ran.
"""

import ast
import sys
from pathlib import Path

import pytest

import gaugejets
from conftest import line_trace

SRC = Path(gaugejets.__file__).parent

# (file, statement text or enclosing qualname) -> why no program path runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the `python -m gaugejets.cli` guard; the programs call `main`",
    ("lagrangians.py", "MinimallyCoupledDensity.__call__"): "a bench tracer target, deleted with "
    "its bench change (ROADMAP item 2)",
    ("lie_core.py", "algebra_from_coords"): "kept for the adjoint coordinates of ROADMAP item 6",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _decorators(tree: ast.Module) -> set[str]:
    """Names that decorate a definition of the module or of its classes at import."""
    defs = [n for c in tree.body for n in (c, *getattr(c, "body", ())) if isinstance(n, DEFINITIONS)]
    calls = [d.func if isinstance(d, ast.Call) else d for n in defs for d in n.decorator_list]
    return {d.id for d in calls if isinstance(d, ast.Name)}


def statements(node: ast.AST, decorators: set[str], qualname: str = "", at_import: bool = True):
    """(statement, enclosing qualname, runs at import) of each simple statement
    under ``node`` but ``raise`` and docstrings."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            name = f"{qualname}.{child.name}" if qualname else child.name
            runs = at_import and (isinstance(child, ast.ClassDef) or child.name in decorators)
            # a decorator's own functions (the one it returns) are applied at import too
            decorator = runs and isinstance(child, FUNCTIONS)
            inner = {f.name for f in child.body if isinstance(f, FUNCTIONS)} if decorator else decorators
            yield from statements(child, inner, name, runs)
        elif isinstance(child, (ast.stmt, ast.excepthandler)) and "body" in child._fields:
            yield from statements(child, decorators, qualname, False)  # a branch, loop, with or try
        elif isinstance(child, ast.stmt) and not isinstance(child, ast.Raise) and not _docstring(child):
            yield child, qualname, at_import


def unreached(executed: dict[str, set[int]]):
    """(file name, line, qualname, text) of each statement that no program path ran."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        imported = ("gaugejets" if path.stem == "__init__" else f"gaugejets.{path.stem}") in sys.modules
        lines = executed.get(str(path), set())
        tree = ast.parse(source, filename=str(path))
        for node, qualname, at_import in statements(tree, _decorators(tree)):
            if not (at_import and imported) and lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                yield path.name, node.lineno, qualname, ast.get_source_segment(source, node)


def test_every_statement_runs_in_a_program_path(program_trace):
    missed = list(unreached(program_trace.executed))
    allowed = {(f, key) for f, _, q, text in missed for key in (q, text) if (f, key) in ALLOWED}
    listed = [
        f"src/gaugejets/{f}:{line} ({q or 'module'}): {text.splitlines()[0]}"
        for f, line, q, text in missed
        if (f, q) not in ALLOWED and (f, text) not in ALLOWED
    ]
    assert not listed, "statements that only the tests reach:\n" + "\n".join(listed)
    stale = set(ALLOWED) - allowed
    assert not stale, f"allowlist entries that name no unreached statement: {sorted(stale)}"


def test_trace_restores_the_previous_tracer():
    """The pass puts back the tracer it found (a coverage tool's, say), even when a program raises."""
    outer = sys.gettrace()

    def previous(frame, event, arg):
        return None

    sys.settrace(previous)
    try:
        with pytest.raises(ZeroDivisionError), line_trace(str(SRC)) as executed:
            gaugejets.lie_core.group_spec("su2")
            1 / 0
        assert sys.gettrace() is previous and executed
    finally:
        sys.settrace(outer)
