"""Print each statement of ``src/gaugejets`` that no program path executes.

A stdlib line trace (``coverage`` is not a dependency) runs the program the
way a user does: every suite on the ``FAST`` configs of ``make_ledger``,
``converge --csv``, ``sample`` of every kind with and without ``--fd``, and
``inspect`` of each written file.  The tests are not a program path: a
statement only they reach is listed.  ``raise`` statements and docstrings
are skipped; compound statements count through the statements they hold.

Run from the root of a source checkout (about 15 s on 2 CPUs):

    PYTHONPATH=src python tests/reach.py
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugejets"
COMPOUND = (ast.FunctionDef, ast.ClassDef, ast.If, ast.For, ast.While, ast.With, ast.Try)
SAMPLE_CONFIG = {"group": {"family": "su3"}, "patch": {"extent": [6, 6, 6], "spacing": 0.2}}
CONVERGE_CONFIG = {"patch": {"extent": [12, 12], "spacing": 0.2}, "h_levels": [0.2, 0.1, 0.05]}


def statements(path: Path):
    """(first line, last line) of each simple statement but ``raise`` and docstrings."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, ast.stmt) and not isinstance(node, COMPOUND + (ast.Raise,)) and not docstring:
            yield node.lineno, node.end_lineno


def programs(tmp: Path):
    """The command lines of every program path; each is yielded after the one before has run."""
    from gaugejets.cli import SAMPLES
    from gaugejets.harness import SUITES
    from make_ledger import FAST, configs

    def config(name: str, data: dict) -> str:
        (tmp / name).write_text(json.dumps(data))
        return str(tmp / name)

    for label in sorted(FAST):
        yield ["run", "--config", config("run.json", {**configs()[label], "suites": list(SUITES)})]
    converge = config("converge.json", CONVERGE_CONFIG)
    yield ["converge", "--config", converge, "--csv", str(tmp / "r.csv"), "--out", str(tmp / "r.json")]
    sample = config("sample.json", SAMPLE_CONFIG)
    for kind in SAMPLES:
        for fd in ([], ["--fd"]):
            out = str(tmp / f"{kind}{'-fd' if fd else ''}.jgf1")
            yield ["sample", "--config", sample, "--kind", kind, *fd, "--out", out]
            if Path(out).exists():  # --fd of a kind without a jet exits 2 and writes nothing
                yield ["inspect", out]


def main() -> None:
    executed = set()  # (file name, line number)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(SRC)) else None

    sys.settrace(trace)  # before the first import, so module-level statements count
    from gaugejets.cli import main as cli

    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet[0], quiet[1]:
        for argv in programs(Path(tmp)):
            cli(argv)
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for first, last in sorted(statements(path)):
            if not any((str(path), n) in executed for n in range(first, last + 1)):
                print(f"{path.relative_to(SRC.parent.parent)}:{first}: {lines[first - 1].strip()}")


if __name__ == "__main__":
    main()
