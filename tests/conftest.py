"""One traced pass over the program paths, shared by the ledger and the reach gate.

``program_trace`` runs each program path once under a ``sys.settrace`` line
tracer confined to the ``gaugejets`` sources.  The paths are the ways a
user runs the verifier, on real input:

* ``harness.run`` of every suite on each ``FAST`` ledger config;
* the CLI: refused configs and JGF1 files, a run whose negative controls
  fall under their margins (spacing 1e-4), suites whose samples or
  densities overflow (spacing 1e150 at origin 1e160, and 1e300 on a
  line), every suite at the smallest normal spacing, ``converge`` of the
  fd suites and of an exact one, ``sample`` of every kind with and
  without ``--fd`` and ``inspect`` of each file written, far from the
  origin too, a ``sample`` on the overflow config, which the JGF1 writer
  refuses and removes, ``inspect`` of files whose header has a line over
  the limit or a value that is not a number, and ``inspect`` of a 1-D
  curvature file, whose payload is empty.

It returns the ledger rows, which ``test_ledger.py`` compares, and the lines
each source file executed, which ``test_reach.py`` reads.  The tests
themselves are not a program path.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaugejets
from gaugejets import jgf
from gaugejets.cli import SAMPLES, main as cli
from gaugejets.jets import curvature
from gaugejets.patch import Field
from make_ledger import FAST, configs, rows

SRC = Path(gaugejets.__file__).parent
SAMPLE_CONFIG = {"group": {"family": "su3"}, "patch": {"extent": [6, 6, 6], "spacing": 0.2}}
FAR_CONFIG = {"group": {"family": "su3"}, "patch": {"extent": [16, 16], "spacing": 0.2, "origin": [300, 0]}}
LINE_CONFIG = {"patch": {"extent": [5], "spacing": 0.2}}
CONVERGE_CONFIG = {"patch": {"extent": [12, 12], "spacing": 0.2}, "h_levels": [0.2, 0.1, 0.05]}
OVERFLOW_CONFIG = {"patch": {"extent": [6, 6], "spacing": 1e150, "origin": [1e160, 0]}}
OVERFLOW_LINE_CONFIG = {"patch": {"extent": [6], "spacing": 1e300}}
# suite -> the first non-finite stage (a density, for the action suites) on OVERFLOW_CONFIG
OVERFLOW_STAGES = {
    "jet_functoriality": "gauge_2",
    "chain_rule_connection": "connection",
    "gauge_to_zero_1": "connection",
    "gauge_to_zero_2": "connection_jet",
    "theorem_ginv1": "free",
    "theorem_ginv2": "yang_mills",
    "maurer_cartan": "gauge",
}


def cli_programs(tmp: Path):
    """The command lines of the CLI program paths; each is yielded after the one before has run."""

    def config(name: str, data: dict) -> str:
        (tmp / name).write_text(json.dumps(data))
        return str(tmp / name)

    yield ["run", "--config", config("bad.json", {"seed": True})]
    small = config("small.json", {"patch": {"extent": [6, 6], "spacing": 1e-4}})
    out = str(tmp / "small-report.json")
    yield ["run", "--config", small, "--suite", "theorem_ginv1", "--suite", "theorem_ginv2", "--out", out]
    overflow = config("overflow.json", OVERFLOW_CONFIG)
    yield ["run", "--config", overflow] + [arg for name in OVERFLOW_STAGES for arg in ("--suite", name)]
    yield ["run", "--config", config("overflow-line.json", OVERFLOW_LINE_CONFIG), "--suite", "mechanics_reduction"]
    tiny = config("tiny.json", {"patch": {"extent": [5, 5], "spacing": np.finfo(float).tiny}})
    yield ["run", "--config", tiny]  # no suites named: every suite runs
    converge = config("converge.json", CONVERGE_CONFIG)
    yield ["converge", "--config", converge, "--csv", str(tmp / "r.csv"), "--out", str(tmp / "r.json")]
    yield ["converge", "--config", converge, "--suite", "jet_group_axioms"]
    sample, far = config("sample.json", SAMPLE_CONFIG), config("far.json", FAR_CONFIG)
    runs = [(sample, kind, fd) for kind in SAMPLES for fd in ([], ["--fd"])]
    for path, kind, fd in runs + [(far, "connection", []), (far, "jet-connection", [])]:
        out = str(tmp / f"{Path(path).stem}-{kind}{'-fd' if fd else ''}.jgf1")
        yield ["sample", "--config", path, "--kind", kind, *fd, "--out", out]
        if Path(out).exists():  # --fd of a kind without a jet exits 2 and writes nothing
            yield ["inspect", out]
    yield ["sample", "--config", overflow, "--kind", "jet2-gauge", "--out", str(tmp / "overflow.jgf1")]
    (tmp / "long.jgf1").write_bytes(b"JGF1\nspacing " + b"1" * jgf.HEADER_LINE_LIMIT + b"\n")
    yield ["inspect", str(tmp / "long.jgf1")]
    (tmp / "bad-value.jgf1").write_bytes(b"JGF1\nfamily su2\nrep_dim two\n")
    yield ["inspect", str(tmp / "bad-value.jgf1")]
    line = str(tmp / "line.jgf1")
    yield ["sample", "--config", config("line.json", LINE_CONFIG), "--kind", "jet-connection", "--out", line]
    jc = jgf.read_field(line)
    jgf.write_field(Field(jc.patch, curvature(jc.value), jc.margin), tmp / "curvature.jgf1")
    yield ["inspect", str(tmp / "curvature.jgf1")]


def _recorder(lines: set):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


@contextlib.contextmanager
def line_trace(prefix: str):
    """Yield {file name: executed line numbers} for the code under ``prefix`` run
    inside the block; the tracer set before is restored, whatever the block raises."""
    executed, recorders = {}, {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        if name not in recorders:
            recorders[name] = _recorder(executed.setdefault(name, set()))
        return recorders[name]

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield executed
    finally:
        sys.settrace(previous)


@pytest.fixture(scope="session")
def program_trace(tmp_path_factory):
    """``rows``: the ledger rows of each ``FAST`` config; ``executed``: the lines run, by file."""
    tmp = tmp_path_factory.mktemp("programs")
    for name, module in list(sys.modules.items()):  # memoised functions run again, whatever ran before
        if name.partition(".")[0] == "gaugejets":
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with line_trace(str(SRC)) as executed, quiet[0], quiet[1]:
        ledger = {label: rows(config) for label, config in configs().items() if label in FAST}
        for argv in cli_programs(tmp):
            cli(argv)
    return SimpleNamespace(rows=ledger, executed=executed)
