"""The verdict ledger: each (config, suite) row of ``ledger.json`` reruns to the
same status, tolerance and ``max_error`` bits.

``make_ledger.py`` defines the matrix and writes the file; the configs
outside its ``FAST`` set run under the ``slow`` marker (``pytest -m slow``).
A failure names every row that moved.  BLAS-backed products can round
differently on another CPU, so a moved row there is a diagnosis, not
necessarily a regression.
"""

import json
from pathlib import Path

import pytest

from make_ledger import FAST, configs, rows

LEDGER = json.loads(Path(__file__).with_name("ledger.json").read_text())
PINNED: dict[str, list[dict]] = {}
for _row in LEDGER["rows"]:
    PINNED.setdefault(_row.pop("config"), []).append(_row)


def test_ledger_lists_the_matrix():
    assert LEDGER["configs"] == configs()
    assert list(PINNED) == list(configs())


@pytest.mark.parametrize(
    "label", [pytest.param(c, marks=[] if c in FAST else pytest.mark.slow) for c in configs()]
)
def test_ledger_rows_unmoved(label):
    pinned, got = PINNED[label], rows(configs()[label])
    moved = [f"{label} {old['suite']}: {old} -> {new}" for old, new in zip(pinned, got) if old != new]
    assert [r["suite"] for r in got] == [r["suite"] for r in pinned]
    assert not moved, "rows moved:\n" + "\n".join(moved)
