"""Write the verdict ledger: one row per (config, suite) of a fixed config matrix.

Each row pins the suite's status, its tolerance and its ``max_error``, both
written as ``float.hex``; timing is dropped.  ``tests/test_ledger.py`` reruns
the matrix and names every row that moved.  The ledger is a record, not a
gate: a change that moves a row regenerates the file with this script and
lists the moved rows, and every pass-to-fail flip, in CHANGES.md.

The matrix covers u1, su2, su3, the su3 adjoint and the su(4) adjoint on
small patches (33 points at 0.1, 12^2 at 0.2, 7^3 at 0.2, 5^4 at 0.15)
with both metrics, at the default seed.  The configs of the known
failures on default patches ride along: su3 on 64^2, and u1 on 257
points.  ``FAST`` names the configs that tier-1 reruns; the rest are
marked ``slow``.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/make_ledger.py [tests/ledger.json]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from gaugejets.harness import SUITES, SuiteConfig, run

GROUPS = {
    "u1": {"family": "u1"},
    "su2": {"family": "su2"},
    "su3": {"family": "su3"},
    "su3-adjoint": {"family": "su3", "rep_dim": 8},
    "su4-adjoint": {"family": "sun", "n": 4, "rep_dim": 15},
}
PATCHES = {
    1: {"extent": [33], "spacing": 0.1},
    2: {"extent": [12, 12], "spacing": 0.2},
    3: {"extent": [7, 7, 7], "spacing": 0.2},
    4: {"extent": [5, 5, 5, 5], "spacing": 0.15},
}
METRICS = ("euclidean", "minkowski")
# known failures on the default patches (64^2 and 257 points at 0.05)
DEFAULT_PATCHES = {
    "su3/2d-default/euclidean": {"group": GROUPS["su3"]},
    "u1/1d-default/euclidean": {"group": GROUPS["u1"], "patch": {"extent": [257]}},
}


def configs() -> dict[str, dict]:
    """Config label -> config dict (without ``suites``), in ledger order."""
    out = {
        f"{group}/{dim}d/{metric}": {"group": spec, "patch": patch, "metric": metric}
        for group, spec in GROUPS.items()
        for dim, patch in PATCHES.items()
        for metric in METRICS
    }
    return {**out, **DEFAULT_PATCHES}


def _fast(label: str) -> bool:
    """About 10 s of the matrix: euclidean on 1-D to 3-D (but the su(4)
    adjoint on 3-D), both metrics on 4-D for u1 and su2, and the default patches."""
    group, dim, metric = label.split("/")
    if dim == "4d":
        return group in ("u1", "su2")
    return metric == "euclidean" and not (group == "su4-adjoint" and dim == "3d")


FAST = set(filter(_fast, configs()))


def rows(config: dict) -> list[dict]:
    """The ledger rows of one config: every registered suite, in registry order."""
    report = run(SuiteConfig.from_dict({**config, "suites": list(SUITES)}))
    return [
        {
            "suite": r.name,
            "status": r.status,
            "tolerance": float.hex(r.tolerance),
            "max_error": float.hex(r.max_error),
        }
        for r in report.suites
    ]


def main(path: str = str(Path(__file__).with_name("ledger.json"))) -> None:
    """Write the ledger as JSON with one config and one row per line."""
    head, body = [], []
    for label, config in configs().items():
        start = time.perf_counter()
        head.append(f"  {json.dumps(label)}: {json.dumps(config)}")
        body += (json.dumps({"config": label, **row}) for row in rows(config))
        print(f"{label}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    text = '{"configs": {\n' + ",\n".join(head) + '\n},\n"rows": [\n' + ",\n".join(body)
    Path(path).write_text(text + "\n]}\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
