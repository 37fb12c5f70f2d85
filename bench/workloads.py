"""The benchmark's workloads and the correctness gate they feed.

Each workload is a closed loop: one process runs passes back to back, and
a pass is a fixed list of operations.  An operation is one suite run or
one JGF1 file round trip.  It fails if it raises, if its verdict is
``fail``, or if the gate rejects its output: every pass must reproduce the
first pass's digest of each operation, taken with every timing field
removed.

Only public names of the package are used, always looked up on their
module at call time, so the traced run sees every call.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import time
from dataclasses import dataclass

DEFAULT_SEED = 20250810

ALL_SUITES = (
    "jet_group_axioms",
    "jet_functoriality",
    "action_axioms",
    "chain_rule_matter",
    "chain_rule_connection",
    "curvature_equivariance",
    "gauge_to_zero_1",
    "gauge_to_zero_2",
    "minimal_coupling_invariance",
    "minimal_coupling_negative",
    "utiyama_level_sets",
    "utiyama_negative",
    "theorem_ginv1",
    "theorem_ginv2",
    "mechanics_reduction",
    "maurer_cartan",
)
FIELD_KINDS = (
    # (label, CLI sample kind, finite-difference jet)
    ("group", "group", False),
    ("jet2-gauge", "jet2-gauge", False),
    ("jet2-gauge-fd", "jet2-gauge", True),
    ("jet-connection", "jet-connection", False),
    ("jet-matter", "jet-matter", False),
)
TIMING_KEYS = frozenset({"runtime_ms", "timing", "peak_mb"})
WORKLOADS = ("suites-2d", "suites-4d", "field-io")


@dataclass
class Op:
    """Outcome of one operation."""

    key: str
    seconds: float  # wall time of the program's work, gate excluded
    passed: bool  # the program's verdict
    digest: str | None = None
    error: str | None = None  # raised, or rejected by the gate


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if k not in TIMING_KEYS and not k.endswith("_ms")
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest_of(data) -> str:
    canon = json.dumps(_strip_timing(data), sort_keys=True, allow_nan=True)
    return hashlib.sha256(canon.encode()).hexdigest()


class Gate:
    """Holds each operation's first digest; later passes must reproduce it."""

    def __init__(self):
        self.reference: dict[str, str] = {}

    def check(self, op: Op) -> Op:
        if op.error is None and op.digest is not None:
            first = self.reference.setdefault(op.key, op.digest)
            if first != op.digest:
                op.error = "output differs from the first pass"
        return op


def _suite_op(gj, key: str, cfg):
    """``harness.run`` of a one-suite config; the status must follow the report's rule."""

    def op() -> Op:
        start = time.perf_counter()
        try:
            report = gj.harness.run(cfg)
        except Exception as exc:
            return Op(key, time.perf_counter() - start, False, error=repr(exc))
        seconds = time.perf_counter() - start
        results = report.to_dict()["suites"]
        if [r["name"] for r in results] != list(cfg.suites):
            return Op(key, seconds, False, error="report lists other suites")
        data = results[0]
        status, error = data["status"], None
        if status not in ("pass", "fail"):
            error = f"unknown status {status!r}"
        elif (status == "pass") != (data["max_error"] <= data["tolerance"]):
            error = f"status {status} contradicts max_error {data['max_error']!r} vs {data['tolerance']!r}"
        return Op(key, seconds, status == "pass", digest_of(data), error)

    return op


def _components(value) -> list:
    """The arrays a JGF1 file stores for a field value, by attribute name."""
    if not hasattr(value, "spec"):
        return [value]
    attrs = ("entries", "g", "a", "s", "A", "dA", "phi", "dphi", "comps")
    return [getattr(value, a) for a in attrs if hasattr(value, a)]


def _bit_identical(x, y) -> bool:
    import numpy as np

    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    return np.array_equal(
        np.ascontiguousarray(x).view(np.uint8), np.ascontiguousarray(y).view(np.uint8)
    )


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sample(gj, cfg, kind: str, fd: bool):
    """The field ``gaugejets sample --kind <kind> [--fd]`` writes."""
    spec, patch = cfg.group, cfg.patch
    analytic = gj.analytic
    rng = gj.lie_core.seeded_rng(cfg.seed, "sample", kind)
    if kind in ("group", "jet2-gauge"):
        fam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2)
        sample = analytic.sample_gauge(patch, spec, fam)
        if kind == "group":
            return sample.values
        return gj.jets.jet2_of(sample.values) if fd else sample.jet2
    if kind == "jet-connection":
        fam = analytic.random_connection_family(rng, spec, patch.dim)
        return analytic.sample_connection(patch, spec, fam).jet
    fam = analytic.random_matter_family(rng, spec, patch.dim)
    return analytic.sample_matter(patch, spec, fam).jet


def _round_trip_op(gj, key: str, cfg, kind: str, fd: bool, scratch: str):
    """Sample a field, write it twice with ``write_field``, read it back."""
    first = os.path.join(scratch, key.replace("/", "-") + ".a.jgf1")
    second = os.path.join(scratch, key.replace("/", "-") + ".b.jgf1")

    def op() -> Op:
        start = time.perf_counter()
        try:
            field = _sample(gj, cfg, kind, fd)
            gj.jgf.write_field(field, first)
            gj.jgf.write_field(field, second)
            back = gj.jgf.read_field(first)
            seconds = time.perf_counter() - start
            error = None
            if not filecmp.cmp(first, second, shallow=False):
                error = "writing the same field twice gave different bytes"
            elif type(back.value) is not type(field.value) or back.patch.extent != field.patch.extent:
                error = "read-back field has another kind or extent"
            else:
                pairs = zip(_components(field.value), _components(back.value))
                if not all(_bit_identical(x, y) for x, y in pairs):
                    error = "read-back arrays differ from the written ones"
            return Op(key, seconds, error is None, _file_digest(first), error)
        except Exception as exc:
            return Op(key, time.perf_counter() - start, False, error=repr(exc))
        finally:
            for path in (first, second):
                if os.path.exists(path):
                    os.remove(path)

    return op


class Workload:
    """A fixed list of operations, run in order once per pass."""

    def __init__(self, ops, warm_up):
        self.ops = ops
        self.warm_up = warm_up

    def run_pass(self, between=None) -> list[Op]:
        """Run every operation once; call ``between(outcome)`` after each one."""
        ops = []
        for op in self.ops:
            ops.append(op())
            if between is not None:
                between(ops[-1])
        return ops


CONFIGS = {
    "suites-2d": "harness.run of each of the 16 suites for su2 fundamental and for su3 adjoint "
    "(rep_dim 8), 16x16 patch, spacing 0.2",
    "suites-4d": "harness.run of each of the 16 suites for su3 fundamental, 5x5x5x5 patch, "
    "spacing 0.15",
    "field-io": "sample, write twice and read back 5 CLI sample kinds for su3 fundamental, "
    "10x10x10x10 patch, spacing 0.05",
}


def build(name: str, seed: int, scratch: str) -> Workload:
    """Import the package and build the named workload for ``seed``."""
    import gaugejets
    import gaugejets.analytic
    import gaugejets.harness
    import gaugejets.jets
    import gaugejets.jgf
    import gaugejets.lie_core
    import gaugejets.patch

    gj = gaugejets
    SuiteConfig = gj.harness.SuiteConfig
    group_spec = gj.lie_core.group_spec
    Patch = gj.patch.Patch

    def suites(groups, patch) -> Workload:
        ops, warm = [], []
        for label, spec in groups:
            for suite in ALL_SUITES:
                cfg = SuiteConfig(group=spec, patch=patch, seed=seed, suites=(suite,))
                ops.append(_suite_op(gj, f"{label}/{suite}", cfg))
            warm.append(SuiteConfig(group=spec, patch=patch, seed=seed))
        return Workload(ops, lambda: [gj.harness.run_suite(c, "mechanics_reduction") for c in warm])

    if name == "suites-2d":
        groups = [("su2", group_spec("su2")), ("su3-adjoint", group_spec("su3", rep_dim=8))]
        return suites(groups, Patch((16, 16), 0.2))
    if name == "suites-4d":
        return suites([("su3", group_spec("su3"))], Patch((5, 5, 5, 5), 0.15))
    if name != "field-io":
        raise ValueError(f"unknown workload {name!r}")
    cfg = SuiteConfig(group=group_spec("su3"), patch=Patch((10, 10, 10, 10), 0.05), seed=seed)
    ops = [_round_trip_op(gj, f"su3/{label}", cfg, kind, fd, scratch)
           for label, kind, fd in FIELD_KINDS]
    return Workload(ops, lambda: gj.harness.run_suite(cfg, "mechanics_reduction"))
