"""Benchmark of the gaugejets verifier.

Run from the root of a source checkout:

    python3 bench/run.py --workload suites-2d --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (set-up time, median
pass wall time over an interleaved reference kernel's time, peak resident
memory, share of operations that pass);
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer self times and work counts.  The last line of standard output is
one JSON object; the lines before it are the same results for a reader.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads (also in the set-up probes, which
# inherit this environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 8  # fresh processes; with the main process, 9 set-up samples
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402
import tracing  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, scratch: str):
    """Import the package, build the workload and warm it up; return (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    workload = workloads.build(name, seed, scratch)
    workload.warm_up()
    return workload, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict[str, str]:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": platform.machine(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu"] = models[0] if models else env["cpu"]
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(cache, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache, index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = size
    except OSError:
        pass
    return env


class Reference:
    """A fixed kernel, timed after every operation, that gauges the host's speed.

    On a shared virtual machine the host's speed can drift by 2x over
    minutes, which moves every pass time alike.  Python loops, small-batch and large-batch
    complex 3x3 products - the mix the package runs - slow down together
    with the program, so a pass time divided by the mean time of one
    reference call made beside it stays put.  After each operation the
    kernel runs once per ``EVERY_S`` of the operation's time, at least
    once, so long operations are gauged as densely as short ones.  It
    uses no package code; its inputs are fixed, not drawn from the seed.
    """

    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((256, 3, 3)) + 1j * rng.standard_normal((256, 3, 3))
        self._large = rng.standard_normal((4096, 3, 3)) + 1j * rng.standard_normal((4096, 3, 3))
        self.seconds = 0.0
        self.calls = 0

    def _products(self, m, reps: int):
        np = self._np
        for _ in range(reps):
            b = m @ m
            c = np.conj(np.swapaxes(b, -1, -2)) @ m
            np.einsum("nij,njk->nik", b, c)
            np.linalg.norm(c - b, axis=(-2, -1)).max()

    def __call__(self, op):
        for _ in range(max(1, round(op.seconds / self.EVERY_S))):
            start = time.perf_counter()
            counts = {}
            for i in range(8000):
                counts[i % 97] = counts.get(i % 97, 0) + 3 * i
                [i + 2, i + 1, i].sort()
            self._products(self._small, 8)
            self._products(self._large, 1)
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def reset(self) -> None:
        self.seconds, self.calls = 0.0, 0

    def call_seconds(self) -> float:
        return self.seconds / self.calls


def measure(workload, seconds: float, tracer=None):
    """Run passes until ``seconds`` would be exceeded; with a tracer, alternate.

    Returns the passes as (traced, ops, seconds per reference call) triples, and the
    per-layer metrics of each traced pass.
    """
    gate = workloads.Gate()
    reference = Reference()
    passes, layers, lengths = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        use_trace = tracer is not None and len(passes) % 2 == 1
        if use_trace:
            tracer.install()
            tracer.begin_pass()
        reference.reset()
        try:
            ops = workload.run_pass(between=reference)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            layers.append(tracer.end_pass(sum(op.seconds for op in ops)))
        passes.append((use_trace, [gate.check(op) for op in ops], reference.call_seconds()))
        lengths.append(time.perf_counter() - start)
        typical = statistics.median(lengths)
        if len(passes) >= MIN_PASSES and time.perf_counter() - begin + typical > seconds:
            return passes, layers


def pass_seconds(passes) -> list[float]:
    """Wall time of each pass: its operations' program work, gate excluded."""
    return [sum(op.seconds for op in ops) for ops in passes]


def per_layer_metrics(tracer, plain, traced, layers) -> dict[str, dict]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer.name}.self_s"] = "s"
        units[f"{layer.name}.{layer.count}"] = layer.count
    units["harness.self_s"] = "s"
    for suite in workloads.ALL_SUITES:
        units[f"harness.suite_s.{suite}"] = "s"
    metrics = {}
    for name, unit in units.items():
        values = [pass_metrics.get(name, 0.0) for pass_metrics in layers]
        value = statistics.median(values) if unit == "s" else int(values[0])
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(pass_seconds(traced)) / statistics.median(pass_seconds(plain)) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    metrics["trace.absent_names"] = {"value": len(tracer.absent), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaugejets", "__init__.py")):
        print(f"error: no gaugejets sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    if args.probe_setup:
        _, seconds = setup(args.workload, args.seed, scratch)
        print(repr(seconds))
        return 0

    os.makedirs(scratch, exist_ok=True)
    try:
        workload, setup_main = setup(args.workload, args.seed, scratch)
        setup_samples = [setup_main] if args.trace else [setup_main] + probe_setups(args)
        tracer = tracing.Tracer() if args.trace else None
        passes, layers = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [ops for traced, ops, _ in passes if not traced]
    traced = [ops for traced, ops, _ in passes if traced]
    relative = [sum(op.seconds for op in ops) / ref for traced, ops, ref in passes if not traced]
    all_ops = [op for _, ops, _ in passes for op in ops]
    attempted = len(all_ops)
    # ``failed`` counts operations whose output is wrong: they raised or the
    # gate rejected them.  A ``fail`` verdict is the program's own finding
    # about its numerics; it is printed and counted in ``pass_frac``.
    failed = sum(1 for op in all_ops if op.error is not None)
    not_passing = sum(1 for op in all_ops if op.error is not None or not op.passed)
    correct = failed == 0

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {workloads.CONFIGS[args.workload]}")
    groups: dict[str, list[str]] = {}
    for op in passes[0][1]:
        groups.setdefault(op.key.split("/")[0], []).append(op.digest or "-")
        if not op.passed:
            print(f"verdict {op.key} fail")
    for label, digests in groups.items():
        print(f"digest {label} {hashlib.sha256(' '.join(digests).encode()).hexdigest()}")
    for op in all_ops:
        if op.error:
            print(f"gate {op.key}: {op.error}")
    pass_times = pass_seconds(plain)
    print(f"fail_frac {not_passing / attempted:.6g} ({not_passing} of {attempted} operations "
          f"failed: {not_passing - failed} by verdict, {failed} raised or rejected by the gate)")
    print(f"passes {len(passes)}; untraced pass seconds: "
          + " ".join(f"{t:.3f}" for t in pass_times))
    print("untraced pass / reference: " + " ".join(f"{r:.3f}" for r in relative))
    print(f"wall_s {statistics.median(pass_times):.6g} s: median untraced pass, "
          "unscaled, so it moves with the host's speed")

    if args.trace:
        metrics = per_layer_metrics(tracer, plain, traced, layers)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        for target in tracer.absent:
            print(f"absent {target}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_ref": {"value": statistics.median(relative), "unit": "ref"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "pass_frac": {"value": (attempted - not_passing) / attempted, "unit": "frac"},
        }
        print(f"wall_s and wall_ref are medians of {len(plain)} passes; "
              f"setup_s is the median of {len(setup_samples)} set-ups")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
