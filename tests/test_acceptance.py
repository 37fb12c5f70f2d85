"""Acceptance gate: every verification claim at its pinned tolerance.

Each criterion prints one line (visible with ``pytest -rA`` or ``-s``),
asserts the stated error bound, and enforces its runtime budget.  All data
is generated deterministically from fixed seeds through the harness.
"""

import time

from gaugejets.harness import (
    SuiteConfig,
    convergence_study,
    run_suite,
)
from gaugejets.jets import JetConnection, curvature
from gaugejets.lie_core import group_spec, random_algebra_entries, seeded_rng
from gaugejets.patch import Patch, default_patch

SEED = 20250810


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def timed(fn, *args, **kw):
    start = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - start


def test_criterion_01_jet_group_axioms():
    worst = 0.0
    start = time.perf_counter()
    for spec in (group_spec("u1"), group_spec("su2"), group_spec("su3"), group_spec("sun", 4)):
        cfg = SuiteConfig(seed=SEED, group=spec, patch=default_patch(2))
        res = run_suite(cfg, "jet_group_axioms")
        assert res.status == "pass" and list(res.details) == [spec.label()], res.details
        worst = max(worst, res.max_error)
    dt = time.perf_counter() - start
    ok = worst <= 1e-12 and dt < 10
    report(
        "1 jet-group axioms (u1/su2/su3/su(4), 1000 triples each, both orders)",
        ok,
        f"max_error={worst:.3e} tol=1e-12 runtime={dt:.2f}s",
    )


def test_criterion_02_jet_functoriality_convergence():
    cfg = SuiteConfig(
        seed=SEED,
        group=group_spec("su2"),
        patch=Patch((64, 64), spacing=0.04),
        h_levels=(0.04, 0.02, 0.01),
    )
    res, dt = timed(convergence_study, cfg, "jet_functoriality")
    ratios_ok = res.mode == "ratio" and all(3.5 <= r <= 4.5 for r in res.convergence_ratios)
    ok = res.status == "pass" and ratios_ok and dt < 30
    report(
        "2 jet functoriality, FD second-order convergence",
        ok,
        f"ratios={[f'{r:.3f}' for r in res.convergence_ratios]} runtime={dt:.2f}s",
    )


def test_criterion_03_curvature_equivariance():
    worst = 0.0
    start = time.perf_counter()
    for fam in ("su2", "su3"):
        for n in (2, 4):
            cfg = SuiteConfig(seed=SEED, group=group_spec(fam), patch=default_patch(n))
            res = run_suite(cfg, "curvature_equivariance")
            assert res.status == "pass", (fam, n, res.max_error)
            worst = max(worst, res.max_error)
    dt = time.perf_counter() - start
    ok = worst <= 1e-10 and dt < 20
    report(
        "3 curvature equivariance (su2/su3, n in {2,4}, 1000 samples each)",
        ok,
        f"max_error={worst:.3e} tol=1e-10 runtime={dt:.2f}s",
    )


def test_criterion_04_fiber_transitivity():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=Patch((64, 64), spacing=0.05))
    start = time.perf_counter()
    res1 = run_suite(cfg, "gauge_to_zero_1")
    res2 = run_suite(cfg, "gauge_to_zero_2")
    dt = time.perf_counter() - start
    ok = (
        res1.status == "pass"
        and res2.status == "pass"
        and res1.max_error <= 1e-12
        and res2.max_error <= 1e-12
        and res2.details["antisym_vs_curvature"] <= 1e-12
        and dt < 10
    )
    report(
        "4 fiber transitivity on a 64x64 su2 patch (both orders)",
        ok,
        f"residual1={res1.max_error:.3e} residual2={res2.details['residual']:.3e} "
        f"antisym_vs_curvature={res2.details['antisym_vs_curvature']:.3e} runtime={dt:.2f}s",
    )


def test_criterion_05_matter_action_invariance():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=default_patch(2))
    res, dt = timed(run_suite, cfg, "theorem_ginv1")
    d = res.details
    ok = (
        res.status == "pass"
        and d["pointwise"] <= 1e-12
        and d["action_err"] <= d["points"] * 1e-12
        and d["broken_violation"] > 1e-3
        and dt < 30
    )
    report(
        "5 matter action invariance, free+phi4 coupled, broken control",
        ok,
        f"pointwise={d['pointwise']:.3e} action_err={d['action_err']:.3e} "
        f"broken_violation={d['broken_violation']:.3e} runtime={dt:.2f}s",
    )


def test_criterion_06_gauge_action_invariance():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=default_patch(2))
    res, dt = timed(run_suite, cfg, "theorem_ginv2")
    d = res.details
    ok = (
        res.status == "pass"
        and d["action_err"] <= d["points"] * 1e-12
        and d["broken_violation"] > 1e-6
        and dt < 30
    )
    report(
        "6 gauge-field action invariance under second-order jets, broken control",
        ok,
        f"action_err={d['action_err']:.3e} points={d['points']} "
        f"broken_violation={d['broken_violation']:.3e} runtime={dt:.2f}s",
    )


def test_criterion_07_utiyama_level_sets():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=default_patch(2))
    start = time.perf_counter()
    res_pos = run_suite(cfg, "utiyama_level_sets")
    res_neg = run_suite(cfg, "utiyama_negative")
    dt = time.perf_counter() - start
    ok = (
        res_pos.status == "pass"
        and res_pos.max_error <= 1e-12
        and res_neg.status == "pass"
        and res_neg.details["min_violation"] > 1e-6
        and dt < 10
    )
    report(
        "7 curvature factorization constant on 100 equal-curvature pairs, broken control",
        ok,
        f"level_set_gap={res_pos.max_error:.3e} min_violation={res_neg.details['min_violation']:.3e} "
        f"runtime={dt:.2f}s",
    )


def test_criterion_08_minimal_coupling_equivariance():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=default_patch(2))
    res, dt = timed(run_suite, cfg, "minimal_coupling_invariance")
    ok = (
        res.status == "pass"
        and res.details["equivariance"] <= 1e-12
        and res.max_error <= 1e-12
        and dt < 5
    )
    report(
        "8 covariant-derivative equivariance on 1000 random samples",
        ok,
        f"equivariance={res.details['equivariance']:.3e} tol=1e-12 runtime={dt:.2f}s",
    )


def test_criterion_09_mechanics_reduction():
    cfg = SuiteConfig(seed=SEED, group=group_spec("su2"), patch=default_patch(1))
    start = time.perf_counter()
    rng = seeded_rng(SEED, "acceptance-mechanics")
    jc = JetConnection(
        group_spec("su2"),
        random_algebra_entries(rng, group_spec("su2"), (16, 1)),
        random_algebra_entries(rng, group_spec("su2"), (16, 1, 1)),
    )
    empty = curvature(jc).comps.size == 0
    res = run_suite(cfg, "mechanics_reduction")
    dt = time.perf_counter() - start
    d = res.details
    ok = (
        empty
        and res.status == "pass"
        and d["noncovariant_violation"] > 1e-3
        and d["covariant_err"] <= 1e-10
        and dt < 5
    )
    report(
        "9 mechanics reduction: empty curvature, covariantized action invariant",
        ok,
        f"curvature_components=0 noncovariant_violation={d['noncovariant_violation']:.3e} "
        f"covariant_err={d['covariant_err']:.3e} runtime={dt:.2f}s",
    )


def test_criterion_10_maurer_cartan_convergence():
    cfg = SuiteConfig(
        seed=SEED,
        group=group_spec("su2"),
        patch=Patch((64, 64), spacing=0.04),
        h_levels=(0.04, 0.02, 0.01),
    )
    res, dt = timed(convergence_study, cfg, "maurer_cartan")
    ratios_ok = res.mode == "ratio" and all(3.5 <= r <= 4.5 for r in res.convergence_ratios)
    ok = res.status == "pass" and ratios_ok and dt < 20
    report(
        "10 Maurer-Cartan flatness of sampled jets at second order",
        ok,
        f"ratios={[f'{r:.3f}' for r in res.convergence_ratios]} runtime={dt:.2f}s",
    )
