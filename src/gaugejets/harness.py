"""Configuration-driven verification suites with machine-readable reports.

Every suite checks one invariance/transitivity claim of the jet-gauge
machinery and reports a single max_error against a pinned tolerance.
Negative-control suites (broken densities) must *violate* invariance by a
stated margin; they report ``max(0, margin - observed_violation)`` against
tolerance 0, so the uniform rule "pass iff max_error <= tolerance" holds
for every suite.  Positive suites whose negative sub-check fails report
``inf``.

Determinism: all randomness derives from the config seed through named
sub-streams, quadrature uses an exact compensated sum, and suites are
independent, so reports are byte-identical across runs (modulo the
runtime_ms fields).
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import analytic
from .actions import (
    act_connection,
    act_curvature,
    act_jet_connection,
    act_jet_matter,
    act_matter,
    act_variation,
    curvature_equivariance_defect,
    gauge_to_zero_jet1,
    gauge_to_zero_jet2,
)
from .jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    Variation,
    curvature,
    curvature_pairs,
    jet1_distance,
    jet1_inv,
    jet1_mul,
    jet1_of,
    jet1_unit,
    jet2_distance,
    jet2_inv,
    jet2_mul,
    jet2_of,
    jet2_unit,
    jet_connection_of,
    jet_matter_of,
    maurer_cartan_defect,
    split_jet_connection,
)
from .lagrangians import (
    GaugeKind,
    GaugeLagrangianSpec,
    MatterKind,
    MatterLagrangianSpec,
    _curvature_quadratic,
    _metric_signs,
    covariant_derivative,
    free_velocity_density,
    gauge_density,
    matter_density_vec,
    mechanics_action,
    minimal_coupling,
    utiyama_factor,
)
from .lie_core import (
    AlgebraElement,
    GroupFamily,
    GroupSpec,
    RepTangent,
    RepVector,
    exp,
    frobenius,
    group_spec,
    multiply,
    random_algebra_entries,
    rep_act,
    rep_matrix,
    seeded_rng,
)
from .patch import Field, Patch, default_patch, integrate

AXIOM_BATCH = 1000
EQUIVARIANCE_BATCH = 1000
COUPLING_BATCH = 1000
GINV_TRANSFORMS = 20
UTIYAMA_PAIRS = 100
MATTER_VIOLATION = 1e-3
GAUGE_VIOLATION = 1e-6
EXACT_THRESHOLD = 1e-13
RATIO_WINDOW = (3.5, 4.5)


class ConfigError(ValueError):
    """Malformed harness configuration."""


class UnknownSuiteError(ConfigError):
    """Requested suite name is not registered."""


@dataclass(frozen=True)
class SuiteConfig:
    group: GroupSpec = dc_field(default_factory=lambda: group_spec("su2"))
    patch: Patch = dc_field(default_factory=lambda: default_patch(2))
    seed: int = 20250810
    suites: tuple[str, ...] = ()
    h_levels: tuple[float, ...] = (0.04, 0.02, 0.01)
    tolerances: dict = dc_field(default_factory=dict)
    output: str | None = None
    metric: str = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "suites", tuple(self.suites))
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}") from None
        try:
            _metric_signs(1, self.metric)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        levels = tuple(float(h) for h in self.h_levels)
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("h_levels must be strictly decreasing")
        object.__setattr__(self, "h_levels", levels)
        for name, tol in self.tolerances.items():
            if name not in SUITES:
                raise UnknownSuiteError(f"tolerance given for unknown suite {name!r}")
            if tol <= 0:
                raise ConfigError(f"tolerance for {name} must be positive")
        for name in self.suites:
            if name not in SUITES:
                raise UnknownSuiteError(f"unknown suite {name!r}")

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        try:
            kwargs = {}
            if "group" in data:
                g = data["group"]
                kwargs["group"] = GroupSpec(
                    GroupFamily(g.get("family", "su2")), g.get("n", 0), g.get("rep_dim", 0)
                )
            if "patch" in data:
                p = data["patch"]
                kwargs["patch"] = Patch(
                    tuple(p["extent"]), p.get("spacing", 0.05), p.get("origin", 0.0)
                )
            for key in ("seed", "suites", "h_levels", "tolerances", "output", "metric"):
                if key in data:
                    kwargs[key] = data[key]
            return SuiteConfig(**kwargs)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "group": {
                "family": self.group.family.value,
                "n": self.group.n,
                "rep_dim": self.group.rep_dim,
            },
            "patch": {
                "extent": list(self.patch.extent),
                "spacing": list(self.patch.spacing),
                "origin": list(self.patch.origin),
            },
            "seed": self.seed,
            "suites": list(self.suites),
            "h_levels": list(self.h_levels),
            "tolerances": dict(sorted(self.tolerances.items())),
            "output": self.output,
            "metric": self.metric,
        }

    def config_hash(self) -> str:
        """Hash of the numerically relevant config fields.

        The output path cannot affect any computed number, so it is
        excluded: reports from the same numerical setup share provenance
        wherever they are written.
        """
        data = self.to_dict()
        data.pop("output")
        canon = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:16]


@dataclass
class SuiteResult:
    name: str
    status: str
    max_error: float
    tolerance: float
    convergence_ratios: list[float]
    runtime_ms: float
    claim: str
    mode: str = "check"  # check | ratio | exact
    details: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "convergence_ratios": self.convergence_ratios,
            "runtime_ms": self.runtime_ms,
            "claim": self.claim,
            "mode": self.mode,
            "details": self.details,
        }


@dataclass
class Report:
    seed: int
    config_hash: str
    suites: list[SuiteResult]
    overall: str

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "overall": self.overall,
            "suites": [s.to_dict() for s in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @property
    def passed(self) -> bool:
        return self.overall == "pass"


# ---------------------------------------------------------------------------
# random fiber batches

def _random_group_batch(rng, spec: GroupSpec, shape) -> np.ndarray:
    return exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape))).entries


def _random_jet1(rng, spec: GroupSpec, n: int, batch: int) -> Jet1Gauge:
    g = _random_group_batch(rng, spec, (batch,))
    a = random_algebra_entries(rng, spec, (batch, n))
    return Jet1Gauge(spec, g, a)


def _random_jet2(rng, spec: GroupSpec, n: int, batch: int) -> Jet2Gauge:
    g = _random_group_batch(rng, spec, (batch,))
    a = random_algebra_entries(rng, spec, (batch, n))
    s = random_algebra_entries(rng, spec, (batch, n, n))
    s = 0.5 * (s + np.swapaxes(s, -4, -3))
    return Jet2Gauge(spec, g, a, s)


def _random_jet_connection(rng, spec: GroupSpec, n: int, batch: int) -> JetConnection:
    A = random_algebra_entries(rng, spec, (batch, n))
    dA = random_algebra_entries(rng, spec, (batch, n, n))
    return JetConnection(spec, A, dA)


def _random_jet_matter(rng, spec: GroupSpec, n: int, batch: int) -> JetMatter:
    k = spec.rep_dim
    phi = rng.uniform(-1, 1, (batch, k)) + 1j * rng.uniform(-1, 1, (batch, k))
    dphi = rng.uniform(-1, 1, (batch, n, k)) + 1j * rng.uniform(-1, 1, (batch, n, k))
    return JetMatter(spec, phi, dphi)


def _max(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(arr)) if arr.size else 0.0


def _interior_max(err_grid: np.ndarray, patch: Patch, margin: int) -> float:
    region = patch.interior(max(1, margin))
    return _max(err_grid[region.slices()])


# ---------------------------------------------------------------------------
# suite implementations (each returns (max_error, details))

def _suite_jet_group_axioms(cfg: SuiteConfig, patch: Patch):
    n = patch.dim
    worst = 0.0
    details = {}
    for fam in ("u1", "su2", "su3"):
        spec = group_spec(fam)
        rng = seeded_rng(cfg.seed, "jet_group_axioms", fam)
        j, k, l = (_random_jet1(rng, spec, n, AXIOM_BATCH) for _ in range(3))
        unit = jet1_unit(spec, n, (AXIOM_BATCH,))
        err1 = max(
            _max(jet1_distance(jet1_mul(jet1_mul(j, k), l), jet1_mul(j, jet1_mul(k, l)))),
            _max(jet1_distance(jet1_mul(unit, j), j)),
            _max(jet1_distance(jet1_mul(j, unit), j)),
            _max(jet1_distance(jet1_mul(j, jet1_inv(j)), unit)),
            _max(jet1_distance(jet1_mul(jet1_inv(j), j), unit)),
        )
        j2, k2, l2 = (_random_jet2(rng, spec, n, AXIOM_BATCH) for _ in range(3))
        unit2 = jet2_unit(spec, n, (AXIOM_BATCH,))
        err2 = max(
            _max(jet2_distance(jet2_mul(jet2_mul(j2, k2), l2), jet2_mul(j2, jet2_mul(k2, l2)))),
            _max(jet2_distance(jet2_mul(unit2, j2), j2)),
            _max(jet2_distance(jet2_mul(j2, unit2), j2)),
            _max(jet2_distance(jet2_mul(j2, jet2_inv(j2)), unit2)),
            _max(jet2_distance(jet2_mul(jet2_inv(j2), j2), unit2)),
        )
        details[fam] = {"order1": err1, "order2": err2}
        worst = max(worst, err1, err2)
    return worst, details


def _functoriality_errors(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "jet_functoriality", spec.label())
    fam1 = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=0.6, wave_scale=0.6)
    fam2 = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=0.6, wave_scale=0.6)
    s1 = analytic.sample_gauge(patch, spec, fam1)
    s2 = analytic.sample_gauge(patch, spec, fam2)
    prod = Field(patch, multiply(s1.values.value, s2.values.value))
    lhs1 = jet1_of(prod)
    rhs1 = jet1_mul(jet1_of(s1.values).value, jet1_of(s2.values).value)
    err1 = _interior_max(jet1_distance(lhs1.value, rhs1), patch, 1)
    lhs2 = jet2_of(prod)
    rhs2 = jet2_mul(jet2_of(s1.values).value, jet2_of(s2.values).value)
    err2 = _interior_max(jet2_distance(lhs2.value, rhs2), patch, 2)
    return err1, err2


def _suite_jet_functoriality(cfg: SuiteConfig, patch: Patch):
    err1, err2 = _functoriality_errors(cfg, patch)
    return max(err1, err2), {"order1": err1, "order2": err2}


def _suite_action_axioms(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    rng = seeded_rng(cfg.seed, "action_axioms", spec.label())
    b = AXIOM_BATCH
    j1, k1 = _random_jet1(rng, spec, n, b), _random_jet1(rng, spec, n, b)
    j2, k2 = _random_jet2(rng, spec, n, b), _random_jet2(rng, spec, n, b)
    g = j1.group_element()
    h = k1.group_element()
    gh = multiply(g, h)
    unit1 = jet1_unit(spec, n, (b,))
    unit2 = jet2_unit(spec, n, (b,))
    jm = _random_jet_matter(rng, spec, n, b)
    jc = _random_jet_connection(rng, spec, n, b)
    phi = RepVector(spec, jm.phi)
    var = Variation(spec, jm.dphi[:, 0, :])
    A = jc.potential()
    f = curvature(jc)
    eye = unit1.group_element()

    errs = {}
    errs["matter_unit"] = _max(np.abs(act_matter(eye, phi).entries - phi.entries))
    errs["matter_compose"] = _max(
        np.abs(act_matter(g, act_matter(h, phi)).entries - act_matter(gh, phi).entries)
    )
    errs["variation_unit"] = _max(np.abs(act_variation(eye, var).dphi - var.dphi))
    errs["variation_compose"] = _max(
        np.abs(act_variation(g, act_variation(h, var)).dphi - act_variation(gh, var).dphi)
    )
    lhs = act_jet_matter(jet1_mul(j1, k1), jm)
    rhs = act_jet_matter(j1, act_jet_matter(k1, jm))
    errs["jet_matter_unit"] = _max(np.abs(act_jet_matter(unit1, jm).dphi - jm.dphi))
    errs["jet_matter_compose"] = max(
        _max(np.abs(lhs.phi - rhs.phi)), _max(np.abs(lhs.dphi - rhs.dphi))
    )
    errs["connection_unit"] = _max(frobenius(act_connection(unit1, A).entries - A.entries))
    errs["connection_compose"] = _max(
        frobenius(
            act_connection(jet1_mul(j1, k1), A).entries
            - act_connection(j1, act_connection(k1, A)).entries
        )
    )
    lhs_jc = act_jet_connection(jet2_mul(j2, k2), jc)
    rhs_jc = act_jet_connection(j2, act_jet_connection(k2, jc))
    errs["jet_connection_unit"] = max(
        _max(frobenius(act_jet_connection(unit2, jc).A - jc.A)),
        _max(frobenius(act_jet_connection(unit2, jc).dA - jc.dA)),
    )
    errs["jet_connection_compose"] = max(
        _max(frobenius(lhs_jc.A - rhs_jc.A)), _max(frobenius(lhs_jc.dA - rhs_jc.dA))
    )
    if f.comps.size:
        errs["curvature_unit"] = _max(frobenius(act_curvature(eye, f).comps - f.comps))
        errs["curvature_compose"] = _max(
            frobenius(
                act_curvature(gh, f).comps - act_curvature(g, act_curvature(h, f)).comps
            )
        )
    return max(errs.values()), errs


def _suite_chain_rule_matter(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "chain_rule_matter", spec.label())
    gfam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=0.5, wave_scale=0.5)
    mfam = analytic.random_matter_family(rng, spec, patch.dim, scale=0.8, wave_scale=0.6)
    gs = analytic.sample_gauge(patch, spec, gfam)
    ms = analytic.sample_matter(patch, spec, mfam)
    r = rep_matrix(gs.values.value)
    moved = Field(
        patch, RepVector(spec, np.einsum("...ij,...j->...i", r, ms.values.value.entries))
    )
    lhs = jet_matter_of(moved)
    rhs = act_jet_matter(jet1_of(gs.values).value, jet_matter_of(ms.values).value)
    err_grid = np.max(np.abs(lhs.value.dphi - rhs.dphi), axis=(-2, -1))
    return _interior_max(err_grid, patch, 1), {}


def _suite_chain_rule_connection(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "chain_rule_connection", spec.label())
    gfam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=0.4, wave_scale=0.4)
    cfam = analytic.random_connection_family(rng, spec, patch.dim, scale=0.5, wave_scale=0.5)
    gs = analytic.sample_gauge(patch, spec, gfam)
    cs = analytic.sample_connection(patch, spec, cfam)
    moved = act_connection(gs.jet1.value, cs.values.value)
    lhs = jet_connection_of(Field(patch, moved))
    rhs = act_jet_connection(jet2_of(gs.values).value, jet_connection_of(cs.values).value)
    err_grid = np.maximum(
        np.max(frobenius(lhs.value.A - rhs.A), axis=-1),
        np.max(frobenius(lhs.value.dA - rhs.dA), axis=(-2, -1)),
    )
    return _interior_max(err_grid, patch, 2), {}


def _suite_curvature_equivariance(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    rng = seeded_rng(cfg.seed, "curvature_equivariance", spec.label(), n)
    jets = _random_jet2(rng, spec, n, EQUIVARIANCE_BATCH)
    jcs = _random_jet_connection(rng, spec, n, EQUIVARIANCE_BATCH)
    defect = curvature_equivariance_defect(jets, jcs)
    return _max(defect), {"samples": EQUIVARIANCE_BATCH}


def _suite_gauge_to_zero_1(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "gauge_to_zero_1", spec.label())
    cs = analytic.sample_connection(
        patch, spec, analytic.random_connection_family(rng, spec, patch.dim)
    )
    witness = gauge_to_zero_jet1(cs.values.value)
    err = _max(witness.residual)
    back = act_connection(jet1_inv(witness.jet), act_connection(witness.jet, cs.values.value))
    round_trip = _max(frobenius(back.entries - cs.values.value.entries))
    return max(err, round_trip), {"round_trip": round_trip, "points": patch.npoints}


def _suite_gauge_to_zero_2(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "gauge_to_zero_2", spec.label())
    cs = analytic.sample_connection(
        patch, spec, analytic.random_connection_family(rng, spec, patch.dim)
    )
    jc: JetConnection = cs.jet.value
    witness = gauge_to_zero_jet2(jc)
    err = _max(witness.residual)
    transformed = witness.transformed
    f = curvature(jc)
    pairs = curvature_pairs(patch.dim)
    curv_err = 0.0
    for idx, (mu, nu) in enumerate(pairs):
        anti = transformed.dA[..., mu, nu, :, :] - transformed.dA[..., nu, mu, :, :]
        curv_err = max(curv_err, _max(frobenius(anti - f.comps[..., idx, :, :])))
    return max(err, curv_err), {"residual": err, "antisym_vs_curvature": curv_err}


def _suite_minimal_coupling_invariance(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    rng = seeded_rng(cfg.seed, "minimal_coupling", spec.label())
    b = COUPLING_BATCH
    jets = _random_jet1(rng, spec, n, b)
    jm = _random_jet_matter(rng, spec, n, b)
    A = AlgebraElement(spec, random_algebra_entries(rng, spec, (b, n)))
    g = jets.group_element()

    phi, dphi = covariant_derivative(A, jm)
    moved_A = act_connection(jets, A)
    moved_jm = act_jet_matter(jets, jm)
    phi2, dphi2 = covariant_derivative(moved_A, moved_jm)
    r = rep_matrix(g)
    expect_phi = np.einsum("...ij,...j->...i", r, phi.entries)
    expect_dphi = np.einsum("...ij,...mj->...mi", r, dphi.entries)
    equiv = max(
        _max(np.abs(phi2.entries - expect_phi)), _max(np.abs(dphi2.entries - expect_dphi))
    )
    errs = {"equivariance": equiv}
    for kind, mspec in (
        ("free", MatterLagrangianSpec(MatterKind.FREE)),
        ("phi4", MatterLagrangianSpec(MatterKind.PHI4, lam=0.5, v=1.0)),
    ):
        density = minimal_coupling(mspec, metric=cfg.metric)
        errs[kind] = _max(np.abs(density(moved_A, moved_jm) - density(A, jm)))
    return max(errs.values()), errs


def _suite_minimal_coupling_negative(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    rng = seeded_rng(cfg.seed, "minimal_coupling", spec.label())  # same data as positive
    b = COUPLING_BATCH
    jets = _random_jet1(rng, spec, n, b)
    jm = _random_jet_matter(rng, spec, n, b)
    A = AlgebraElement(spec, random_algebra_entries(rng, spec, (b, n)))
    density = minimal_coupling(
        MatterLagrangianSpec(MatterKind.BROKEN, c=1.0), metric=cfg.metric, allow_noninvariant=True
    )
    moved = density(act_connection(jets, A), act_jet_matter(jets, jm))
    violation = _max(np.abs(moved - density(A, jm)))
    shortfall = max(0.0, MATTER_VIOLATION - violation)
    return shortfall, {"violation": violation, "required": MATTER_VIOLATION}


def _utiyama_pairs(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    rng = seeded_rng(cfg.seed, "utiyama", spec.label())
    jc = _random_jet_connection(rng, spec, n, UTIYAMA_PAIRS)
    shift = random_algebra_entries(rng, spec, (UTIYAMA_PAIRS, n, n))
    shift = 0.5 * (shift + np.swapaxes(shift, -4, -3))
    jc_shifted = JetConnection(spec, jc.A, jc.dA + shift)
    return jc, jc_shifted


def _suite_utiyama_level_sets(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    n = patch.dim
    jc, jc_shifted = _utiyama_pairs(cfg, patch)
    factored = utiyama_factor(
        lambda f: _curvature_quadratic(f, n, cfg.metric), spec, n, seed=cfg.seed
    )
    gap = _max(np.abs(factored(jc) - factored(jc_shifted)))
    same_f = _max(
        frobenius(curvature(jc).comps - curvature(jc_shifted).comps)
        if curvature_pairs(n)
        else np.zeros(1)
    )
    return max(gap, same_f), {"level_set_gap": gap, "curvature_match": same_f}


def _suite_utiyama_negative(cfg: SuiteConfig, patch: Patch):
    jc, jc_shifted = _utiyama_pairs(cfg, patch)
    spec = GaugeLagrangianSpec(GaugeKind.BROKEN_GAUGE)
    violation = float(
        np.min(np.abs(gauge_density(spec, jc, cfg.metric) - gauge_density(spec, jc_shifted, cfg.metric)))
    )
    shortfall = max(0.0, GAUGE_VIOLATION - violation)
    return shortfall, {"min_violation": violation, "required": GAUGE_VIOLATION}


def _suite_theorem_ginv1(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "theorem_ginv1", spec.label())
    cs = analytic.sample_connection(
        patch, spec, analytic.random_connection_family(rng, spec, patch.dim)
    )
    ms = analytic.sample_matter(patch, spec, analytic.random_matter_family(rng, spec, patch.dim))
    region = patch.interior(1)
    npts = region.npoints
    A = cs.values.value
    jm = ms.jet.value
    densities = {
        "free": minimal_coupling(MatterLagrangianSpec(MatterKind.FREE), metric=cfg.metric),
        "phi4": minimal_coupling(
            MatterLagrangianSpec(MatterKind.PHI4, lam=0.5, v=1.0), metric=cfg.metric
        ),
    }
    broken = minimal_coupling(
        MatterLagrangianSpec(MatterKind.BROKEN, c=1.0), metric=cfg.metric, allow_noninvariant=True
    )
    base_actions = {
        k: integrate(Field(patch, d(A, jm)), region) for k, d in densities.items()
    }
    base_broken = integrate(Field(patch, broken(A, jm)), region)
    pointwise = 0.0
    action_err = 0.0
    broken_violation = 0.0
    for t in range(GINV_TRANSFORMS):
        fam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2)
        gs = analytic.sample_gauge(patch, spec, fam)
        jet = gs.jet1.value
        A2 = act_connection(jet, A)
        jm2 = act_jet_matter(jet, jm)
        for k, d in densities.items():
            vals = d(A2, jm2) - densities[k](A, jm)
            pointwise = max(pointwise, _interior_max(np.abs(vals), patch, 1))
            s2 = integrate(Field(patch, d(A2, jm2)), region)
            action_err = max(action_err, abs(s2 - base_actions[k]))
        sb = integrate(Field(patch, broken(A2, jm2)), region)
        broken_violation = max(broken_violation, abs(sb - base_broken))
    err = max(pointwise, action_err / npts)
    if broken_violation <= MATTER_VIOLATION:
        err = float("inf")
    return err, {
        "pointwise": pointwise,
        "action_err": action_err,
        "points": npts,
        "broken_violation": broken_violation,
        "transforms": GINV_TRANSFORMS,
    }


def _suite_theorem_ginv2(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "theorem_ginv2", spec.label())
    cs = analytic.sample_connection(
        patch, spec, analytic.random_connection_family(rng, spec, patch.dim)
    )
    jc: JetConnection = cs.jet.value
    region = patch.interior(1)
    npts = region.npoints
    ym = GaugeLagrangianSpec(GaugeKind.YANG_MILLS, coupling=1.0)
    broken = GaugeLagrangianSpec(GaugeKind.BROKEN_GAUGE, coupling=1.0)
    s_base = integrate(Field(patch, gauge_density(ym, jc, cfg.metric)), region)
    s_broken = integrate(Field(patch, gauge_density(broken, jc, cfg.metric)), region)
    pointwise = 0.0
    action_err = 0.0
    broken_violation = 0.0
    for t in range(GINV_TRANSFORMS):
        fam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2)
        gs = analytic.sample_gauge(patch, spec, fam)
        jc2 = act_jet_connection(gs.jet2.value, jc)
        vals = gauge_density(ym, jc2, cfg.metric)
        pointwise = max(
            pointwise, _interior_max(np.abs(vals - gauge_density(ym, jc, cfg.metric)), patch, 1)
        )
        action_err = max(action_err, abs(integrate(Field(patch, vals), region) - s_base))
        sb = integrate(Field(patch, gauge_density(broken, jc2, cfg.metric)), region)
        broken_violation = max(broken_violation, abs(sb - s_broken))
    # the invariance bound is on the action integral; the pointwise defect
    # (pure roundoff, scaling with the density magnitude) is informational
    err = action_err / npts
    if broken_violation <= GAUGE_VIOLATION:
        err = float("inf")
    return err, {
        "pointwise": pointwise,
        "action_err": action_err,
        "points": npts,
        "broken_violation": broken_violation,
    }


def _suite_mechanics_reduction(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    line = patch if patch.dim == 1 else default_patch(1)
    rng = seeded_rng(cfg.seed, "mechanics", spec.label())
    jc = _random_jet_connection(rng, spec, 1, 8)
    if curvature(jc).comps.size != 0:
        return float("inf"), {"curvature_components": int(curvature(jc).comps.size)}
    ms = analytic.sample_matter(line, spec, analytic.random_matter_family(rng, spec, 1))
    gs = analytic.sample_gauge(
        line, spec, analytic.random_gauge_family(rng, spec, 1, factors=2)
    )
    cs = analytic.sample_connection(
        line, spec, analytic.random_connection_family(rng, spec, 1)
    )
    interval = line.interior(1)
    jm = ms.jet.value
    jet = gs.jet1.value
    jm_moved = act_jet_matter(jet, jm)

    s_plain = mechanics_action(free_velocity_density, ms.jet, interval)
    s_plain_moved = mechanics_action(free_velocity_density, ms.jet.with_value(jm_moved), interval)
    violation = abs(s_plain_moved - s_plain)

    coupled = minimal_coupling(MatterLagrangianSpec(MatterKind.FREE), metric=cfg.metric)
    A = cs.values.value
    A_moved = act_connection(jet, A)
    s_cov = integrate(Field(line, coupled(A, jm)), interval)
    s_cov_moved = integrate(Field(line, coupled(A_moved, jm_moved)), interval)
    cov_err = abs(s_cov_moved - s_cov)
    err = cov_err if violation > MATTER_VIOLATION else float("inf")
    return err, {
        "noncovariant_violation": violation,
        "covariant_err": cov_err,
        "curvature_components": 0,
    }


def _suite_maurer_cartan(cfg: SuiteConfig, patch: Patch):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "maurer_cartan", spec.label())
    fam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=0.6, wave_scale=0.6)
    gs = analytic.sample_gauge(patch, spec, fam)
    defect = maurer_cartan_defect(jet1_of(gs.values))
    return _interior_max(defect.value, patch, 2), {}


@dataclass(frozen=True)
class SuiteDef:
    fn: Callable
    claim: str
    tol: Callable[[float], float]  # default tolerance given the grid spacing h
    fd: bool = False  # error scales as O(h^2)


def _const(x: float) -> Callable[[float], float]:
    return lambda h: x


SUITES: dict[str, SuiteDef] = {
    "jet_group_axioms": SuiteDef(
        _suite_jet_group_axioms,
        "first- and second-order gauge jets form groups: associativity, unit, inverses",
        _const(1e-12),
    ),
    "jet_functoriality": SuiteDef(
        _suite_jet_functoriality,
        "the jet of a pointwise product of group-valued fields is the product of their jets",
        lambda h: 50 * h * h,
        fd=True,
    ),
    "action_axioms": SuiteDef(
        _suite_action_axioms,
        "unit jets act trivially and jet products act by composition on every carrier",
        _const(1e-12),
    ),
    "chain_rule_matter": SuiteDef(
        _suite_chain_rule_matter,
        "the jet-level matter action matches derivatives of the pointwise-transformed field",
        lambda h: 10 * h * h,
        fd=True,
    ),
    "chain_rule_connection": SuiteDef(
        _suite_chain_rule_connection,
        "the jet-level potential action matches derivatives of the transformed potential",
        lambda h: 50 * h * h,
        fd=True,
    ),
    "curvature_equivariance": SuiteDef(
        _suite_curvature_equivariance,
        "the curvature of a transformed connection jet is the conjugated curvature",
        _const(1e-10),
    ),
    "gauge_to_zero_1": SuiteDef(
        _suite_gauge_to_zero_1,
        "a first-order jet gauges any potential value to zero at every fiber",
        _const(1e-12),
    ),
    "gauge_to_zero_2": SuiteDef(
        _suite_gauge_to_zero_2,
        "a second-order jet kills the potential and symmetric derivative, leaving half the "
        "field strength in the antisymmetric slot",
        _const(1e-12),
    ),
    "minimal_coupling_invariance": SuiteDef(
        _suite_minimal_coupling_invariance,
        "covariant derivatives are equivariant, so minimally coupled densities are pointwise "
        "gauge invariant",
        _const(1e-12),
    ),
    "minimal_coupling_negative": SuiteDef(
        _suite_minimal_coupling_negative,
        "a non-invariant matter term breaks gauge invariance of the coupled density "
        "(negative control)",
        _const(1e-15),
    ),
    "utiyama_level_sets": SuiteDef(
        _suite_utiyama_level_sets,
        "densities factored through the curvature map are constant on equal-curvature jets",
        _const(1e-12),
    ),
    "utiyama_negative": SuiteDef(
        _suite_utiyama_negative,
        "a density reading the symmetric derivative separates equal-curvature jets "
        "(negative control)",
        _const(1e-15),
    ),
    "theorem_ginv1": SuiteDef(
        _suite_theorem_ginv1,
        "matter action integrals over compact regions are invariant under sampled gauge "
        "transformations exactly when the density is jet-invariant",
        _const(1e-12),
    ),
    "theorem_ginv2": SuiteDef(
        _suite_theorem_ginv2,
        "gauge-field action integrals are invariant under second-order jet transformations "
        "exactly when the density is jet-invariant",
        _const(1e-12),
    ),
    "mechanics_reduction": SuiteDef(
        _suite_mechanics_reduction,
        "on a one-dimensional base the field strength is empty and only the covariantized "
        "action survives time-dependent transformations",
        _const(1e-10),
    ),
    "maurer_cartan": SuiteDef(
        _suite_maurer_cartan,
        "right-trivialized derivatives of sampled group fields satisfy the flatness identity",
        lambda h: 50 * h * h,
        fd=True,
    ),
}


def _tolerance(cfg: SuiteConfig, name: str, patch: Patch) -> float:
    if name in cfg.tolerances:
        return float(cfg.tolerances[name])
    return SUITES[name].tol(max(patch.spacing))


def run_suite(cfg: SuiteConfig, name: str) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}")
    suite = SUITES[name]
    patch = cfg.patch
    tol = _tolerance(cfg, name, patch)
    start = time.perf_counter()
    err, details = suite.fn(cfg, patch)
    runtime = (time.perf_counter() - start) * 1000.0
    status = "pass" if err <= tol else "fail"
    return SuiteResult(
        name=name,
        status=status,
        max_error=float(err),
        tolerance=tol,
        convergence_ratios=[],
        runtime_ms=runtime,
        claim=suite.claim,
        details=details,
    )


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suites deterministically and build a report."""
    results = [run_suite(cfg, n) for n in cfg.suites]
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    report = Report(seed=cfg.seed, config_hash=cfg.config_hash(), suites=results, overall=overall)
    if cfg.output:
        report.write(cfg.output)
    return report


def ratio_study(errors: list[float]) -> tuple[str, list[float], bool]:
    """Classify a sequence of errors at halved spacings.

    Returns (mode, ratios, ok): 'exact' when every error sits at machine
    epsilon (no ratio check applies), else 'ratio' with error ratios per
    level pair, each required to be inside the second-order window.
    """
    if all(e <= EXACT_THRESHOLD for e in errors):
        return "exact", [], True
    ratios = []
    ok = True
    for a, b in zip(errors, errors[1:]):
        ratio = a / b if b > 0 else float("inf")
        ratios.append(ratio)
        ok = ok and RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1]
    return "ratio", ratios, ok


def convergence_study(cfg: SuiteConfig, name: str) -> SuiteResult:
    """Run one suite across cfg.h_levels on the same physical domain.

    The configured patch defines the domain at its own spacing; each level
    resamples it at spacing h.  Pass requires every error ratio per halving
    inside [3.5, 4.5], unless the suite is exact at machine epsilon.
    """
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}")
    if len(cfg.h_levels) < 2:
        raise ConfigError("convergence studies need at least two h levels")
    suite = SUITES[name]
    start = time.perf_counter()
    errors = []
    for h in cfg.h_levels:
        patch = cfg.patch.refined(h)
        err, _ = suite.fn(replace(cfg, patch=patch), patch)
        errors.append(float(err))
    runtime = (time.perf_counter() - start) * 1000.0
    mode, ratios, ok = ratio_study(errors)
    tol = _tolerance(cfg, name, cfg.patch.refined(cfg.h_levels[0]))
    status = "pass" if (ok and (mode == "exact" or errors[0] <= tol)) else "fail"
    return SuiteResult(
        name=name,
        status=status,
        max_error=max(errors),
        tolerance=tol,
        convergence_ratios=ratios,
        runtime_ms=runtime,
        claim=suite.claim,
        mode=mode,
        details={"errors": errors, "h_levels": list(cfg.h_levels)},
    )


__all__ = [
    "ConfigError",
    "UnknownSuiteError",
    "SuiteConfig",
    "SuiteResult",
    "Report",
    "SUITES",
    "run",
    "run_suite",
    "ratio_study",
    "convergence_study",
]
