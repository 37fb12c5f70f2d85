"""Configuration-driven verification suites with machine-readable reports.

Every suite checks one invariance/transitivity claim of the jet-gauge
machinery: it samples fields from seeded substreams, transforms them, and
reports a single max_error.  A suite is a function of the config alone
(its patch is ``cfg.patch``), registered in ``SUITES`` with a claim and a
tolerance bound: the bound itself for algebraic suites, ``bound * h^2``
for finite-difference (``fd``) suites at grid spacing h.

Negative-control suites (broken densities) must *violate* invariance by a
stated margin; they report ``max(0, margin - observed_violation)`` against
tolerance 0, so the uniform rule "pass iff max_error <= tolerance" holds
for every suite.  Positive suites whose negative sub-check fails report
``inf``.

``run`` checks each configured suite once on the configured patch;
``converge`` repeats each across ``cfg.h_levels`` and judges the error
ratios.  Both build the same ``Report`` and write it to ``cfg.output``.

Determinism: all randomness derives from the config seed through named
sub-streams, quadrature uses an exact compensated sum, and suites are
independent, so reports are byte-identical across runs (modulo the
runtime_ms fields).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path
from typing import Callable, Sequence

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
    mechanics_action,
    minimal_coupling,
    utiyama_factor,
)
from .lie_core import (
    AlgebraElement,
    GroupFamily,
    GroupSpec,
    RepVector,
    exp,
    frobenius,
    group_spec,
    multiply,
    random_algebra_entries,
    rep_act,
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
        if not isinstance(self.suites, (list, tuple)) or not all(
            isinstance(name, str) for name in self.suites
        ):
            raise ConfigError(f"suites must be a list of suite names, got {self.suites!r}")
        object.__setattr__(self, "suites", tuple(self.suites))
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a path string, got {self.output!r}")
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}") from None
        try:
            _metric_signs(1, self.metric)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        levels = tuple(float(h) for h in self.h_levels)
        if not all(0 < h < math.inf for h in levels):
            raise ConfigError(f"h_levels must be positive and finite, got {list(levels)}")
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("h_levels must be strictly decreasing")
        object.__setattr__(self, "h_levels", levels)
        for name, tol in self.tolerances.items():
            if name not in SUITES:
                raise UnknownSuiteError(f"tolerance given for unknown suite {name!r}")
            if not 0 < tol < math.inf:
                raise ConfigError(f"tolerance for {name} must be positive and finite, got {tol!r}")
        for name in self.suites:
            if name not in SUITES:
                raise UnknownSuiteError(f"unknown suite {name!r}")

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
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
        return asdict(self)


@dataclass
class Report:
    seed: int
    config_hash: str
    suites: list[SuiteResult]
    overall: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @property
    def passed(self) -> bool:
        return self.overall == "pass"


# ---------------------------------------------------------------------------
# random fiber batches and sampled fields

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


def _gauge(rng, spec: GroupSpec, patch: Patch, scale: float = 1.0):
    """A two-factor gauge family on ``patch``; only building the family draws from ``rng``."""
    fam = analytic.random_gauge_family(
        rng, spec, patch.dim, factors=2, scale=scale, wave_scale=scale
    )
    return analytic.sample_gauge(patch, spec, fam)


def _connection(rng, spec: GroupSpec, patch: Patch, scale: float = 1.0):
    """A connection family on ``patch``; only building the family draws from ``rng``."""
    fam = analytic.random_connection_family(rng, spec, patch.dim, scale=scale, wave_scale=scale)
    return analytic.sample_connection(patch, spec, fam)


def _invariant_densities(metric: str) -> dict:
    """The gauge invariant minimally coupled matter densities, by name."""
    return {
        "free": minimal_coupling(MatterLagrangianSpec(MatterKind.FREE), metric=metric),
        "phi4": minimal_coupling(
            MatterLagrangianSpec(MatterKind.PHI4, lam=0.5, v=1.0), metric=metric
        ),
    }


def _broken_density(metric: str):
    """The minimally coupled negative control: its matter term breaks the symmetry."""
    return minimal_coupling(
        MatterLagrangianSpec(MatterKind.BROKEN, c=1.0), metric=metric, allow_noninvariant=True
    )


def _max(arr) -> float:
    arr = np.asarray(arr)
    return float(np.max(arr)) if arr.size else 0.0


def _interior_max(err_grid: np.ndarray, patch: Patch, margin: int) -> float:
    region = patch.interior(max(1, margin))
    return _max(err_grid[region.slices()])


# ---------------------------------------------------------------------------
# suite implementations (each takes the config and returns (max_error, details))

def _suite_jet_group_axioms(cfg: SuiteConfig):
    n = cfg.patch.dim
    laws = (
        ("order1", _random_jet1, jet1_mul, jet1_inv, jet1_unit, jet1_distance),
        ("order2", _random_jet2, jet2_mul, jet2_inv, jet2_unit, jet2_distance),
    )
    worst = 0.0
    details = {}
    for fam in ("u1", "su2", "su3"):
        spec = group_spec(fam)
        rng = seeded_rng(cfg.seed, "jet_group_axioms", fam)
        details[fam] = {}
        for order, random_jet, mul, inv, unit_of, distance in laws:
            j, k, l = (random_jet(rng, spec, n, AXIOM_BATCH) for _ in range(3))
            unit = unit_of(spec, n, (AXIOM_BATCH,))
            err = max(
                _max(distance(mul(mul(j, k), l), mul(j, mul(k, l)))),
                _max(distance(mul(unit, j), j)),
                _max(distance(mul(j, unit), j)),
                _max(distance(mul(j, inv(j)), unit)),
                _max(distance(mul(inv(j), j), unit)),
            )
            details[fam][order] = err
            worst = max(worst, err)
    return worst, details


def _suite_jet_functoriality(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "jet_functoriality", spec.label())
    s1 = _gauge(rng, spec, patch, scale=0.6)
    s2 = _gauge(rng, spec, patch, scale=0.6)
    prod = Field(patch, multiply(s1.values.value, s2.values.value))
    lhs1 = jet1_of(prod)
    rhs1 = jet1_mul(jet1_of(s1.values).value, jet1_of(s2.values).value)
    err1 = _interior_max(jet1_distance(lhs1.value, rhs1), patch, 1)
    lhs2 = jet2_of(prod)
    rhs2 = jet2_mul(jet2_of(s1.values).value, jet2_of(s2.values).value)
    err2 = _interior_max(jet2_distance(lhs2.value, rhs2), patch, 2)
    return max(err1, err2), {"order1": err1, "order2": err2}


def _suite_action_axioms(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
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


def _suite_chain_rule_matter(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "chain_rule_matter", spec.label())
    gs = _gauge(rng, spec, patch, scale=0.5)
    mfam = analytic.random_matter_family(rng, spec, patch.dim, scale=0.8, wave_scale=0.6)
    ms = analytic.sample_matter(patch, spec, mfam)
    lhs = jet_matter_of(Field(patch, rep_act(gs.values.value, ms.values.value)))
    rhs = act_jet_matter(jet1_of(gs.values).value, jet_matter_of(ms.values).value)
    err_grid = np.max(np.abs(lhs.value.dphi - rhs.dphi), axis=(-2, -1))
    return _interior_max(err_grid, patch, 1), {}


def _suite_chain_rule_connection(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "chain_rule_connection", spec.label())
    gs = _gauge(rng, spec, patch, scale=0.4)
    cs = _connection(rng, spec, patch, scale=0.5)
    moved = act_connection(gs.jet1.value, cs.values.value)
    lhs = jet_connection_of(Field(patch, moved))
    rhs = act_jet_connection(jet2_of(gs.values).value, jet_connection_of(cs.values).value)
    err_grid = np.maximum(
        np.max(frobenius(lhs.value.A - rhs.A), axis=-1),
        np.max(frobenius(lhs.value.dA - rhs.dA), axis=(-2, -1)),
    )
    return _interior_max(err_grid, patch, 2), {}


def _suite_curvature_equivariance(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "curvature_equivariance", spec.label(), n)
    jets = _random_jet2(rng, spec, n, EQUIVARIANCE_BATCH)
    jcs = _random_jet_connection(rng, spec, n, EQUIVARIANCE_BATCH)
    defect = curvature_equivariance_defect(jets, jcs)
    return _max(defect), {"samples": EQUIVARIANCE_BATCH}


def _suite_gauge_to_zero_1(cfg: SuiteConfig):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "gauge_to_zero_1", spec.label())
    A = _connection(rng, spec, cfg.patch).values.value
    witness = gauge_to_zero_jet1(A)
    err = _max(witness.residual)
    back = act_connection(jet1_inv(witness.jet), act_connection(witness.jet, A))
    round_trip = _max(frobenius(back.entries - A.entries))
    return max(err, round_trip), {"round_trip": round_trip, "points": cfg.patch.npoints}


def _suite_gauge_to_zero_2(cfg: SuiteConfig):
    spec = cfg.group
    rng = seeded_rng(cfg.seed, "gauge_to_zero_2", spec.label())
    jc: JetConnection = _connection(rng, spec, cfg.patch).jet.value
    witness = gauge_to_zero_jet2(jc)
    err = _max(witness.residual)
    transformed = witness.transformed
    f = curvature(jc)
    curv_err = 0.0
    for idx, (mu, nu) in enumerate(curvature_pairs(cfg.patch.dim)):
        anti = transformed.dA[..., mu, nu, :, :] - transformed.dA[..., nu, mu, :, :]
        curv_err = max(curv_err, _max(frobenius(anti - f.comps[..., idx, :, :])))
    return max(err, curv_err), {"residual": err, "antisym_vs_curvature": curv_err}


def _coupling_data(cfg: SuiteConfig):
    """Jets, matter jets and potentials shared by the two minimal-coupling suites."""
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "minimal_coupling", spec.label())
    b = COUPLING_BATCH
    jets = _random_jet1(rng, spec, n, b)
    jm = _random_jet_matter(rng, spec, n, b)
    A = AlgebraElement(spec, random_algebra_entries(rng, spec, (b, n)))
    return jets, jm, A


def _suite_minimal_coupling_invariance(cfg: SuiteConfig):
    jets, jm, A = _coupling_data(cfg)
    phi, dphi = covariant_derivative(A, jm)
    moved_A = act_connection(jets, A)
    moved_jm = act_jet_matter(jets, jm)
    phi2, dphi2 = covariant_derivative(moved_A, moved_jm)
    g = jets.group_element()
    equiv = max(
        _max(np.abs(phi2.entries - rep_act(g, phi).entries)),
        _max(np.abs(dphi2.entries - rep_act(g, dphi).entries)),
    )
    errs = {"equivariance": equiv}
    for kind, density in _invariant_densities(cfg.metric).items():
        errs[kind] = _max(np.abs(density(moved_A, moved_jm) - density(A, jm)))
    return max(errs.values()), errs


def _suite_minimal_coupling_negative(cfg: SuiteConfig):
    jets, jm, A = _coupling_data(cfg)
    density = _broken_density(cfg.metric)
    moved = density(act_connection(jets, A), act_jet_matter(jets, jm))
    violation = _max(np.abs(moved - density(A, jm)))
    shortfall = max(0.0, MATTER_VIOLATION - violation)
    return shortfall, {"violation": violation, "required": MATTER_VIOLATION}


def _utiyama_pairs(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "utiyama", spec.label())
    jc = _random_jet_connection(rng, spec, n, UTIYAMA_PAIRS)
    shift = random_algebra_entries(rng, spec, (UTIYAMA_PAIRS, n, n))
    shift = 0.5 * (shift + np.swapaxes(shift, -4, -3))
    jc_shifted = JetConnection(spec, jc.A, jc.dA + shift)
    return jc, jc_shifted


def _suite_utiyama_level_sets(cfg: SuiteConfig):
    n = cfg.patch.dim
    jc, jc_shifted = _utiyama_pairs(cfg)
    factored = utiyama_factor(
        lambda f: _curvature_quadratic(f, n, cfg.metric), cfg.group, n, seed=cfg.seed
    )
    gap = _max(np.abs(factored(jc) - factored(jc_shifted)))
    same_f = _max(
        frobenius(curvature(jc).comps - curvature(jc_shifted).comps)
        if curvature_pairs(n)
        else np.zeros(1)
    )
    return max(gap, same_f), {"level_set_gap": gap, "curvature_match": same_f}


def _suite_utiyama_negative(cfg: SuiteConfig):
    jc, jc_shifted = _utiyama_pairs(cfg)
    spec = GaugeLagrangianSpec(GaugeKind.BROKEN_GAUGE)
    violation = float(
        np.min(np.abs(gauge_density(spec, jc, cfg.metric) - gauge_density(spec, jc_shifted, cfg.metric)))
    )
    shortfall = max(0.0, GAUGE_VIOLATION - violation)
    return shortfall, {"min_violation": violation, "required": GAUGE_VIOLATION}


def _suite_theorem_ginv1(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "theorem_ginv1", spec.label())
    A = _connection(rng, spec, patch).values.value
    ms = analytic.sample_matter(patch, spec, analytic.random_matter_family(rng, spec, patch.dim))
    jm = ms.jet.value
    region = patch.interior(1)
    npts = region.npoints
    densities = _invariant_densities(cfg.metric)
    broken = _broken_density(cfg.metric)
    base = {k: d(A, jm) for k, d in densities.items()}
    base_actions = {k: integrate(Field(patch, vals), region) for k, vals in base.items()}
    base_broken = integrate(Field(patch, broken(A, jm)), region)
    pointwise = action_err = broken_violation = 0.0
    for _ in range(GINV_TRANSFORMS):
        jet = _gauge(rng, spec, patch).jet1.value
        A2 = act_connection(jet, A)
        jm2 = act_jet_matter(jet, jm)
        for k, d in densities.items():
            vals = d(A2, jm2)
            pointwise = max(pointwise, _interior_max(np.abs(vals - base[k]), patch, 1))
            s2 = integrate(Field(patch, vals), region)
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


def _suite_theorem_ginv2(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "theorem_ginv2", spec.label())
    jc: JetConnection = _connection(rng, spec, patch).jet.value
    region = patch.interior(1)
    npts = region.npoints
    ym = GaugeLagrangianSpec(GaugeKind.YANG_MILLS, coupling=1.0)
    broken = GaugeLagrangianSpec(GaugeKind.BROKEN_GAUGE, coupling=1.0)
    base = gauge_density(ym, jc, cfg.metric)
    s_base = integrate(Field(patch, base), region)
    s_broken = integrate(Field(patch, gauge_density(broken, jc, cfg.metric)), region)
    pointwise = action_err = broken_violation = 0.0
    for _ in range(GINV_TRANSFORMS):
        jc2 = act_jet_connection(_gauge(rng, spec, patch).jet2.value, jc)
        vals = gauge_density(ym, jc2, cfg.metric)
        pointwise = max(pointwise, _interior_max(np.abs(vals - base), patch, 1))
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


def _suite_mechanics_reduction(cfg: SuiteConfig):
    """Relative change of the covariantized action, ``covariant_err / scale``.

    Roundoff model, from which the bound is derived: each action is an exact
    sum of nonnegative density values, rounded once and times the cell
    volume, so it carries the relative error of one density value plus two
    roundings.  A density |D phi|^2 is reached from O(1) data through dot
    products of length N (matrix products), N^2 (basis coordinates) and k
    (representation matrix times vector).  Counting eps per accumulation
    step on the longest path (worst case, no cancellation) gives at most
    c = 2N^2 + 2k + 5N + 3 eps on D phi, 2c + k + 1 on the density, and
    2(2c + k + 3) eps on the difference of two actions: 376 eps for the
    su(4) adjoint (N = 4, k = 15), the largest representation the tests
    cover.  The bound is the next power of two, 512 eps = 2^-43.  ``scale``
    is max(1, |S|), so actions below 1 are judged absolutely.
    """
    spec = cfg.group
    line = cfg.patch if cfg.patch.dim == 1 else default_patch(1)
    rng = seeded_rng(cfg.seed, "mechanics", spec.label())
    jc = _random_jet_connection(rng, spec, 1, 8)
    if curvature(jc).comps.size != 0:
        return float("inf"), {"curvature_components": int(curvature(jc).comps.size)}
    ms = analytic.sample_matter(line, spec, analytic.random_matter_family(rng, spec, 1))
    jet = _gauge(rng, spec, line).jet1.value
    A = _connection(rng, spec, line).values.value
    interval = line.interior(1)
    jm = ms.jet.value
    jm_moved = act_jet_matter(jet, jm)

    s_plain = mechanics_action(free_velocity_density, ms.jet, interval)
    s_plain_moved = mechanics_action(free_velocity_density, ms.jet.with_value(jm_moved), interval)
    violation = abs(s_plain_moved - s_plain)

    coupled = _invariant_densities(cfg.metric)["free"]
    A_moved = act_connection(jet, A)
    s_cov = integrate(Field(line, coupled(A, jm)), interval)
    s_cov_moved = integrate(Field(line, coupled(A_moved, jm_moved)), interval)
    cov_err = abs(s_cov_moved - s_cov)
    scale = max(1.0, abs(s_cov))
    err = cov_err / scale if violation > MATTER_VIOLATION else float("inf")
    return err, {
        "noncovariant_violation": violation,
        "covariant_err": cov_err,
        "scale": scale,
        "curvature_components": 0,
    }


def _suite_maurer_cartan(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "maurer_cartan", spec.label())
    gs = _gauge(rng, spec, patch, scale=0.6)
    defect = maurer_cartan_defect(jet1_of(gs.values))
    return _interior_max(defect.value, patch, 2), {}


@dataclass(frozen=True)
class SuiteDef:
    fn: Callable[[SuiteConfig], tuple[float, dict]]
    claim: str
    bound: float  # the tolerance, or its h^2 coefficient for fd suites
    fd: bool = False  # error scales as O(h^2)

    def tol(self, h: float) -> float:
        """Default tolerance at grid spacing h."""
        return self.bound * h * h if self.fd else self.bound


SUITES: dict[str, SuiteDef] = {
    "jet_group_axioms": SuiteDef(
        _suite_jet_group_axioms,
        "first- and second-order gauge jets form groups: associativity, unit, inverses",
        1e-12,
    ),
    "jet_functoriality": SuiteDef(
        _suite_jet_functoriality,
        "the jet of a pointwise product of group-valued fields is the product of their jets",
        50.0,
        fd=True,
    ),
    "action_axioms": SuiteDef(
        _suite_action_axioms,
        "unit jets act trivially and jet products act by composition on every carrier",
        1e-12,
    ),
    "chain_rule_matter": SuiteDef(
        _suite_chain_rule_matter,
        "the jet-level matter action matches derivatives of the pointwise-transformed field",
        10.0,
        fd=True,
    ),
    "chain_rule_connection": SuiteDef(
        _suite_chain_rule_connection,
        "the jet-level potential action matches derivatives of the transformed potential",
        50.0,
        fd=True,
    ),
    "curvature_equivariance": SuiteDef(
        _suite_curvature_equivariance,
        "the curvature of a transformed connection jet is the conjugated curvature",
        1e-10,
    ),
    "gauge_to_zero_1": SuiteDef(
        _suite_gauge_to_zero_1,
        "a first-order jet gauges any potential value to zero at every fiber",
        1e-12,
    ),
    "gauge_to_zero_2": SuiteDef(
        _suite_gauge_to_zero_2,
        "a second-order jet kills the potential and symmetric derivative, leaving half the "
        "field strength in the antisymmetric slot",
        1e-12,
    ),
    "minimal_coupling_invariance": SuiteDef(
        _suite_minimal_coupling_invariance,
        "covariant derivatives are equivariant, so minimally coupled densities are pointwise "
        "gauge invariant",
        1e-12,
    ),
    "minimal_coupling_negative": SuiteDef(
        _suite_minimal_coupling_negative,
        "a non-invariant matter term breaks gauge invariance of the coupled density "
        "(negative control)",
        1e-15,
    ),
    "utiyama_level_sets": SuiteDef(
        _suite_utiyama_level_sets,
        "densities factored through the curvature map are constant on equal-curvature jets",
        1e-12,
    ),
    "utiyama_negative": SuiteDef(
        _suite_utiyama_negative,
        "a density reading the symmetric derivative separates equal-curvature jets "
        "(negative control)",
        1e-15,
    ),
    "theorem_ginv1": SuiteDef(
        _suite_theorem_ginv1,
        "matter action integrals over compact regions are invariant under sampled gauge "
        "transformations exactly when the density is jet-invariant",
        1e-12,
    ),
    "theorem_ginv2": SuiteDef(
        _suite_theorem_ginv2,
        "gauge-field action integrals are invariant under second-order jet transformations "
        "exactly when the density is jet-invariant",
        1e-12,
    ),
    "mechanics_reduction": SuiteDef(
        _suite_mechanics_reduction,
        "on a one-dimensional base the field strength is empty and only the covariantized "
        "action survives time-dependent transformations",
        2.0**-43,  # relative to the action; see _suite_mechanics_reduction
    ),
    "maurer_cartan": SuiteDef(
        _suite_maurer_cartan,
        "right-trivialized derivatives of sampled group fields satisfy the flatness identity",
        50.0,
        fd=True,
    ),
}


def _lookup(name: str) -> SuiteDef:
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}")
    return SUITES[name]


def _result(
    cfg: SuiteConfig,
    name: str,
    h: float,
    start: float,
    max_error: float,
    details: dict,
    ok: bool = True,
    mode: str = "check",
    ratios: Sequence[float] = (),
) -> SuiteResult:
    """Judge ``max_error`` against the suite's tolerance at spacing ``h``.

    A suite passes when its ratio study (if any) is ``ok`` and either it is
    exact at machine epsilon or ``max_error`` is within the tolerance.
    """
    runtime = (time.perf_counter() - start) * 1000.0
    tol = float(cfg.tolerances[name]) if name in cfg.tolerances else SUITES[name].tol(h)
    passed = ok and (mode == "exact" or max_error <= tol)
    return SuiteResult(
        name=name,
        status="pass" if passed else "fail",
        max_error=max_error,
        tolerance=tol,
        convergence_ratios=list(ratios),
        runtime_ms=runtime,
        claim=SUITES[name].claim,
        mode=mode,
        details=details,
    )


def run_suite(cfg: SuiteConfig, name: str) -> SuiteResult:
    suite = _lookup(name)
    start = time.perf_counter()
    err, details = suite.fn(cfg)
    return _result(cfg, name, max(cfg.patch.spacing), start, float(err), details)


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
    inside [3.5, 4.5], unless the suite is exact at machine epsilon.  In
    ratio mode the errors then fall, so the largest, at the first level, is
    judged against the tolerance at that level's spacing.
    """
    suite = _lookup(name)
    if len(cfg.h_levels) < 2:
        raise ConfigError("convergence studies need at least two h levels")
    start = time.perf_counter()
    errors = [float(suite.fn(replace(cfg, patch=cfg.patch.refined(h)))[0])
              for h in cfg.h_levels]
    mode, ratios, ok = ratio_study(errors)
    details = {"errors": errors, "h_levels": list(cfg.h_levels)}
    return _result(cfg, name, cfg.h_levels[0], start, max(errors), details, ok, mode, ratios)


def _report(cfg: SuiteConfig, results: list[SuiteResult]) -> Report:
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    report = Report(seed=cfg.seed, config_hash=cfg.config_hash(), suites=results, overall=overall)
    if cfg.output:
        report.write(cfg.output)
    return report


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suites deterministically and build a report."""
    return _report(cfg, [run_suite(cfg, n) for n in cfg.suites])


def converge(cfg: SuiteConfig) -> Report:
    """Convergence studies of the configured suites, or of every fd suite if none is set."""
    names = cfg.suites or tuple(n for n, s in SUITES.items() if s.fd)
    return _report(cfg, [convergence_study(cfg, n) for n in names])


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
    "converge",
]
