"""Configuration-driven verification suites with machine-readable reports.

Every suite checks one invariance/transitivity claim of the jet-gauge
machinery: it samples fields from seeded substreams, transforms them, and
reports a single max_error.  A suite is a function of the config alone
(its patch is ``cfg.patch``), declared by ``@_suite(claim, bound, fd)`` on
its ``_suite_<name>`` function, which registers it in ``SUITES`` as
``<name>``, in definition order.  The tolerance is the bound itself for
algebraic suites, and ``bound * h^2`` for finite-difference (``fd``)
suites at grid spacing h.

Negative-control suites (broken densities) must *violate* invariance by a
stated margin; they report the shortfall ``max(0, margin - observed_violation)``
(NaN for a NaN violation: every suite combines its sub-errors by ``_worst``)
against the bound 1e-15, so the uniform rule "pass iff max_error <=
tolerance" holds for every suite: a negative control passes when its
violation reaches the margin to within 1e-15.  Positive suites whose
negative sub-check fails report ``inf``.

Matter densities are evaluated on one covariant derivative (phi, D_A phi)
per potential and matter jet.  The three action suites, ``theorem_ginv1``
(matter), ``theorem_ginv2`` (gauge fields) and ``mechanics_reduction``
(matter on a line), share one study, ``_action_invariance``, which
integrates each density over the patch interior, sampled there alone,
before and after every transformation and tracks the worst change, judged
by each suite's verdict, or ends in a NaN error naming the first non-finite
density in ``details.non_finite``.  The other suites that read sampled
fields name there, for a NaN error, the first non-finite stage they record
as they compute it (``_Stages``).  Suites run with numpy's overflow warnings off.

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
import itertools
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import analytic
from .actions import (
    act_connection,
    act_curvature,
    act_jet_connection,
    act_jet_matter,
    gauge_to_zero_jet1,
    gauge_to_zero_jet2,
)
from .jets import (
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    curvature,
    jet1_inv,
    jet1_mul,
    jet1_of,
    jet1_unit,
    jet2_inv,
    jet2_mul,
    jet2_of,
    jet2_unit,
    jet_connection_of,
    jet_matter_of,
    maurer_cartan_defect,
    sym,
    sym_pairs,
)
from .lagrangians import (
    _curvature_quadratic,
    _metric_signs,
    covariant_derivative,
    gauge_density,
    matter_density,
)
from .lie_core import (
    AlgebraElement,
    GroupSpec,
    RepVector,
    _max,
    _trusted,
    distance,
    exp,
    group_spec,
    multiply,
    random_algebra_entries,
    rep_act,
    seeded_rng,
)
from .patch import Field, Patch, Points, RegionError, default_patch, integrate

BATCH = 1000  # random fiber values per draw of the algebraic suites
GINV_TRANSFORMS = 20
UTIYAMA_PAIRS = 100
MATTER_VIOLATION = 1e-3
GAUGE_VIOLATION = 1e-6
EXACT_THRESHOLD = 1e-13
RATIO_WINDOW = (3.5, 4.5)


class ConfigError(ValueError):
    """Malformed harness configuration."""


def check_output_path(path: str, what: str) -> None:
    """Refuse, before any work, a file path that cannot be written: one in a
    missing directory, or an existing directory."""
    if Path(path).is_dir():
        raise ConfigError(f"{what} {path!r} is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"{what} directory of {path!r} does not exist")


class UnknownSuiteError(ConfigError):
    """Requested suite name is not registered."""


_STRING_KEYS = {"config.group.family", "config.metric", "config.output", "config.suites"}


def _bad_scalar(data, key: str = "config") -> str | None:
    """The key path of a boolean, or of a string outside ``_STRING_KEYS`` and the
    suite names, in parsed JSON, or None: ``float`` would read "0.2" or True."""
    if isinstance(data, bool) or (
        isinstance(data, str) and key not in _STRING_KEYS and not key.startswith("config.suites.")
    ):
        return key
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return next(filter(None, (_bad_scalar(v, f"{key}.{k}") for k, v in items)), None)
    return None


@dataclass(frozen=True)
class SuiteConfig:
    group: GroupSpec = dc_field(default_factory=lambda: group_spec("su2"))
    patch: Patch = dc_field(default_factory=lambda: default_patch(2))
    seed: int = 20250810
    suites: tuple[str, ...] = ()
    h_levels: tuple[float, ...] = (0.04, 0.02, 0.01)
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
        if self.output is not None:
            check_output_path(self.output, "output")
        try:
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}") from None
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        try:
            _metric_signs(1, self.metric)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            levels = tuple(float(h) for h in self.h_levels)
        except OverflowError:  # an integer no float holds
            raise ConfigError("h_levels must be positive and finite: an integer exceeds the floats") from None
        if not all(0 < h < math.inf for h in levels):
            raise ConfigError(f"h_levels must be positive and finite, got {list(levels)}")
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("h_levels must be strictly decreasing")
        object.__setattr__(self, "h_levels", levels)
        for name in self.suites:
            _lookup(name)

    @staticmethod
    def from_dict(data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        if where := _bad_scalar(data):
            raise ConfigError(f"{where}: the schema has no booleans, and strings only as names")
        for where, section, cls in (
            ("config", data, SuiteConfig),
            ("config.group", data.get("group"), GroupSpec),
            ("config.patch", data.get("patch"), Patch),
        ):
            known = {f.name for f in fields(cls)}
            if isinstance(section, dict) and (extra := [k for k in section if k not in known]):
                raise ConfigError(f"unknown config key {where}.{extra[0]}")
        try:
            kwargs = dict(data)
            if "group" in data:
                kwargs["group"] = GroupSpec(**{"family": "su2", **data["group"]})
            if "patch" in data:
                p = data["patch"]
                kwargs["patch"] = Patch(**{**p, "extent": tuple(p["extent"])})
            return SuiteConfig(**kwargs)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    def to_dict(self) -> dict:
        """The JSON form that ``from_dict`` reads back."""
        return json.loads(json.dumps(asdict(self)))

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


def _strict(data):
    if isinstance(data, float) and not math.isfinite(data):
        return repr(data)
    if isinstance(data, dict):
        return {k: _strict(v) for k, v in data.items()}
    return [_strict(v) for v in data] if isinstance(data, (list, tuple)) else data


@dataclass
class Report:
    seed: int
    config_hash: str
    suites: list[SuiteResult]
    overall: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): a non-finite float is the string "inf", "-inf" or "nan"."""
        return json.dumps(_strict(self.to_dict()), sort_keys=True, indent=2, allow_nan=False) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @property
    def passed(self) -> bool:
        return self.overall == "pass"


# ---------------------------------------------------------------------------
# random fiber batches and sampled fields

def _random(cls, rng, spec: GroupSpec, n: int, batch: int):
    """A batch of random ``cls`` values on n base axes, drawn field by field in LAYOUT order.

    A group field is exp of a random algebra batch, an algebra field
    ``random_algebra_entries``, a vector field a uniform real and then imaginary
    part in [-1, 1]; the packed ``Jet2Gauge.s`` is drawn as its full (n, n)
    stack, whose symmetric part it keeps (``sym_pairs``).
    """
    sizes = _trusted(cls, spec)._sizes(n)
    arrays = []
    for axes, invariant in cls.LAYOUT.values():
        shape = (batch, *(sizes[a] for a in axes))
        if invariant is None:
            arrays.append(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
            continue
        if axes[0] == "S":
            arrays.append(sym_pairs(random_algebra_entries(rng, spec, (batch, n, n))))
            continue
        x = random_algebra_entries(rng, spec, shape[:-2])
        arrays.append(exp(AlgebraElement(spec, x)).entries if invariant == "group" else x)
    return cls(spec, *arrays)


def _gauge(rng, spec: GroupSpec, patch: Patch | Points, scale: float = 1.0):
    """A two-factor gauge family on ``patch``; only building the family draws from ``rng``."""
    fam = analytic.random_gauge_family(rng, spec, patch.dim, factors=2, scale=scale)
    return analytic.sample_gauge(patch, spec, fam)


def _connection(rng, spec: GroupSpec, patch: Patch | Points, scale: float = 1.0):
    """A connection family on ``patch``; only building the family draws from ``rng``."""
    fam = analytic.random_connection_family(rng, spec, patch.dim, scale=scale)
    return analytic.sample_connection(patch, spec, fam)


def _interior_max(err_grid: np.ndarray, *fields: Field) -> float:
    """Largest error where every field it came from is valid: inside the widest margin."""
    region = fields[0].patch.interior(max(f.margin for f in fields))
    return _max(err_grid[region.slices()])


def _worst(*errors: float) -> float:
    """The largest of ``errors``, NaN if any is: Python's ``max(1.0, nan)`` is 1.0."""
    return float(np.max(errors))


class _Stages(dict):
    """A suite's data by stage name, in computing order: ``stage(name, x)`` records and returns x."""

    def __call__(self, name: str, x):
        self[name] = x
        return x

    def details(self, err: float, details: dict) -> dict:
        """``details``, plus for a NaN ``err`` alone the first stage whose data
        is not finite, as ``non_finite`` ("comparison" if all are)."""
        if not math.isnan(err):
            return details

        def finite(x) -> bool:
            x = x.value if isinstance(x, Field) else x
            arrays = [getattr(x, name) for name in x.LAYOUT] if hasattr(x, "LAYOUT") else [x]
            return all(np.isfinite(a).all() for a in arrays)

        bad = next((name for name, x in self.items() if not finite(x)), "comparison")
        return {**details, "non_finite": bad}


# ---------------------------------------------------------------------------
# suite implementations (each takes the config and returns (max_error, details))

@dataclass(frozen=True)
class SuiteDef:
    fn: Callable[[SuiteConfig], tuple[float, dict]]
    claim: str
    bound: float  # the tolerance, or its h^2 coefficient for fd suites
    fd: bool = False  # error scales as O(h^2)

    def tol(self, h: float) -> float:
        """Default tolerance at grid spacing h."""
        return self.bound * h * h if self.fd else self.bound


SUITES: dict[str, SuiteDef] = {}


def _suite(claim: str, bound: float, fd: bool = False):
    """Register the decorated ``_suite_<name>`` function in ``SUITES`` as ``<name>``."""
    def register(fn):
        SUITES[fn.__name__.removeprefix("_suite_")] = SuiteDef(fn, claim, bound, fd)
        return fn
    return register


def _group_law_defect(mul, inv, unit, j, k, l) -> float:
    """Largest defect of associativity, both unit laws and both inverse laws;
    the inverse is taken once, after the associativity products that set the peak."""
    associativity = _max(distance(mul(mul(j, k), l), mul(j, mul(k, l))))
    j_inv = inv(j)
    return _worst(
        associativity,
        _max(distance(mul(unit, j), j)),
        _max(distance(mul(j, unit), j)),
        _max(distance(mul(j, j_inv), unit)),
        _max(distance(mul(j_inv, j), unit)),
    )


@_suite("first- and second-order gauge jets form groups: associativity, unit, inverses", 1e-12)
def _suite_jet_group_axioms(cfg: SuiteConfig):
    """Group laws of the configured group's jets; jet products never read the
    representation, so the draws depend on ``spec.label()`` alone."""
    spec, n = cfg.group, cfg.patch.dim
    laws = (
        ("order1", Jet1Gauge, jet1_mul, jet1_inv, jet1_unit),
        ("order2", Jet2Gauge, jet2_mul, jet2_inv, jet2_unit),
    )
    rng = seeded_rng(cfg.seed, "jet_group_axioms", spec.label())
    errors = {}
    for order, cls, mul, inv, unit_of in laws:
        j, k, l = (_random(cls, rng, spec, n, BATCH) for _ in range(3))
        unit = unit_of(spec, n, (BATCH,))
        errors[order] = _group_law_defect(mul, inv, unit, j, k, l)
    return _worst(*errors.values()), {spec.label(): errors}


@_suite(
    "the jet of a pointwise product of group-valued fields is the product of their jets",
    50.0,
    fd=True,
)
def _suite_jet_functoriality(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng, stage = seeded_rng(cfg.seed, "jet_functoriality", spec.label()), _Stages()
    s1, s2 = _gauge(rng, spec, patch, scale=0.6), _gauge(rng, spec, patch, scale=0.6)
    g1, g2 = stage("gauge_1", s1.values), stage("gauge_2", s2.values)
    prod = stage("product", Field(patch, multiply(g1.value, g2.value)))
    lhs1 = stage("jet1_of_product", jet1_of(prod))
    rhs1 = stage("jet1_product", jet1_mul(jet1_of(g1).value, jet1_of(g2).value))
    err1 = _interior_max(distance(lhs1.value, rhs1), lhs1)
    lhs2 = stage("jet2_of_product", jet2_of(prod))
    rhs2 = stage("jet2_product", jet2_mul(jet2_of(g1).value, jet2_of(g2).value))
    err2 = _interior_max(distance(lhs2.value, rhs2), lhs2)
    err = _worst(err1, err2)
    return err, stage.details(err, {"order1": err1, "order2": err2})


@_suite("unit jets act trivially and jet products act by composition on every carrier", 1e-12)
def _suite_action_axioms(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "action_axioms", spec.label())
    b = BATCH
    j1, k1 = _random(Jet1Gauge, rng, spec, n, b), _random(Jet1Gauge, rng, spec, n, b)
    j2, k2 = _random(Jet2Gauge, rng, spec, n, b), _random(Jet2Gauge, rng, spec, n, b)
    g, h = j1.group_element(), k1.group_element()
    unit1, unit2 = jet1_unit(spec, n, (b,)), jet2_unit(spec, n, (b,))
    eye = unit1.group_element()
    jm = _random(JetMatter, rng, spec, n, b)
    jc = _random(JetConnection, rng, spec, n, b)
    f = curvature(jc)
    carriers = [
        ("matter", rep_act, eye, RepVector(spec, jm.phi), multiply, g, h),
        ("variation", rep_act, eye, RepVector(spec, jm.dphi[:, 0, :]), multiply, g, h),
        ("jet_matter", act_jet_matter, unit1, jm, jet1_mul, j1, k1),
        ("connection", act_connection, unit1, jc.potential(), jet1_mul, j1, k1),
        ("jet_connection", act_jet_connection, unit2, jc, jet2_mul, j2, k2),
    ]
    if f.comps.size:
        carriers.append(("curvature", act_curvature, eye, f, multiply, g, h))
    # each law is compared as soon as its sides exist: one pair of moved batches at a time
    errs = {}
    for name, act, unit, x, mul, left, right in carriers:
        errs[f"{name}_unit"] = _max(distance(act(unit, x), x))
        errs[f"{name}_compose"] = _max(distance(act(mul(left, right), x), act(left, act(right, x))))
    return _worst(*errs.values()), errs


@_suite(
    "the jet-level matter action matches derivatives of the pointwise-transformed field",
    10.0,
    fd=True,
)
def _suite_chain_rule_matter(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng, stage = seeded_rng(cfg.seed, "chain_rule_matter", spec.label()), _Stages()
    gs = _gauge(rng, spec, patch, scale=0.5)
    mfam = analytic.random_matter_family(rng, spec, patch.dim, scale=0.8, wave_scale=0.6)
    g = stage("gauge", gs.values)
    phi = stage("matter", analytic.sample_matter(patch, spec, mfam).values)
    moved = stage("moved_matter", rep_act(g.value, phi.value))
    lhs = stage("jet_of_moved", jet_matter_of(Field(patch, moved)))
    jet, jm = stage("gauge_jet1", jet1_of(g)), stage("matter_jet", jet_matter_of(phi))
    rhs = stage("moved_jet", act_jet_matter(jet.value, jm.value))
    err = _interior_max(distance(lhs.value, rhs), lhs)
    return err, stage.details(err, {})


@_suite(
    "the jet-level potential action matches derivatives of the transformed potential",
    50.0,
    fd=True,
)
def _suite_chain_rule_connection(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng, stage = seeded_rng(cfg.seed, "chain_rule_connection", spec.label()), _Stages()
    gs = _gauge(rng, spec, patch, scale=0.4)
    cs = _connection(rng, spec, patch, scale=0.5)
    jet1 = gs.jet1.value  # read first: the values are cut from it
    g, a = stage("gauge", gs.values), stage("connection", cs.values)
    moved = stage("moved_connection", act_connection(jet1, a.value))
    lhs = stage("jet_of_moved", jet_connection_of(Field(patch, moved)))
    jet = stage("gauge_jet2", jet2_of(g))
    rhs = stage("moved_jet", act_jet_connection(jet.value, jet_connection_of(a).value))
    err = _interior_max(distance(lhs.value, rhs), lhs, jet)
    return err, stage.details(err, {})


@_suite("the curvature of a transformed connection jet is the conjugated curvature", 1e-10)
def _suite_curvature_equivariance(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "curvature_equivariance", spec.label(), n)
    jets = _random(Jet2Gauge, rng, spec, n, BATCH)
    jcs = _random(JetConnection, rng, spec, n, BATCH)
    moved = curvature(act_jet_connection(jets, jcs))
    conjugated = act_curvature(jets.group_element(), curvature(jcs))
    return _max(distance(moved, conjugated)), {"samples": BATCH}


@_suite("a first-order jet gauges any potential value to zero at every fiber", 1e-12)
def _suite_gauge_to_zero_1(cfg: SuiteConfig):
    spec = cfg.group
    rng, stage = seeded_rng(cfg.seed, "gauge_to_zero_1", spec.label()), _Stages()
    A = stage("connection", _connection(rng, spec, cfg.patch).values.value)
    witness = gauge_to_zero_jet1(A)
    stage.update(witness_jet=witness.jet, transformed=witness.transformed, residual=witness.residual)
    err = _max(witness.residual)
    back = stage("round_trip", act_connection(jet1_inv(witness.jet), witness.transformed))
    round_trip = _max(distance(back, A))
    worst = _worst(err, round_trip)
    return worst, stage.details(worst, {"round_trip": round_trip, "points": cfg.patch.npoints})


@_suite(
    "a second-order jet kills the potential and symmetric derivative, leaving half the "
    "field strength in the antisymmetric slot",
    1e-12,
)
def _suite_gauge_to_zero_2(cfg: SuiteConfig):
    spec = cfg.group
    rng, stage = seeded_rng(cfg.seed, "gauge_to_zero_2", spec.label()), _Stages()
    jc: JetConnection = stage("connection_jet", _connection(rng, spec, cfg.patch).jet.value)
    witness = gauge_to_zero_jet2(jc)
    stage.update(witness_jet=witness.jet, transformed=witness.transformed, residual=witness.residual)
    err = _max(witness.residual)
    # the witness moves A to exactly zero, so the bracket term adds exact zeros
    f_moved = stage("curvature_of_transformed", curvature(witness.transformed))
    f = stage("curvature", curvature(jc))
    curv_err = _max(distance(f_moved, f))
    worst = _worst(err, curv_err)
    return worst, stage.details(worst, {"residual": err, "antisym_vs_curvature": curv_err})


def _coupling_data(cfg: SuiteConfig):
    """Jets, matter jets and potentials shared by the two minimal-coupling suites."""
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "minimal_coupling", spec.label())
    b = BATCH
    jets = _random(Jet1Gauge, rng, spec, n, b)
    jm = _random(JetMatter, rng, spec, n, b)
    A = AlgebraElement(spec, random_algebra_entries(rng, spec, (b, n)))
    return jets, jm, A


@_suite(
    "covariant derivatives are equivariant, so minimally coupled densities are pointwise "
    "gauge invariant",
    1e-12,
)
def _suite_minimal_coupling_invariance(cfg: SuiteConfig):
    jets, jm, A = _coupling_data(cfg)
    phi, dphi = covariant_derivative(A, jm)
    phi2, dphi2 = covariant_derivative(act_connection(jets, A), act_jet_matter(jets, jm))
    g = jets.group_element()
    equiv = _worst(_max(distance(phi2, rep_act(g, phi))), _max(distance(dphi2, rep_act(g, dphi))))
    moved, base = matter_density(phi2, dphi2, cfg.metric), matter_density(phi, dphi, cfg.metric)
    errs = {"equivariance": equiv}
    errs.update((k, _max(np.abs(moved[k] - base[k]))) for k in ("free", "phi4"))
    return _worst(*errs.values()), errs


@_suite(
    "a non-invariant matter term breaks gauge invariance of the coupled density "
    "(negative control)",
    1e-15,
)
def _suite_minimal_coupling_negative(cfg: SuiteConfig):
    jets, jm, A = _coupling_data(cfg)
    base = matter_density(*covariant_derivative(A, jm), cfg.metric)["broken"]
    moved = covariant_derivative(act_connection(jets, A), act_jet_matter(jets, jm))
    violation = _max(np.abs(matter_density(*moved, cfg.metric)["broken"] - base))
    shortfall = _worst(0.0, MATTER_VIOLATION - violation)
    return shortfall, {"violation": violation, "required": MATTER_VIOLATION}


def _utiyama_pairs(cfg: SuiteConfig):
    spec = cfg.group
    n = cfg.patch.dim
    rng = seeded_rng(cfg.seed, "utiyama", spec.label())
    jc = _random(JetConnection, rng, spec, n, UTIYAMA_PAIRS)
    shift = sym(random_algebra_entries(rng, spec, (UTIYAMA_PAIRS, n, n)))
    jc_shifted = JetConnection(spec, jc.A, jc.dA + shift)
    return jc, jc_shifted


@_suite("densities factored through the curvature map are constant on equal-curvature jets", 1e-12)
def _suite_utiyama_level_sets(cfg: SuiteConfig):
    jc, jc_shifted = _utiyama_pairs(cfg)
    f, f_shifted = curvature(jc), curvature(jc_shifted)
    quad, quad_shifted = _curvature_quadratic(f, cfg.metric), _curvature_quadratic(f_shifted, cfg.metric)
    gap = _max(np.abs(quad - quad_shifted))
    same_f = _max(distance(f, f_shifted))
    return _worst(gap, same_f), {"level_set_gap": gap, "curvature_match": same_f}


@_suite(
    "a density reading the symmetric derivative separates equal-curvature jets "
    "(negative control)",
    1e-15,
)
def _suite_utiyama_negative(cfg: SuiteConfig):
    jc, jc_shifted = _utiyama_pairs(cfg)
    shifted = gauge_density(jc_shifted, cfg.metric)["broken"]
    violation = float(np.min(np.abs(gauge_density(jc, cfg.metric)["broken"] - shifted)))
    shortfall = _worst(0.0, GAUGE_VIOLATION - violation)
    return shortfall, {"min_violation": violation, "required": GAUGE_VIOLATION}


def _action_invariance(points: Points, densities, base, moved, verdict) -> tuple[float, dict]:
    """Worst change of each density and of its action under the moved data.

    ``densities`` maps a datum to its density grids by name, the one named
    ``broken`` being the negative control; ``base`` is the datum and
    ``moved`` yields its transforms, all sampled on ``points``, the points
    of the integration region alone.  Returns the largest pointwise change
    of an invariant density there (``pointwise``), of its action
    (``action_err``) and the largest base action an invariant density has
    (``scale``, as |S|), the region's ``points``, and the largest action
    change of the broken density (``broken_violation``): ``verdict`` turns
    these into the suite's (error, details).  A non-finite density ends the
    study with a NaN error, the ``points`` and its name as ``non_finite``.
    """
    base_vals = None
    pointwise = action_err = broken_violation = 0.0
    for vals_by_name in map(densities, itertools.chain([base], moved)):
        if bad := next((k for k, v in vals_by_name.items() if not np.isfinite(v).all()), None):
            return math.nan, {"non_finite": bad, "points": points.npoints}
        actions = {k: integrate(vals, points) for k, vals in vals_by_name.items()}
        broken = actions.pop("broken")
        if base_vals is None:
            base_vals, base_actions, s_broken = vals_by_name, actions, broken
            continue
        broken_violation = max(broken_violation, abs(broken - s_broken))
        for k, s in actions.items():
            pointwise = max(pointwise, _max(np.abs(vals_by_name[k] - base_vals[k])))
            action_err = max(action_err, abs(s - base_actions[k]))
    return verdict({
        "pointwise": pointwise,
        "action_err": action_err,
        "scale": max(map(abs, base_actions.values())),
        "points": points.npoints,
        "broken_violation": broken_violation,
    })


@_suite(
    "matter action integrals over compact regions are invariant under sampled gauge "
    "transformations exactly when the density is jet-invariant",
    1e-12,
)
def _suite_theorem_ginv1(cfg: SuiteConfig):
    spec, points = cfg.group, Points(cfg.patch, cfg.patch.interior(1))
    rng = seeded_rng(cfg.seed, "theorem_ginv1", spec.label())
    A = _connection(rng, spec, points).values.value
    family = analytic.random_matter_family(rng, spec, points.dim)
    jm = analytic.sample_matter(points, spec, family).jet.value

    def densities(datum):
        return matter_density(*covariant_derivative(*datum), cfg.metric)

    # generators: each transform is drawn from rng only when the study reaches it
    jets = (_gauge(rng, spec, points).jet1.value for _ in range(GINV_TRANSFORMS))
    moved = ((act_connection(jet, A), act_jet_matter(jet, jm)) for jet in jets)

    def verdict(study):
        err = max(study["pointwise"], study["action_err"] / study["points"])
        if study["broken_violation"] <= MATTER_VIOLATION:
            err = float("inf")
        return err, {**study, "transforms": GINV_TRANSFORMS}

    return _action_invariance(points, densities, (A, jm), moved, verdict)


@_suite(
    "gauge-field action integrals are invariant under second-order jet transformations "
    "exactly when the density is jet-invariant",
    1e-12,
)
def _suite_theorem_ginv2(cfg: SuiteConfig):
    spec, points = cfg.group, Points(cfg.patch, cfg.patch.interior(1))
    rng = seeded_rng(cfg.seed, "theorem_ginv2", spec.label())
    jc: JetConnection = _connection(rng, spec, points).jet.value

    jets = (_gauge(rng, spec, points).jet2.value for _ in range(GINV_TRANSFORMS))
    moved = (act_jet_connection(jet, jc) for jet in jets)

    def verdict(study):
        # the invariance bound is on the action integral; the pointwise defect
        # (pure roundoff, scaling with the density magnitude) is informational
        err = study["action_err"] / study["points"]
        if study["broken_violation"] <= GAUGE_VIOLATION:
            err = float("inf")
        return err, study

    return _action_invariance(points, lambda jc: gauge_density(jc, cfg.metric), jc, moved, verdict)


@_suite(
    "on a one-dimensional base the field strength is empty and only the covariantized "
    "action survives time-dependent transformations",
    2.0**-43,
)
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
    points = Points(line, line.interior(1))
    rng = seeded_rng(cfg.seed, "mechanics", spec.label())
    # a 1-axis jet has no curvature (curvature_pairs(1) is empty); the draw keeps the later ones
    _random(JetConnection, rng, spec, 1, 8)
    jm = analytic.sample_matter(points, spec, analytic.random_matter_family(rng, spec, 1)).jet.value
    jet = _gauge(rng, spec, points).jet1.value
    A = _connection(rng, spec, points).values.value

    def densities(datum):
        """The free density on (phi, D_A phi), and on the plain (phi, d phi) as the control."""
        A, jm = datum
        plain = (_trusted(RepVector, spec, jm.phi), _trusted(RepVector, spec, jm.dphi))
        covariant = matter_density(*covariant_derivative(A, jm), cfg.metric)["free"]
        return {"free": covariant, "broken": matter_density(*plain, cfg.metric)["free"]}

    moved = [(act_connection(jet, A), act_jet_matter(jet, jm))]

    def verdict(study):
        scale, violation = max(1.0, study["scale"]), study["broken_violation"]
        err = study["action_err"] / scale if violation > MATTER_VIOLATION else float("inf")
        return err, {
            "noncovariant_violation": violation,
            "covariant_err": study["action_err"],
            "scale": scale,
            "curvature_components": 0,
        }

    return _action_invariance(points, densities, (A, jm), moved, verdict)


@_suite(
    "right-trivialized derivatives of sampled group fields satisfy the flatness identity",
    50.0,
    fd=True,
)
def _suite_maurer_cartan(cfg: SuiteConfig):
    spec, patch = cfg.group, cfg.patch
    rng, stage = seeded_rng(cfg.seed, "maurer_cartan", spec.label()), _Stages()
    g = stage("gauge", _gauge(rng, spec, patch, scale=0.6).values)
    defect = stage("defect", maurer_cartan_defect(stage("jet1", jet1_of(g))))
    err = _interior_max(defect.value, defect)
    return err, stage.details(err, {})


def _lookup(name: str) -> SuiteDef:
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}")
    return SUITES[name]


def _result(
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
    exact at machine epsilon or ``max_error`` is within the tolerance.  A
    tolerance that is not positive and finite checks nothing: the suite
    fails, and ``details`` says why.
    """
    runtime = (time.perf_counter() - start) * 1000.0
    tol = SUITES[name].tol(h)
    valid = 0 < tol < math.inf
    if not valid:
        details = {**details, "invalid_tolerance": f"{tol!r} at spacing {h!r} is not positive and finite"}
    passed = ok and valid and (mode == "exact" or max_error <= tol)
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
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN error names its cause in details
        err, details = suite.fn(cfg)
    return _result(name, max(cfg.patch.spacing), start, float(err), details)


def ratio_study(errors: list[float]) -> tuple[str, list[float], bool]:
    """Classify a sequence of errors at halved spacings.

    Returns (mode, ratios, ok): 'exact' when every error sits at machine
    epsilon (no ratio check applies), else 'ratio' with error ratios per
    level pair, each required to be inside the second-order window.
    """
    if all(e <= EXACT_THRESHOLD for e in errors):
        return "exact", [], True
    ratios = [a / b if b > 0 else float("inf") for a, b in zip(errors, errors[1:])]
    return "ratio", ratios, all(RATIO_WINDOW[0] <= r <= RATIO_WINDOW[1] for r in ratios)


def convergence_study(cfg: SuiteConfig, name: str) -> SuiteResult:
    """Run one suite across cfg.h_levels on the configured physical domain.

    The configured patch defines the domain at its own spacing; each level
    resamples it at spacing h.  Rounding the point count can move a side by
    up to h/2, so ``details`` carries each level's ``extents`` and side
    ``lengths`` next to its error.  Pass requires every error ratio per
    halving inside [3.5, 4.5], unless the suite is exact at machine
    epsilon.  In ratio mode the errors then fall, so the largest, at the
    first level, is judged against the tolerance at that level's spacing.
    """
    suite = _lookup(name)
    if len(cfg.h_levels) < 2:
        raise ConfigError("convergence studies need at least two h levels")
    try:
        patches = [cfg.patch.refined(h) for h in cfg.h_levels]
    except RegionError as exc:
        raise ConfigError(f"h levels do not fit the patch domain: {exc}") from None
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        errors = [float(suite.fn(replace(cfg, patch=patch))[0]) for patch in patches]
    mode, ratios, ok = ratio_study(errors)
    details = {
        "errors": errors,
        "h_levels": list(cfg.h_levels),
        "extents": [list(patch.extent) for patch in patches],
        "lengths": [list(patch.lengths) for patch in patches],
    }
    return _result(name, cfg.h_levels[0], start, _worst(*errors), details, ok, mode, ratios)


def _report(cfg: SuiteConfig, results: list[SuiteResult]) -> Report:
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    report = Report(seed=cfg.seed, config_hash=cfg.config_hash(), suites=results, overall=overall)
    if cfg.output:
        report.write(cfg.output)
    return report


def run(cfg: SuiteConfig) -> Report:
    """Run the configured suites, or every registered suite if none is set."""
    return _report(cfg, [run_suite(cfg, n) for n in cfg.suites or SUITES])


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
