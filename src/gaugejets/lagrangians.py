"""Matter and gauge-field densities and the covariant derivative.

Index contractions use the Euclidean metric by default (densities stay
positive and invariance tests unambiguous); a Minkowski flag flips the
signs of the spatial contractions and affects nothing else.  The algebra
inner product is -tr(XY), whose induced norm is the Frobenius norm.

The covariant derivative is D_mu phi = d_mu phi + A_mu . phi (infinitesimal
representation action).  With the affine potential transformation
Ad(g) A - a this sign makes D equivariant: D_{g.A}(g.phi) = g . D_A phi,
which is what turns a globally invariant density into a gauge invariant
one under minimal coupling: evaluate ``matter_density_vec`` on
``covariant_derivative(A, jm)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    GroupSpec,
    RepVector,
    check_same_group,
    _check_potential,
    _trusted,
    exp,
    frobenius,
    fundamental_vector_field,
    random_algebra_entries,
    seeded_rng,
)
from .actions import act_curvature
from .jets import Curvature, JetConnection, JetMatter, curvature, curvature_pairs, sym

UTIYAMA_PROBES = 64  # random curvature samples in the conjugation-invariance probe
UTIYAMA_TOL = 1e-10  # largest density change under conjugation the probe accepts


class MatterKind(str, enum.Enum):
    FREE = "free"
    PHI4 = "phi4"
    BROKEN = "broken"


class GaugeKind(str, enum.Enum):
    YANG_MILLS = "yang_mills"
    BROKEN_GAUGE = "broken_gauge"


@dataclass(frozen=True)
class MatterLagrangianSpec:
    kind: MatterKind
    lam: float = 0.0
    v: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", MatterKind(self.kind))
        if self.lam < 0:
            raise ValueError("quartic coupling must be non-negative")


@dataclass(frozen=True)
class GaugeLagrangianSpec:
    kind: GaugeKind
    coupling: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", GaugeKind(self.kind))
        if self.coupling <= 0:
            raise ValueError("gauge coupling must be positive")


def _metric_signs(n: int, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return np.ones(n)
    if metric == "minkowski":
        signs = -np.ones(n)
        signs[0] = 1.0
        return signs
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# matter sector

def covariant_derivative(A: AlgebraElement, jm: JetMatter) -> tuple[RepVector, RepVector]:
    """(phi, D_A phi) with D_mu phi = d_mu phi + A_mu . phi."""
    check_same_group(A, jm)
    _check_potential(A.entries, jm.n_axes)
    phi = _trusted(RepVector, jm.spec, jm.phi)
    return phi, _trusted(RepVector, jm.spec, jm.dphi + fundamental_vector_field(A, phi).entries)


def matter_density_vec(
    spec: MatterLagrangianSpec, phi: RepVector, dphi: RepVector, metric: str = "euclidean"
) -> np.ndarray:
    """Density on (phi, velocity tuple); the globally invariant layer.

    free: sum_mu <dphi_mu, dphi_mu>; phi4 adds lam (|phi|^2 - v^2)^2;
    broken adds c Re(phi_1) and is the negative control.
    """
    if dphi.entries.ndim < 2:
        raise DimensionError("expected a stacked velocity tuple (..., n_axes, k)")
    signs = _metric_signs(dphi.entries.shape[-2], metric)
    kinetic = np.einsum(
        "m,...mj->...", signs, (dphi.entries.conj() * dphi.entries).real
    )
    out = kinetic
    if spec.kind is MatterKind.PHI4:
        norm2 = np.sum((phi.entries.conj() * phi.entries).real, axis=-1)
        out = out + spec.lam * (norm2 - spec.v**2) ** 2
    elif spec.kind is MatterKind.BROKEN:
        out = out + spec.c * phi.entries[..., 0].real
    return out


# Nothing constructs this any more; it goes once the benchmark tracer drops it (ROADMAP item 2).
@dataclass(frozen=True)
class MinimallyCoupledDensity:
    """Density on (A, phi, dphi) obtained by replacing d with D_A."""

    spec: MatterLagrangianSpec
    metric: str = "euclidean"

    def __call__(self, A: AlgebraElement, jm: JetMatter) -> np.ndarray:
        phi, dphi = covariant_derivative(A, jm)
        return matter_density_vec(self.spec, phi, dphi, metric=self.metric)


# ---------------------------------------------------------------------------
# gauge sector

def _curvature_quadratic(f: Curvature, metric: str) -> np.ndarray:
    pairs = curvature_pairs(f.n_axes)
    if not pairs:
        return np.zeros(f.batch_shape)
    signs = _metric_signs(f.n_axes, metric)
    weights = np.array([signs[mu] * signs[nu] for mu, nu in pairs])
    return np.einsum("p,...p->...", weights, frobenius(f.comps) ** 2)


def gauge_density(
    spec: GaugeLagrangianSpec, jc: JetConnection, metric: str = "euclidean"
) -> np.ndarray:
    """First-order gauge-field density.

    yang_mills reads the connection jet only through its field strength;
    broken_gauge additionally reads the symmetric derivative and serves as
    the negative control.
    """
    (density,) = gauge_densities((spec,), jc, metric)
    return density


def gauge_densities(specs, jc: JetConnection, metric: str = "euclidean") -> list[np.ndarray]:
    """``gauge_density`` of each spec on one connection jet, from one field strength."""
    quad = _curvature_quadratic(curvature(jc), metric)
    out = []
    for spec in specs:
        if spec.kind is GaugeKind.YANG_MILLS:
            out.append(quad / (2.0 * spec.coupling**2))
        else:
            sym_term = np.sum(frobenius(sym(jc.dA)) ** 2, axis=(-2, -1))
            out.append((quad + sym_term) / (2.0 * spec.coupling**2))
    return out


@dataclass(frozen=True)
class FactoredGaugeDensity:
    """Gauge-field density of the form L(A, dA) = L_curv(F_(A, dA))."""

    curvature_density: Callable[[Curvature], np.ndarray]

    def __call__(self, jc: JetConnection) -> np.ndarray:
        return np.asarray(self.curvature_density(curvature(jc)))


def utiyama_factor(
    curvature_density: Callable[[Curvature], np.ndarray],
    spec: GroupSpec,
    n_axes: int,
    seed: int = 0,
) -> FactoredGaugeDensity:
    """Lift a conjugation-invariant curvature density to the connection jet.

    Probes the invariance of ``curvature_density`` under conjugation on
    random samples first and refuses non-invariant input, since the lift
    would then not be gauge invariant.
    """
    n_pairs = len(curvature_pairs(n_axes))
    rng = seeded_rng(seed, "utiyama-probe", spec.label(), n_axes)
    comps = random_algebra_entries(rng, spec, (UTIYAMA_PROBES, max(n_pairs, 0)))
    f = Curvature(spec, n_axes, comps)
    g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, (UTIYAMA_PROBES,))))
    moved = act_curvature(g, f)
    defect = np.max(np.abs(np.asarray(curvature_density(moved)) - np.asarray(curvature_density(f))))
    if defect > UTIYAMA_TOL:
        raise ValueError(
            "curvature density is not conjugation invariant "
            f"(defect {defect:.3e} > {UTIYAMA_TOL:g}); "
            "it does not define a gauge invariant density on connection jets"
        )
    return FactoredGaugeDensity(curvature_density)


__all__ = [
    "MatterKind",
    "GaugeKind",
    "MatterLagrangianSpec",
    "GaugeLagrangianSpec",
    "covariant_derivative",
    "matter_density_vec",
    "MinimallyCoupledDensity",
    "gauge_density",
    "gauge_densities",
    "FactoredGaugeDensity",
    "utiyama_factor",
]
