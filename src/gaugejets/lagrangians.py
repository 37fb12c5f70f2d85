"""Matter and gauge-field densities and the covariant derivative.

The harness checks five densities, each spelled once: ``matter_density``
returns the matter ones (free, phi4 and a broken control) from one kinetic
term, ``gauge_density`` the gauge-field ones (Yang-Mills and a broken
control) from one field strength.  ``yang_mills`` reads a connection jet
through its curvature alone, the form Utiyama's theorem gives every
gauge-invariant first-order density; the harness checks it is constant on
jets of equal curvature (``utiyama_level_sets``).

Index contractions use the Euclidean metric by default (densities stay
positive and invariance tests unambiguous); a Minkowski flag flips the
signs of the spatial contractions and affects nothing else.  The algebra
inner product is -tr(XY), whose induced norm is the Frobenius norm.

The covariant derivative is D_mu phi = d_mu phi + A_mu . phi (infinitesimal
representation action).  With the affine potential transformation
Ad(g) A - a this sign makes D equivariant: D_{g.A}(g.phi) = g . D_A phi,
which is what turns a globally invariant density into a gauge invariant
one under minimal coupling: evaluate ``matter_density`` on
``covariant_derivative(A, jm)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    RepVector,
    check_same_group,
    _check_potential,
    _trusted,
    frobenius,
    fundamental_vector_field,
)
from .jets import Curvature, JetConnection, JetMatter, curvature, curvature_pairs, sym


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


def matter_density(phi: RepVector, dphi: RepVector, metric: str = "euclidean") -> dict:
    """The matter densities on (phi, velocity tuple) by name; the globally invariant layer.

    All three share one kinetic term, sum_mu <dphi_mu, dphi_mu>: ``free`` is
    that term, ``phi4`` adds (|phi|^2 - 1)^2 / 2, and ``broken`` adds Re(phi_1)
    and is the negative control.
    """
    if dphi.entries.ndim < 2:
        raise DimensionError("expected a stacked velocity tuple (..., n_axes, k)")
    signs = _metric_signs(dphi.entries.shape[-2], metric)
    kinetic = np.einsum("m,...mj->...", signs, (dphi.entries.conj() * dphi.entries).real)
    norm2 = np.sum((phi.entries.conj() * phi.entries).real, axis=-1)
    return {
        "free": kinetic,
        "phi4": kinetic + 0.5 * (norm2 - 1.0) ** 2,
        "broken": kinetic + phi.entries[..., 0].real,
    }


# Nothing constructs this any more; it goes once the benchmark tracer drops it (ROADMAP item 2).
@dataclass(frozen=True)
class MinimallyCoupledDensity:
    """The ``matter_density`` named ``kind`` on (A, phi, dphi), with d replaced by D_A."""

    kind: str
    metric: str = "euclidean"

    def __call__(self, A: AlgebraElement, jm: JetMatter) -> np.ndarray:
        return matter_density(*covariant_derivative(A, jm), self.metric)[self.kind]


# ---------------------------------------------------------------------------
# gauge sector

def _curvature_quadratic(f: Curvature, metric: str) -> np.ndarray:
    pairs = curvature_pairs(f.n_axes)
    signs = _metric_signs(f.n_axes, metric)
    weights = np.array([signs[mu] * signs[nu] for mu, nu in pairs])
    return np.einsum("p,...p->...", weights, frobenius(f.comps) ** 2)


def gauge_density(jc: JetConnection, metric: str = "euclidean") -> dict:
    """The first-order gauge-field densities by name, from one field strength.

    ``yang_mills`` reads the connection jet only through its field strength;
    ``broken`` also reads the symmetric derivative and is the negative control.
    """
    quad = _curvature_quadratic(curvature(jc), metric)
    sym_term = np.sum(frobenius(sym(jc.dA)) ** 2, axis=(-2, -1))
    return {"yang_mills": quad / 2.0, "broken": (quad + sym_term) / 2.0}


__all__ = [
    "covariant_derivative",
    "matter_density",
    "MinimallyCoupledDensity",
    "gauge_density",
]
