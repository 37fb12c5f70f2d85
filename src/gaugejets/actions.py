"""Local action laws of gauge jets on matter, connections, and curvature.

All operations act on a single fiber and broadcast over batch axes, so
lifting to sampled fields is just applying the op to grid-batched values.
The connection transformation is the familiar affine law

    (g, a) . A_mu = Ad(g) A_mu - a_mu,        a_mu = (d_mu g) g^{-1},

and its once-differentiated form, written with the stored symmetrized
second derivative s and the flatness identity d_mu a_nu = s_munu
+ (1/2)[a_mu, a_nu]:

    ((g, a, s) . (A, dA))_munu = Ad(g) dA_munu + [a_mu, Ad(g) A_nu]
                                 - s_munu - (1/2) [a_mu, a_nu].

Antisymmetrizing the right-hand side cancels every s term and reproduces
conjugation of the field strength, F -> g F g^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    RepTangent,
    RepVector,
    _trusted,
    ad,
    check_same_group,
    frobenius,
    mm,
    rep_act,
    tangent_act,
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
    split_jet_connection,
)


def act_matter(g: GroupElement, phi: RepVector) -> RepVector:
    """Pointwise matter transformation phi -> g . phi."""
    return rep_act(g, phi)


def act_variation(g: GroupElement, v: Variation) -> Variation:
    """Variations transform linearly, like vertical tangent vectors."""
    check_same_group(g, v)
    moved = rep_act(g, RepTangent(v.spec, v.dphi))
    return Variation(v.spec, moved.entries)


def act_jet_matter(jet: Jet1Gauge, jm: JetMatter) -> JetMatter:
    """Leibniz rule, the tangent-group action of (g, a): g.phi, g.(d_mu phi) + a_mu.(g.phi)."""
    check_same_group(jet, jm)
    if jet.n_axes != jm.n_axes:
        raise DimensionError("jet and matter jet have different base dimensions")
    a, phi = _trusted(AlgebraElement, jet.spec, jet.a), _trusted(RepVector, jm.spec, jm.phi)
    q, qdot = tangent_act(jet.group_element(), a, phi, _trusted(RepTangent, jm.spec, jm.dphi))
    return _trusted(JetMatter, jm.spec, q.entries, qdot.entries)


def act_connection(jet: Jet1Gauge, A: AlgebraElement) -> AlgebraElement:
    """Affine gauge-potential transformation Ad(g) A_mu - a_mu."""
    check_same_group(jet, A)
    if A.entries.ndim < 3 or A.entries.shape[-3] != jet.n_axes:
        raise DimensionError("gauge potential must stack components on axis -3")
    return _trusted(AlgebraElement, A.spec, ad(jet.g, A.entries) - jet.a)


def act_jet_connection(jet: Jet2Gauge, jc: JetConnection) -> JetConnection:
    """Transform (A, dA) by a second-order jet; see the module docstring.

    The A slot matches act_connection of the truncated jet, and the
    antisymmetrized dA slot realizes conjugation of the curvature.
    """
    check_same_group(jet, jc)
    if jet.n_axes != jc.n_axes:
        raise DimensionError("jet and connection jet have different base dimensions")
    adA = ad(jet.g, jc.A)
    A_out = adA - jet.a
    addA = ad(jet.g, jc.dA)
    am, an = jet.a[..., :, None, :, :], adA[..., None, :, :, :]
    cross = mm(am, an) - mm(an, am)
    dA_out = addA + cross - jet.da()
    return _trusted(JetConnection, jc.spec, A_out, dA_out)


def act_curvature(g: GroupElement, f: Curvature) -> Curvature:
    """Field strength transforms by conjugation, componentwise."""
    check_same_group(g, f)
    return _trusted(Curvature, f.spec, f.n_axes, ad(g.entries, f.comps))


# ---------------------------------------------------------------------------
# fiber transitivity witnesses

@dataclass(frozen=True, eq=False)
class TransitivityWitness:
    """A jet that gauges connection data to the normal form at a fiber.

    ``residual`` is the per-point Frobenius norm (summed over components)
    of the parts the jet is supposed to kill.
    """

    jet: Jet1Gauge | Jet2Gauge
    residual: np.ndarray
    transformed: JetConnection | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(np.asarray(self.residual) < 0):
            raise ValueError("residual norms cannot be negative")


def gauge_to_zero_jet1(A: AlgebraElement) -> TransitivityWitness:
    """First-order witness (g = 1, a = A): the transformed potential vanishes.

    The cancellation Ad(1) A - A = 0 is algebraically exact; the residual
    is reported for verification.
    """
    eye = np.broadcast_to(
        np.eye(A.spec.n, dtype=np.complex128),
        A.entries.shape[:-3] + (A.spec.n, A.spec.n),
    ).copy()
    jet = _trusted(Jet1Gauge, A.spec, eye, A.entries)
    transformed = act_connection(jet, A)
    residual = np.sum(frobenius(transformed.entries), axis=-1)
    return TransitivityWitness(jet=jet, residual=residual)


def gauge_to_zero_jet2(jc: JetConnection) -> TransitivityWitness:
    """Second-order witness (g = 1, a = A, s = sym dA).

    The transformed potential and the symmetric part of the transformed
    derivative vanish; the antisymmetric part equals half the field
    strength, which the curvature map sends to F itself.
    """
    sym, _ = split_jet_connection(jc)
    eye = np.broadcast_to(
        np.eye(jc.spec.n, dtype=np.complex128),
        jc.batch_shape + (jc.spec.n, jc.spec.n),
    ).copy()
    jet = _trusted(Jet2Gauge, jc.spec, eye, jc.A, sym)
    transformed = act_jet_connection(jet, jc)
    sym_out, _ = split_jet_connection(transformed)
    residual = np.sum(frobenius(transformed.A), axis=-1) + np.sum(
        frobenius(sym_out), axis=(-2, -1)
    )
    return TransitivityWitness(jet=jet, residual=residual, transformed=transformed)


def curvature_equivariance_defect(jet: Jet2Gauge, jc: JetConnection) -> np.ndarray:
    """Per-sample norm of curvature(jet . jc) - g . curvature(jc)."""
    left = curvature(act_jet_connection(jet, jc))
    right = act_curvature(jet.group_element(), curvature(jc))
    if not curvature_pairs(jc.n_axes):
        return np.zeros(jc.batch_shape)
    return np.max(frobenius(left.comps - right.comps), axis=-1)


__all__ = [
    "act_matter",
    "act_variation",
    "act_jet_matter",
    "act_connection",
    "act_jet_connection",
    "act_curvature",
    "TransitivityWitness",
    "gauge_to_zero_jet1",
    "gauge_to_zero_jet2",
    "curvature_equivariance_defect",
]
