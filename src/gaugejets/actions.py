"""Local action laws of gauge jets on matter jets, connections, and curvature.

All operations act on a single fiber and broadcast over batch axes, so
lifting to sampled fields is just applying the op to grid-batched values.
Matter values and their variations (vertical vectors of the same vector
bundle) transform by the one linear action ``lie_core.rep_act``.
The connection transformation is the familiar affine law

    (g, a) . A_mu = Ad(g) A_mu - a_mu,        a_mu = (d_mu g) g^{-1},

and its once-differentiated form, Ad(g) dA_munu + [a_mu, Ad(g) A_nu]
- d_mu a_nu.  With the stored symmetrized second derivative s and the
flatness identity d_mu a_nu = s_munu + (1/2)[a_mu, a_nu], both brackets
fold into one:

    ((g, a, s) . (A, dA))_munu = Ad(g) dA_munu
                                 + [a_mu, Ad(g) A_nu - (1/2) a_nu] - s_munu.

Antisymmetrizing the right-hand side cancels every s term and reproduces
conjugation of the field strength, F -> g F g^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie_core import (
    AlgebraElement,
    GroupElement,
    RepVector,
    _check_potential,
    _trusted,
    ad,
    ad_stacks,
    check_same_group,
    frobenius,
    identities,
    pair_products,
    tangent_act,
)
from .jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    _check_jets,
    _unpacked,
    sym,
    sym_pairs,
)


def act_jet_matter(jet: Jet1Gauge, jm: JetMatter) -> JetMatter:
    """Leibniz rule, the tangent-group action of (g, a): g.phi, g.(d_mu phi) + a_mu.(g.phi)."""
    _check_jets(jet, jm)
    a, phi = _trusted(AlgebraElement, jet.spec, jet.a), _trusted(RepVector, jm.spec, jm.phi)
    q, qdot = tangent_act(jet.group_element(), a, phi, _trusted(RepVector, jm.spec, jm.dphi))
    return _trusted(JetMatter, jm.spec, q.entries, qdot.entries)


def act_connection(jet: Jet1Gauge, A: AlgebraElement) -> AlgebraElement:
    """Affine gauge-potential transformation Ad(g) A_mu - a_mu."""
    check_same_group(jet, A)
    _check_potential(A.entries, jet.n_axes)
    return _trusted(AlgebraElement, A.spec, ad(jet.g, A.entries) - jet.a)


def act_jet_connection(jet: Jet2Gauge, jc: JetConnection) -> JetConnection:
    """Transform (A, dA) by a second-order jet; see the module docstring.

    The A slot matches act_connection of the truncated jet, and the
    antisymmetrized dA slot realizes conjugation of the curvature.
    """
    _check_jets(jet, jc)
    adA, dA_out = ad_stacks(jet.g, jc.A, jc.dA)
    A_out = adA - jet.a
    # the one bracket [a_mu, Ad(g) A_nu - a_nu / 2], accumulated into Ad(g) dA in place
    half = adA - 0.5 * jet.a
    dA_out += pair_products(jet.a, half)
    dA_out -= pair_products(jet.a, half, reverse=True)
    dA_out -= _unpacked(jet.s, jet.n_axes)
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

    ``transformed`` is the connection data the jet moves there, and
    ``residual`` the per-point Frobenius norm (summed over components) of
    the parts the jet is supposed to kill.
    """

    jet: Jet1Gauge | Jet2Gauge
    residual: np.ndarray
    transformed: AlgebraElement | JetConnection = field(repr=False)


def gauge_to_zero_jet1(A: AlgebraElement) -> TransitivityWitness:
    """First-order witness (g = 1, a = A): the transformed potential vanishes.

    The cancellation Ad(1) A - A = 0 is algebraically exact; the residual
    is reported for verification.
    """
    eye = identities(A.spec.n, A.entries.shape[:-3])
    jet = _trusted(Jet1Gauge, A.spec, eye, A.entries)
    transformed = act_connection(jet, A)
    residual = np.sum(frobenius(transformed.entries), axis=-1)
    return TransitivityWitness(jet=jet, residual=residual, transformed=transformed)


def gauge_to_zero_jet2(jc: JetConnection) -> TransitivityWitness:
    """Second-order witness (g = 1, a = A, s = sym dA).

    The transformed potential and the symmetric part of the transformed
    derivative vanish; the antisymmetric part equals half the field
    strength, which the curvature map sends to F itself.
    """
    eye = identities(jc.spec.n, jc.batch_shape)
    jet = _trusted(Jet2Gauge, jc.spec, eye, jc.A, sym_pairs(jc.dA))
    transformed = act_jet_connection(jet, jc)
    residual = np.sum(frobenius(transformed.A), axis=-1) + np.sum(
        frobenius(sym(transformed.dA)), axis=(-2, -1)
    )
    return TransitivityWitness(jet=jet, residual=residual, transformed=transformed)


__all__ = [
    "act_jet_matter",
    "act_connection",
    "act_jet_connection",
    "act_curvature",
    "TransitivityWitness",
    "gauge_to_zero_jet1",
    "gauge_to_zero_jet2",
]
