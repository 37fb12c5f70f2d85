"""First- and second-order jets of gauge transformations, matter, connections.

A gauge jet is stored right-trivialized: the value g, the logarithmic
derivative a_mu = (d_mu g) g^{-1}, and at second order the symmetrized
derivative s_munu = sym d_mu a_nu, one slot per pair mu <= nu in
lexicographic order (n(n+1)/2 slots, symmetric by construction; JGF1
stores the same layout).  The antisymmetric remainder of d a is not
independent data: it is fixed by the flatness identity
d_mu a_nu - d_nu a_mu = [a_mu, a_nu], so
d_mu a_nu = s_munu + (1/2) [a_mu, a_nu].

The group laws below are the closed forms obtained by differentiating the
pointwise product of group-valued fields once and twice; the test suite
validates them against finite differences of sampled fields:

    (g, a) (h, b)       = (g h, a_mu + Ad(g) b_mu)
    (g, a, s) (h, b, t) = (g h,
                           a_mu + Ad(g) b_mu,
                           s_munu + Ad(g) t_munu
                             + sym_munu [a_mu, Ad(g) b_nu])

The product sums s on the full (n, n) stack, where the bracket term is
not symmetric, and keeps each pair's symmetric part (``sym_pairs``).

A connection jet (A, dA) carries two kinds of derived data: the field
strength F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu], stored on the
strict upper triangle (empty when n = 1), and the symmetric part sym dA,
which second-order gauge jets can remove.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    Fiber,
    GroupElement,
    GroupSpec,
    RepVector,
    _check_potential,
    _trusted,
    ad,
    ad_stacks,
    check_same_group,
    dagger,
    frobenius,
    identities,
    mm,
    pair_products,
)
from .patch import Field, central_diff


# ---------------------------------------------------------------------------
# jet fiber types

class _Jet:
    """Jet types count their base axes by the ``n`` axis of their ``LAYOUT``."""

    @property
    def n_axes(self) -> int:
        name, axes = next((k, axes) for k, (axes, _) in self.LAYOUT.items() if "n" in axes)
        arr = getattr(self, name)
        return arr.shape[arr.ndim - len(axes) + axes.index("n")]


class _GaugeJet(_Jet):
    """Gauge jets carry the group value g as their first field."""

    def group_element(self) -> GroupElement:
        """g as one ``GroupElement`` per jet, so every action by it shares one R(g)."""
        return self.__dict__.setdefault("_group_element", _trusted(GroupElement, self.spec, self.g))

    @classmethod
    def _at(cls, g: GroupElement, *derivatives) -> "_GaugeJet":
        """An unchecked jet whose ``group_element()`` is g itself, so g and the
        jet share one R(g)."""
        jet = _trusted(cls, g.spec, g.entries, *derivatives)
        jet.__dict__["_group_element"] = g
        return jet


@dataclass(frozen=True, eq=False)
class Jet1Gauge(_GaugeJet, Fiber):
    """First-order gauge jet (g, a); g (..., N, N), a (..., n, N, N)."""

    spec: GroupSpec
    g: np.ndarray
    a: np.ndarray

    LAYOUT = {"g": (("N", "N"), "group"), "a": (("n", "N", "N"), "algebra")}


@dataclass(frozen=True, eq=False)
class Jet2Gauge(_GaugeJet, Fiber):
    """Second-order gauge jet (g, a, s); s (..., n(n+1)/2, N, N), s_munu for
    mu <= nu in lexicographic order."""

    spec: GroupSpec
    g: np.ndarray
    a: np.ndarray
    s: np.ndarray

    LAYOUT = {
        "g": (("N", "N"), "group"),
        "a": (("n", "N", "N"), "algebra"),
        "s": (("S", "N", "N"), "algebra"),
    }


@dataclass(frozen=True, eq=False)
class JetMatter(_Jet, Fiber):
    """Matter value with first derivatives: phi (..., k), dphi (..., n, k)."""

    spec: GroupSpec
    phi: np.ndarray
    dphi: np.ndarray

    LAYOUT = {"phi": (("k",), None), "dphi": (("n", "k"), None)}


@dataclass(frozen=True, eq=False)
class JetConnection(_Jet, Fiber):
    """Gauge potential with derivatives: A (..., n, N, N), dA (..., n, n, N, N).

    dA[..., mu, nu, :, :] holds d_mu A_nu.
    """

    spec: GroupSpec
    A: np.ndarray
    dA: np.ndarray

    LAYOUT = {"A": (("n", "N", "N"), "algebra"), "dA": (("n", "n", "N", "N"), "algebra")}

    def potential(self) -> AlgebraElement:
        return _trusted(AlgebraElement, self.spec, self.A)


def curvature_pairs(n: int) -> list[tuple[int, int]]:
    """Strict upper-triangle index pairs (mu, nu), mu < nu, lexicographic."""
    return [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]


@dataclass(frozen=True, eq=False)
class Curvature(Fiber):
    """Field strength 2-form, strict upper triangle: comps (..., P, N, N).

    P = n(n-1)/2 with pairs ordered by curvature_pairs(n); antisymmetry
    F_numu = -F_munu is structural.  For n = 1 there are no components.
    """

    spec: GroupSpec
    n_axes: int
    comps: np.ndarray

    LAYOUT = {"comps": (("P", "N", "N"), "algebra")}

    def _sizes(self, n: int | None = None) -> dict:
        """``Fiber._sizes`` and P = n(n-1)/2, n the ``n_axes`` field unless given."""
        n = self.n_axes if n is None else n
        return {**super()._sizes(n), "P": n * (n - 1) // 2}


# ---------------------------------------------------------------------------
# jets of sampled fields

def _require_field(f: Field, types, what: str):
    if not isinstance(f.value, types):
        raise TypeError(f"{what} expects a field of {types}, got {type(f.value).__name__}")
    return f.value


def _derivative(arr: np.ndarray, p, axis: int) -> np.ndarray:
    """Central differences along each patch axis, written into one zeroed stack on ``axis``:
    the one derivative of every finite-difference jet, whose values it leaves unchecked."""
    d = np.zeros(np.insert(arr.shape, arr.ndim + 1 + axis, p.dim), arr.dtype)
    for mu in range(p.dim):
        central_diff(arr, mu, p.spacing[mu], np.moveaxis(d, axis, 0)[mu])
    return d


def jet1_of(gfield: Field) -> Field:
    """First-order jet of a group-valued field via central differences.

    The derivative slot a_mu = (D_mu g) g^dag is off the algebra by O(h^2),
    so the result is built without structural checks.  Its
    ``group_element()`` is the field's value.
    """
    v = _require_field(gfield, GroupElement, "jet1_of")
    p = gfield.patch
    g = v.entries
    dg = _derivative(g, p, -3)
    a = mm(dg, dagger(g)[..., None, :, :])
    return Field(p, Jet1Gauge._at(v, a), margin=gfield.margin + 1)


def jet2_of(gfield: Field) -> Field:
    """Second-order jet: adds the symmetrized derivative of the a-field, packed."""
    jet1: Jet1Gauge = jet1_of(gfield).value
    s = sym_pairs(_derivative(jet1.a, gfield.patch, -4))
    jet = Jet2Gauge._at(jet1.group_element(), jet1.a, s)
    return Field(gfield.patch, jet, margin=gfield.margin + 2)


def jet_matter_of(phifield: Field) -> Field:
    """First-order jet (phi, d phi) of a sampled matter field."""
    v = _require_field(phifield, RepVector, "jet_matter_of")
    p = phifield.patch
    jet = _trusted(JetMatter, v.spec, v.entries, _derivative(v.entries, p, -2))
    return Field(p, jet, margin=phifield.margin + 1)


def jet_connection_of(afield: Field) -> Field:
    """First-order jet (A, dA) of a sampled gauge potential.

    Differencing algebra-valued data stays in the algebra up to roundoff,
    but the division by 2h amplifies that roundoff, so the jet is built
    without structural checks like every finite-difference jet.
    """
    v = _require_field(afield, AlgebraElement, "jet_connection_of")
    p = afield.patch
    _check_potential(v.entries, p.dim)
    jet = _trusted(JetConnection, v.spec, v.entries, _derivative(v.entries, p, -4))
    return Field(p, jet, margin=afield.margin + 1)


# ---------------------------------------------------------------------------
# jet group structure

def jet1_unit(spec: GroupSpec, n_axes: int, batch_shape: tuple[int, ...] = ()) -> Jet1Gauge:
    g = identities(spec.n, batch_shape)
    a = np.zeros(batch_shape + (n_axes, spec.n, spec.n), dtype=np.complex128)
    return _trusted(Jet1Gauge, spec, g, a)


def jet2_unit(spec: GroupSpec, n_axes: int, batch_shape: tuple[int, ...] = ()) -> Jet2Gauge:
    j1 = jet1_unit(spec, n_axes, batch_shape)
    s = np.zeros(batch_shape + (n_axes * (n_axes + 1) // 2, spec.n, spec.n), dtype=np.complex128)
    return _trusted(Jet2Gauge, spec, j1.g, j1.a, s)


def _check_jets(left, right) -> None:
    check_same_group(left, right)
    if left.n_axes != right.n_axes:
        raise DimensionError("jets have different numbers of base axes")


def jet1_mul(left: Jet1Gauge, right: Jet1Gauge) -> Jet1Gauge:
    """(g, a) (h, b) = (g h, a + Ad(g) b)."""
    _check_jets(left, right)
    g = mm(left.g, right.g)
    a = left.a + ad(left.g, right.a)
    return _trusted(Jet1Gauge, left.spec, g, a)


def jet1_inv(jet: Jet1Gauge) -> Jet1Gauge:
    """(g, a)^{-1} = (g^{-1}, -Ad(g^{-1}) a)."""
    ginv = dagger(jet.g)
    return _trusted(Jet1Gauge, jet.spec, ginv, -ad(ginv, jet.a))


def jet2_mul(left: Jet2Gauge, right: Jet2Gauge) -> Jet2Gauge:
    """Second-order product; see the module docstring for the closed form."""
    _check_jets(left, right)
    g = mm(left.g, right.g)
    adb, adt = ad_stacks(left.g, right.a, right.s)
    a = left.a + adb
    adt += left.s
    # unpacked and accumulated in place, so no more than a few s-sized
    # arrays live at once; each pair's symmetric part is kept
    s = _unpacked(adt, left.n_axes)
    del adt
    s += pair_products(left.a, adb)
    s -= pair_products(left.a, adb, reverse=True)
    return _trusted(Jet2Gauge, left.spec, g, a, sym_pairs(s))


def jet2_inv(jet: Jet2Gauge) -> Jet2Gauge:
    """(g, a, s)^{-1} = (g^{-1}, -Ad(g^{-1}) a, -Ad(g^{-1}) s)."""
    ginv = dagger(jet.g)
    # s before a, so a's result is not yet held while the temporaries of
    # s's ``ad`` steps live (su3, n = 2, 1000 points: 1.85 MB, not 2.14)
    s, a = ad_stacks(ginv, jet.s, jet.a)
    np.negative(a, out=a)
    np.negative(s, out=s)
    return _trusted(Jet2Gauge, jet.spec, ginv, a, s)


# ---------------------------------------------------------------------------
# connection jets: symmetric part and curvature

def sym(x: np.ndarray) -> np.ndarray:
    """Symmetric part in the two stack axes (mu, nu) of (..., n, n, N, N) data;
    exactly symmetric, and a symmetric x comes back bit for bit.  Halved in
    place, so only the sum is allocated."""
    out = x + np.swapaxes(x, -4, -3)
    out *= 0.5
    return out


def sym_pairs(x: np.ndarray) -> np.ndarray:
    """(x_munu + x_numu) / 2 of (..., n, n, N, N) data on the pairs mu <= nu,
    (..., n(n+1)/2, N, N) as s stacks them: the slots of ``sym``, with their
    bits, written row by row (mu, then every nu >= mu) into the result, so
    no other array of that size is made (two gathers ran 1.3x faster but
    lifted the peak of ``jet2_of`` from 2.01 to 2.50 times the full stack,
    su3 6^4, n = 4)."""
    n, start = x.shape[-3], 0
    out = np.empty(x.shape[:-4] + (n * (n + 1) // 2,) + x.shape[-2:], np.complex128)
    for mu in range(n):
        row = out[..., start : start + n - mu, :, :]
        np.add(x[..., mu, mu:, :, :], x[..., mu:, mu, :, :], out=row)
        start += n - mu
    out *= 0.5
    return out


def _unpacked(s: np.ndarray, n: int) -> np.ndarray:
    """The full (..., n, n, N, N) stack of a packed s, s_numu = s_munu: one
    gather (``np.take``), which ran at 1.4-2.3x the speed of copying the
    rows of s into place (su3, n = 2 to 4, 64 to 10^4 points, 2-vCPU Xeon)."""
    slot = np.empty((n, n), int)
    mu, nu = np.triu_indices(n)
    slot[mu, nu] = slot[nu, mu] = np.arange(len(mu))
    return np.take(s, slot, axis=-3)


def _antisym(x: np.ndarray) -> np.ndarray:
    """x_munu - x_numu of (..., n, n, N, N) data on the strict upper triangle,
    (..., P, N, N) in the order of ``curvature_pairs``; written pair by pair
    into the result, so no other P-sized array is made."""
    pairs = curvature_pairs(x.shape[-3])
    out = np.empty(x.shape[:-4] + (len(pairs),) + x.shape[-2:], np.complex128)
    for idx, (mu, nu) in enumerate(pairs):
        np.subtract(x[..., mu, nu, :, :], x[..., nu, mu, :, :], out=out[..., idx, :, :])
    return out


def curvature(jc: JetConnection) -> Curvature:
    """F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] on the strict upper triangle."""
    comps = _antisym(jc.dA)
    comps += _antisym(pair_products(jc.A, jc.A))
    return _trusted(Curvature, jc.spec, jc.n_axes, comps)


def maurer_cartan_defect(j1field: Field) -> Field:
    """Pointwise flatness defect d_mu a_nu - d_nu a_mu - [a_mu, a_nu].

    Zero to O(h^2) for jets of sampled group fields; returned as a scalar
    field of the max Frobenius norm over the n(n-1)/2 axis pairs.
    """
    jet = _require_field(j1field, Jet1Gauge, "maurer_cartan_defect")
    d = _antisym(_derivative(jet.a, j1field.patch, -4))
    d -= _antisym(pair_products(jet.a, jet.a))
    defect = np.max(frobenius(d), axis=-1, initial=0.0)
    return Field(j1field.patch, defect, margin=j1field.margin + 1)


__all__ = [
    "Jet1Gauge",
    "Jet2Gauge",
    "JetMatter",
    "JetConnection",
    "Curvature",
    "curvature_pairs",
    "jet1_of",
    "jet2_of",
    "jet_matter_of",
    "jet_connection_of",
    "jet1_unit",
    "jet2_unit",
    "jet1_mul",
    "jet1_inv",
    "jet2_mul",
    "jet2_inv",
    "sym",
    "sym_pairs",
    "curvature",
    "maurer_cartan_defect",
]
