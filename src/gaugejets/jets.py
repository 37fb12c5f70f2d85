"""First- and second-order jets of gauge transformations, matter, connections.

A gauge jet is stored right-trivialized: the value g, the logarithmic
derivative a_mu = (d_mu g) g^{-1}, and at second order the symmetrized
derivative s_munu = sym d_mu a_nu.  The antisymmetric remainder of d a is
not independent data: it is fixed by the flatness identity
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
    InvariantError,
    RepVector,
    _check_potential,
    _gemm_pays,
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

@dataclass(frozen=True, eq=False)
class Jet1Gauge(Fiber):
    """First-order gauge jet (g, a); g (..., N, N), a (..., n, N, N)."""

    spec: GroupSpec
    g: np.ndarray
    a: np.ndarray

    LAYOUT = {"g": (("N", "N"), "group"), "a": (("n", "N", "N"), "algebra")}

    @property
    def n_axes(self) -> int:
        return self.a.shape[-3]

    def group_element(self) -> GroupElement:
        return _trusted(GroupElement, self.spec, self.g)


@dataclass(frozen=True, eq=False)
class Jet2Gauge(Fiber):
    """Second-order gauge jet (g, a, s); s (..., n, n, N, N), s_munu = s_numu."""

    spec: GroupSpec
    g: np.ndarray
    a: np.ndarray
    s: np.ndarray

    LAYOUT = {
        "g": (("N", "N"), "group"),
        "a": (("n", "N", "N"), "algebra"),
        "s": (("n", "n", "N", "N"), "algebra"),
    }

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.s != np.swapaxes(self.s, -4, -3)):
            raise InvariantError("second-order component must be stored exactly symmetric")

    @property
    def n_axes(self) -> int:
        return self.a.shape[-3]

    def truncate(self) -> Jet1Gauge:
        return _trusted(Jet1Gauge, self.spec, self.g, self.a)

    def group_element(self) -> GroupElement:
        return _trusted(GroupElement, self.spec, self.g)

    def da(self) -> np.ndarray:
        """Full derivative of a, recovered from the flatness identity:
        d_mu a_nu = s_munu + (1/2) [a_mu, a_nu]."""
        aa = pair_products(self.a, self.a)
        comm = aa - np.swapaxes(aa, -4, -3)
        comm *= 0.5
        comm += self.s
        return comm


@dataclass(frozen=True, eq=False)
class JetMatter(Fiber):
    """Matter value with first derivatives: phi (..., k), dphi (..., n, k)."""

    spec: GroupSpec
    phi: np.ndarray
    dphi: np.ndarray

    LAYOUT = {"phi": (("k",), None), "dphi": (("n", "k"), None)}

    @property
    def n_axes(self) -> int:
        return self.dphi.shape[-2]


@dataclass(frozen=True, eq=False)
class JetConnection(Fiber):
    """Gauge potential with derivatives: A (..., n, N, N), dA (..., n, n, N, N).

    dA[..., mu, nu, :, :] holds d_mu A_nu.
    """

    spec: GroupSpec
    A: np.ndarray
    dA: np.ndarray

    LAYOUT = {"A": (("n", "N", "N"), "algebra"), "dA": (("n", "n", "N", "N"), "algebra")}

    @property
    def n_axes(self) -> int:
        return self.A.shape[-3]

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

    def _sizes(self) -> dict:
        return {**super()._sizes(), "P": self.n_axes * (self.n_axes - 1) // 2}


# ---------------------------------------------------------------------------
# jets of sampled fields

def _require_field(f: Field, types, what: str):
    if not isinstance(f.value, types):
        raise TypeError(f"{what} expects a field of {types}, got {type(f.value).__name__}")
    return f.value


def jet1_of(gfield: Field) -> Field:
    """First-order jet of a group-valued field via central differences.

    The derivative slot a_mu = (D_mu g) g^dag is off the algebra by O(h^2),
    so the result is built without structural checks.
    """
    v = _require_field(gfield, GroupElement, "jet1_of")
    p = gfield.patch
    g = v.entries
    dg = np.stack([central_diff(g, mu, p.spacing[mu]) for mu in range(p.dim)], axis=-3)
    a = mm(dg, dagger(g)[..., None, :, :])
    jet = _trusted(Jet1Gauge, v.spec, g, a)
    return Field(p, jet, margin=gfield.margin + 1)


def jet2_of(gfield: Field) -> Field:
    """Second-order jet: adds the symmetrized derivative of the a-field."""
    j1field = jet1_of(gfield)
    jet1: Jet1Gauge = j1field.value
    jet = _trusted(Jet2Gauge, jet1.spec, jet1.g, jet1.a, sym(_da(j1field)))
    return Field(gfield.patch, jet, margin=gfield.margin + 2)


def jet_matter_of(phifield: Field) -> Field:
    """First-order jet (phi, d phi) of a sampled matter field."""
    v = _require_field(phifield, RepVector, "jet_matter_of")
    p = phifield.patch
    dphi = np.stack(
        [central_diff(v.entries, mu, p.spacing[mu]) for mu in range(p.dim)], axis=-2
    )
    jet = JetMatter(v.spec, v.entries, dphi)
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
    dA = np.stack(
        [central_diff(v.entries, mu, p.spacing[mu]) for mu in range(p.dim)], axis=-4
    )
    jet = _trusted(JetConnection, v.spec, v.entries, dA)
    return Field(p, jet, margin=afield.margin + 1)


def _da(j1field: Field) -> np.ndarray:
    """d_mu a_nu of a first-jet field, (..., n, n, N, N): the connection-jet
    derivative of its a-field, valid one layer inside the jet's margin."""
    jet = j1field.value
    afield = j1field.with_value(_trusted(AlgebraElement, jet.spec, jet.a))
    return jet_connection_of(afield).value.dA


# ---------------------------------------------------------------------------
# jet group structure

def jet1_unit(spec: GroupSpec, n_axes: int, batch_shape: tuple[int, ...] = ()) -> Jet1Gauge:
    g = identities(spec.n, batch_shape)
    a = np.zeros(batch_shape + (n_axes, spec.n, spec.n), dtype=np.complex128)
    return _trusted(Jet1Gauge, spec, g, a)


def jet2_unit(spec: GroupSpec, n_axes: int, batch_shape: tuple[int, ...] = ()) -> Jet2Gauge:
    j1 = jet1_unit(spec, n_axes, batch_shape)
    s = np.zeros(batch_shape + (n_axes, n_axes, spec.n, spec.n), dtype=np.complex128)
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


def _ad_jet(g: np.ndarray, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ad(g) a and Ad(g) s of (..., n, N, N) data and exactly symmetric
    (..., n, n, N, N) data; s comes back exactly symmetric by construction.

    On the ``mm`` path (``_gemm_pays``) only the n(n+1)/2 slots mu <= nu
    are conjugated, one row mu at a time, and each row is copied into both
    (mu, nu) and (nu, mu) of one new array.  On the GEMM path a and all n^2
    slots of s share one K(g) (``ad_stacks``), and each slot mu < nu is then
    copied over (nu, mu).  The full stack is read in place; a packed copy of
    the slots mu <= nu would live beside its GEMM result and K(g), which
    peaked at 2.13 s.nbytes against 1.88 in ``jet2_inv`` (su3, n = 4) and
    was no faster.
    """
    n = s.shape[-3]
    if _gemm_pays(g.shape[-1], n + n * n):
        ada, out = ad_stacks(g, a, s)
        mu, nu = np.triu_indices(n, 1)
        out[..., nu, mu, :, :] = out[..., mu, nu, :, :]
        return ada, out
    rows = [ad(g, s[..., mu, mu:, :, :]) for mu in range(n)]
    out = np.empty(rows[0].shape[:-3] + s.shape[-4:], np.complex128)
    for mu, row in enumerate(rows):
        out[..., mu, mu:, :, :] = row
        out[..., mu + 1:, mu, :, :] = row[..., 1:, :, :]
    del rows, row
    return ad(g, a), out


def jet2_mul(left: Jet2Gauge, right: Jet2Gauge) -> Jet2Gauge:
    """Second-order product; see the module docstring for the closed form."""
    _check_jets(left, right)
    g = mm(left.g, right.g)
    adb, s = _ad_jet(left.g, right.a, right.s)
    a = left.a + adb
    # Accumulated in place, so no more than a few s-sized arrays live at
    # once; symmetrized once, by ``sym``, so s is exactly symmetric in
    # (mu, nu), as the Jet2Gauge constructor requires.
    s += left.s
    s += pair_products(left.a, adb)
    s -= pair_products(left.a, adb, reverse=True)
    return _trusted(Jet2Gauge, left.spec, g, a, sym(s))


def jet2_inv(jet: Jet2Gauge) -> Jet2Gauge:
    """(g, a, s)^{-1} = (g^{-1}, -Ad(g^{-1}) a, -Ad(g^{-1}) s)."""
    ginv = dagger(jet.g)
    a, s = _ad_jet(ginv, jet.a, jet.s)
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


def curvature(jc: JetConnection) -> Curvature:
    """F_munu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] on the strict upper triangle."""
    n = jc.n_axes
    pairs = curvature_pairs(n)
    nn = jc.spec.n
    comps = np.zeros(jc.batch_shape + (len(pairs), nn, nn), dtype=np.complex128)
    for idx, (mu, nu) in enumerate(pairs):
        amu = jc.A[..., mu, :, :]
        anu = jc.A[..., nu, :, :]
        comps[..., idx, :, :] = (
            jc.dA[..., mu, nu, :, :] - jc.dA[..., nu, mu, :, :] + mm(amu, anu) - mm(anu, amu)
        )
    return _trusted(Curvature, jc.spec, n, comps)


def maurer_cartan_defect(j1field: Field) -> Field:
    """Pointwise flatness defect d_mu a_nu - d_nu a_mu - [a_mu, a_nu].

    Zero to O(h^2) for jets of sampled group fields; returned as a scalar
    field of the max Frobenius norm over the n(n-1)/2 axis pairs.
    """
    jet = _require_field(j1field, Jet1Gauge, "maurer_cartan_defect")
    p = j1field.patch
    da = _da(j1field)
    defect = np.zeros(p.extent)
    for mu, nu in curvature_pairs(p.dim):
        amu = jet.a[..., mu, :, :]
        anu = jet.a[..., nu, :, :]
        d = da[..., mu, nu, :, :] - da[..., nu, mu, :, :] - (mm(amu, anu) - mm(anu, amu))
        np.maximum(defect, frobenius(d), out=defect)
    return Field(p, defect, margin=j1field.margin + 1)


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
    "curvature",
    "maurer_cartan_defect",
]
