"""Closed-form field families with exact jets.

Built-in families:

* single-generator factors exp(f(x) X) with f polynomial (degree <= 2) or
  sinusoidal and X a fixed algebra element -- all values commute, so
  a_mu = (d_mu f) X and s_munu = (d_mu d_nu f) X exactly, s for mu <= nu
  as ``Jet2Gauge`` stores it;
* gauge families: ``ProductGauge``s, pointwise products of one to three
  such factors, whose jets have a closed form in the conjugated
  generators and their brackets (see ``GaugeSample``), giving non-abelian
  test data without symbolic differentiation;
* plane-wave matter fields and polynomial/sinusoidal gauge potentials.

Exact jets are valid at every grid point (margin 0), so the
finite-difference pipeline can be checked against them independently, and
a sampler given the ``Points`` of a region samples those points alone.

Every sampler checks its family when called and builds its grids
unchecked: a non-finite sample is named by the suite that reads it.  The
gauge and connection samplers build each order (the values, the first
jet, the second jet) on first read: a caller that reads only a low order
never pays for a higher one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    GroupSpec,
    RepVector,
    _trusted,
    ad,
    algebra_basis,
    bracket,
    exp,
    mm,
    random_algebra_entries,
)
from .jets import Jet1Gauge, Jet2Gauge, JetConnection, JetMatter
from .patch import Field, Patch, Points, point_blocks


class UnknownFamilyError(ValueError):
    """Descriptor is not one of the built-in analytic families."""


# ---------------------------------------------------------------------------
# scalar coefficient functions with exact derivatives

@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 . x + (1/2) x . c2 . x with symmetric quadratic part."""

    c0: float = 0.0
    c1: tuple[float, ...] = ()
    c2: tuple[tuple[float, ...], ...] = ()

    def evaluate(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """The value at x (..., n), then the gradient and hessian up to ``order``;
        the hessian (..., n(n+1)/2) on the pairs mu <= nu, as ``Jet2Gauge.s``."""
        n = x.shape[-1]
        c1 = np.zeros(n) if not self.c1 else np.asarray(self.c1, dtype=float)
        c2 = np.zeros((n, n)) if not len(self.c2) else np.asarray(self.c2, dtype=float)
        c2 = 0.5 * (c2 + c2.T)
        out = [self.c0 + x @ c1 + 0.5 * np.einsum("...i,ij,...j->...", x, c2, x)]
        if order:
            out.append(c1 + np.einsum("ij,...j->...i", c2, x))
        if order > 1:
            mu, nu = np.triu_indices(n)
            out.append(np.broadcast_to(c2[mu, nu], x.shape[:-1] + mu.shape))
        return out


@dataclass(frozen=True)
class Sinusoid:
    """amp * sin(k . x + phase)."""

    amp: float
    wave: tuple[float, ...]
    phase: float = 0.0

    def evaluate(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """As ``Polynomial.evaluate``: the value, then derivatives up to ``order``."""
        k = np.asarray(self.wave, dtype=float)
        arg = x @ k + self.phase
        out = [self.amp * np.sin(arg)]
        if order:
            out.append(self.amp * np.cos(arg)[..., None] * k)
        if order > 1:
            mu, nu = np.triu_indices(len(k))
            out.append(-out[0][..., None] * (k[mu] * k[nu]))
        return out


# ---------------------------------------------------------------------------
# gauge transformation families

@dataclass(frozen=True)
class SingleGenerator:
    fn: Polynomial | Sinusoid
    generator: np.ndarray  # (N, N) algebra element


@dataclass(frozen=True)
class ProductGauge:
    factors: tuple


def _combine(shape: tuple[int, ...], terms) -> np.ndarray:
    """sum_t c_t Y_t of real coefficients c_t (..., m) and algebra elements
    Y_t (..., N, N) or (N, N), written once into a new complex array of
    ``shape`` (..., m, N, N).

    c_t multiplies the (re, im) pairs of Y_t on the float64 views, never
    promoted to complex, in blocks of points (``point_blocks``) through one
    reused scratch block.  Each entry is the same sum, in term order, with
    the bits of one complex product per term where Y_t is finite.
    """
    out = np.zeros(shape, dtype=np.complex128)
    rows, nn = shape[-3:-1]
    flat = out.reshape((-1, rows, nn, nn)).view(np.float64)  # (P, m, N, 2N)
    npts, pairs = flat.shape[0], []
    for c, y in terms:
        ys = y.entries.reshape((-1, 1, nn, nn)).view(np.float64)
        pairs.append((c.reshape((npts, rows, 1, 1)), np.broadcast_to(ys, (npts,) + ys.shape[1:])))
    blocks = point_blocks(npts, flat[0].nbytes)
    scratch = np.empty((blocks[0].stop,) + flat.shape[1:])
    for block in blocks:
        dst = flat[block]
        for c, ys in pairs:
            dst += np.multiply(c[block], ys[block], out=scratch[: len(dst)])
    return out


@dataclass(frozen=True, eq=False)
class GaugeSample:
    """Sampled group field plus its exact first- and second-order jets.

    ``values`` (Field[GroupElement]), ``jet1`` (Field[Jet1Gauge]) and
    ``jet2`` (Field[Jet2Gauge]) are each built on first read and then
    cached, in closed form.  For g = g_1 ... g_k with g_i = exp(f_i X_i),
    and Y_i = Ad(g_1 ... g_{i-1}) X_i,

        a_mu   = sum_i d_mu f_i Y_i
        s_munu = sum_i d_mu d_nu f_i Y_i
                 + sum_{i<j} sym(d_mu f_i d_nu f_j) [Y_i, Y_j],   mu <= nu.

    g is the ``mm`` fold of the factor values, each ``exp`` taken per point:
    one eigendecomposition shared by all points of a factor would repeat
    the same roundoff at every point, and action integrals would sum it
    coherently.  Every generator is conjugated once and every pair
    bracketed once, the brackets only for ``jet2``; no derivative beyond
    the order asked for is formed, and a and s are written once
    (``_combine``), s only for mu <= nu, as ``Jet2Gauge`` stores it.
    ``_orders`` forms g and a by the same operations whatever the order, so
    the three agree bit for bit; ``values`` read after ``jet1`` is cut from
    it.  Only the checked descriptors are kept between reads.
    """

    patch: Patch | Points
    spec: GroupSpec
    factors: tuple  # checked SingleGenerator descriptors

    def _orders(self, order: int) -> list[np.ndarray]:
        """g, then a and s up to ``order``, of the product of the factors."""
        n, nn = self.patch.dim, self.spec.n
        x = self.patch.coords()
        g, terms = None, []  # terms: (Y_i, d f_i[, dd f_i]) per factor
        for factor in self.factors:
            f, *derivs = factor.fn.evaluate(x, order)
            value = exp(_trusted(AlgebraElement, self.spec, f[..., None, None] * factor.generator)).entries
            if order:
                y = factor.generator if g is None else ad(g, factor.generator)
                terms.append((_trusted(AlgebraElement, self.spec, y), *derivs))
            g = value if g is None else mm(g, value)
        if not order:
            return [g]
        a = _combine(self.patch.extent + (n, nn, nn), ((grad, y) for y, grad, *_ in terms))
        if order == 1:
            return [g, a]
        mu, nu = np.triu_indices(n)
        brackets = [
            (0.5 * (gi[..., mu] * gj[..., nu] + gi[..., nu] * gj[..., mu]), bracket(yi, yj))
            for (yi, gi, _), (yj, gj, _) in itertools.combinations(terms, 2)
        ]
        hessians = [(hess, y) for y, _, hess in terms]
        s = _combine(self.patch.extent + (len(mu), nn, nn), hessians + brackets)
        return [g, a, s]

    @cached_property
    def jet2(self) -> Field:
        return Field(self.patch, _trusted(Jet2Gauge, self.spec, *self._orders(2)))

    @cached_property
    def jet1(self) -> Field:
        return Field(self.patch, _trusted(Jet1Gauge, self.spec, *self._orders(1)))

    @cached_property
    def values(self) -> Field:
        if "jet1" in self.__dict__:
            return Field(self.patch, self.jet1.value.group_element())
        return Field(self.patch, _trusted(GroupElement, self.spec, *self._orders(0)))


def _checked_factor(spec: GroupSpec, factor):
    # the descriptor's (N, N) matrix is checked; the grid inherits its structure
    if isinstance(factor, SingleGenerator):
        return SingleGenerator(factor.fn, AlgebraElement(spec, factor.generator).entries)
    raise UnknownFamilyError(f"unknown gauge factor {type(factor).__name__}")


def sample_gauge(patch: Patch | Points, spec: GroupSpec, family) -> GaugeSample:
    """Sample a gauge transformation family together with its exact jets.

    The family and each descriptor are checked here; the grids of each
    order are built when the sample's attribute is first read.
    """
    if not isinstance(family, ProductGauge):
        raise UnknownFamilyError(f"unknown gauge family {type(family).__name__}")
    factors = tuple(family.factors)
    if not 1 <= len(factors) <= 3:
        raise UnknownFamilyError("products support 1 to 3 factors")
    return GaugeSample(patch, spec, tuple(_checked_factor(spec, f) for f in factors))


# ---------------------------------------------------------------------------
# matter and connection families

@dataclass(frozen=True)
class PlaneWaveMatter:
    """Components amps_j * exp(i (waves_j . x + phases_j))."""

    amps: tuple[complex, ...]
    waves: tuple[tuple[float, ...], ...]
    phases: tuple[float, ...]


@dataclass(frozen=True)
class MatterSample:
    values: Field  # Field[RepVector]
    jet: Field  # Field[JetMatter]


def sample_matter(patch: Patch | Points, spec: GroupSpec, family: PlaneWaveMatter) -> MatterSample:
    if not isinstance(family, PlaneWaveMatter):
        raise UnknownFamilyError(f"unknown matter family {type(family).__name__}")
    k = spec.rep_dim
    if not (len(family.amps) == len(family.waves) == len(family.phases) == k):
        raise DimensionError("matter family needs one amp/wave/phase per component")
    x = patch.coords()
    waves = np.asarray(family.waves, dtype=float)  # (k, n)
    amps = np.asarray(family.amps, dtype=np.complex128)
    phases = np.asarray(family.phases, dtype=float)
    arg = np.einsum("...m,jm->...j", x, waves) + phases
    phi = amps * np.exp(1j * arg)
    dphi = 1j * np.einsum("jm,...j->...mj", waves, phi)
    jet = _trusted(JetMatter, spec, phi, dphi)
    return MatterSample(Field(patch, _trusted(RepVector, spec, phi)), Field(patch, jet))


@dataclass(frozen=True)
class CoefficientConnection:
    """A_mu(x) = sum_a fns[mu][a](x) T_a over the orthonormal algebra basis."""

    fns: tuple[tuple, ...]  # [n_axes][algebra_dim] scalar functions


@dataclass(frozen=True, eq=False)
class ConnectionSample:
    """Sampled gauge potential and its exact first-order jet.

    ``values`` (Field[AlgebraElement], components on axis -3) and ``jet``
    (Field[JetConnection]) are each built on first read and then cached;
    ``_slots`` forms A by the same operations for both.  A real
    combination of the checked basis is anti-hermitian entry by entry, so
    the grids are built unchecked: a check could fail only on the rounded
    trace, which grows with the coefficients (far from the origin).
    """

    patch: Patch | Points
    spec: GroupSpec
    family: CoefficientConnection

    def _slots(self, order: int) -> list[np.ndarray]:
        """A, and dA when ``order`` is 1, from the coefficients in the orthonormal basis.

        Each component nu is one real contraction of its coefficients (and
        gradients) with the basis, read as real and imaginary parts; per
        component, so no complex copy of the whole coefficient stack is made.
        """
        n, nn, x = self.patch.dim, self.spec.n, self.patch.coords()
        basis = algebra_basis(self.spec)
        d = len(basis)
        parts = basis.view(np.float64).reshape(d, 2 * nn * nn)

        def entries(c):  # sum_a c_a T_a of real coefficients (..., d)
            return (c @ parts).view(np.complex128).reshape(c.shape[:-1] + (nn, nn))

        A = np.empty(self.patch.extent + (n, nn, nn), dtype=np.complex128)
        dA = np.empty(self.patch.extent + (n, n, nn, nn), dtype=np.complex128) if order else None
        coeffs = np.empty(self.patch.extent + (d,))
        grads = np.empty(self.patch.extent + (n, d)) if order else None
        for nu, row in enumerate(self.family.fns):
            for a_idx, fn in enumerate(row):
                for slot, derivative in zip((coeffs, grads), fn.evaluate(x, order)):
                    slot[..., a_idx] = derivative
            A[..., nu, :, :] = entries(coeffs)
            if order:
                dA[..., :, nu, :, :] = entries(grads)
        return [A, dA] if order else [A]

    @cached_property
    def jet(self) -> Field:
        return Field(self.patch, _trusted(JetConnection, self.spec, *self._slots(1)))

    @cached_property
    def values(self) -> Field:
        return Field(self.patch, _trusted(AlgebraElement, self.spec, *self._slots(0)))


def sample_connection(patch: Patch | Points, spec: GroupSpec, family: CoefficientConnection) -> ConnectionSample:
    """Sample a connection family; its grids are built when first read."""
    if not isinstance(family, CoefficientConnection):
        raise UnknownFamilyError(f"unknown connection family {type(family).__name__}")
    if len(family.fns) != patch.dim or any(len(row) != spec.algebra_dim for row in family.fns):
        raise DimensionError("connection family needs n_axes x algebra_dim coefficients")
    return ConnectionSample(patch, spec, family)


# ---------------------------------------------------------------------------
# seeded random families for the harness

def _random_scalar_fn(rng: np.random.Generator, n: int, scale: float):
    if rng.uniform() < 0.5:
        c1 = tuple(rng.uniform(-scale, scale, n))
        c2 = rng.uniform(-scale, scale, (n, n))
        c2 = 0.5 * (c2 + c2.T)
        return Polynomial(float(rng.uniform(-scale, scale)), c1, tuple(map(tuple, c2)))
    wave = tuple(rng.uniform(-1.5 * scale, 1.5 * scale, n))
    return Sinusoid(float(rng.uniform(0.2, 1.0) * scale), wave, float(rng.uniform(0, 2 * np.pi)))


def random_gauge_family(
    rng: np.random.Generator,
    spec: GroupSpec,
    n: int,
    factors: int = 2,
    scale: float = 1.0,
) -> ProductGauge:
    """Product of bounded single-generator factors; non-abelian for N >= 2.

    ``scale`` also caps the sinusoid frequencies, at 1.5 * scale: product
    families stack their factors' frequencies, and the finite-difference
    error constant grows with the fourth power of the total.  Generators
    are normalized to unit Frobenius norm so error constants do not grow
    with the matrix dimension; the coefficient functions carry the amplitude.
    """
    parts = []
    for _ in range(max(1, min(3, factors))):
        gen = random_algebra_entries(rng, spec)
        gen = gen / np.sqrt(np.sum(np.abs(gen) ** 2))
        parts.append(SingleGenerator(_random_scalar_fn(rng, n, scale), gen))
    return ProductGauge(tuple(parts))


def random_matter_family(
    rng: np.random.Generator, spec: GroupSpec, n: int, scale: float = 1.0, wave_scale: float = 1.0
) -> PlaneWaveMatter:
    k = spec.rep_dim
    amps = tuple(
        complex(a, b) for a, b in zip(rng.uniform(-scale, scale, k), rng.uniform(-scale, scale, k))
    )
    waves = tuple(tuple(rng.uniform(-1.5 * wave_scale, 1.5 * wave_scale, n)) for _ in range(k))
    phases = tuple(rng.uniform(0, 2 * np.pi, k))
    return PlaneWaveMatter(amps, waves, phases)


def random_connection_family(
    rng: np.random.Generator, spec: GroupSpec, n: int, scale: float = 1.0
) -> CoefficientConnection:
    fns = tuple(
        tuple(_random_scalar_fn(rng, n, scale) for _ in range(spec.algebra_dim))
        for _ in range(n)
    )
    return CoefficientConnection(fns)


__all__ = [
    "UnknownFamilyError",
    "Polynomial",
    "Sinusoid",
    "SingleGenerator",
    "ProductGauge",
    "GaugeSample",
    "sample_gauge",
    "PlaneWaveMatter",
    "MatterSample",
    "sample_matter",
    "CoefficientConnection",
    "ConnectionSample",
    "sample_connection",
    "random_gauge_family",
    "random_matter_family",
    "random_connection_family",
]
