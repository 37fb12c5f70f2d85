"""Closed-form field families with exact jets.

Built-in families:

* constant group elements;
* single-generator fields exp(f(x) X) with f polynomial (degree <= 2) or
  sinusoidal and X a fixed algebra element -- all values commute, so
  a_mu = (d_mu f) X and s_munu = (d_mu d_nu f) X exactly;
* pointwise products of up to three single-generator/constant factors,
  whose jets are composed with the exact jet product, giving non-abelian
  test data without symbolic differentiation;
* plane-wave matter fields and polynomial/sinusoidal gauge potentials.

Exact jets are valid at every grid point (margin 0), so the
finite-difference pipeline can be checked against them independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    GroupSpec,
    RepVector,
    _trusted,
    exp,
    random_algebra_entries,
)
from .jets import Jet2Gauge, JetConnection, JetMatter, jet2_mul
from .patch import Field, Patch


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

    def evaluate(self, x: np.ndarray):
        n = x.shape[-1]
        c1 = np.zeros(n) if not self.c1 else np.asarray(self.c1, dtype=float)
        c2 = np.zeros((n, n)) if not len(self.c2) else np.asarray(self.c2, dtype=float)
        c2 = 0.5 * (c2 + c2.T)
        value = self.c0 + x @ c1 + 0.5 * np.einsum("...i,ij,...j->...", x, c2, x)
        grad = c1 + np.einsum("ij,...j->...i", c2, x)
        hess = np.broadcast_to(c2, x.shape[:-1] + (n, n))
        return value, grad, hess


@dataclass(frozen=True)
class Sinusoid:
    """amp * sin(k . x + phase)."""

    amp: float
    wave: tuple[float, ...]
    phase: float = 0.0

    def evaluate(self, x: np.ndarray):
        k = np.asarray(self.wave, dtype=float)
        arg = x @ k + self.phase
        value = self.amp * np.sin(arg)
        grad = self.amp * np.cos(arg)[..., None] * k
        hess = -value[..., None, None] * np.outer(k, k)
        return value, grad, hess


# ---------------------------------------------------------------------------
# gauge transformation families

@dataclass(frozen=True)
class ConstantGauge:
    g0: np.ndarray  # (N, N) unitary


@dataclass(frozen=True)
class SingleGenerator:
    fn: Polynomial | Sinusoid
    generator: np.ndarray  # (N, N) algebra element


@dataclass(frozen=True)
class ProductGauge:
    factors: tuple


@dataclass(frozen=True)
class GaugeSample:
    """Sampled group field plus its exact first- and second-order jets."""

    values: Field  # Field[GroupElement]
    jet1: Field  # Field[Jet1Gauge]
    jet2: Field  # Field[Jet2Gauge]


def _sample_factor_jet2(patch: Patch, spec: GroupSpec, factor) -> Jet2Gauge:
    # the descriptor's (N, N) matrix is checked; the grid inherits its structure
    n = patch.dim
    nn = spec.n
    if isinstance(factor, ConstantGauge):
        g0 = GroupElement(spec, factor.g0).entries
        g = np.broadcast_to(g0, patch.extent + (nn, nn)).copy()
        a = np.zeros(patch.extent + (n, nn, nn), dtype=np.complex128)
        s = np.zeros(patch.extent + (n, n, nn, nn), dtype=np.complex128)
        return _trusted(Jet2Gauge, spec, g, a, s)
    if isinstance(factor, SingleGenerator):
        gen = AlgebraElement(spec, factor.generator).entries
        value, grad, hess = factor.fn.evaluate(patch.coords())
        g = exp(_trusted(AlgebraElement, spec, value[..., None, None] * gen)).entries
        a = grad[..., :, None, None] * gen
        s = hess[..., :, :, None, None] * gen
        return _trusted(Jet2Gauge, spec, g, a, s)
    raise UnknownFamilyError(f"unknown gauge factor {type(factor).__name__}")


def sample_gauge(patch: Patch, spec: GroupSpec, family) -> GaugeSample:
    """Sample a gauge transformation family together with its exact jets."""
    if isinstance(family, (ConstantGauge, SingleGenerator)):
        factors = (family,)
    elif isinstance(family, ProductGauge):
        factors = tuple(family.factors)
        if not 1 <= len(factors) <= 3:
            raise UnknownFamilyError("products support 1 to 3 factors")
    else:
        raise UnknownFamilyError(f"unknown gauge family {type(family).__name__}")
    jet = _sample_factor_jet2(patch, spec, factors[0])
    for factor in factors[1:]:
        jet = jet2_mul(jet, _sample_factor_jet2(patch, spec, factor))
    gfield = Field(patch, jet.group_element())
    j1 = Field(patch, jet.truncate())
    j2 = Field(patch, jet)
    return GaugeSample(values=gfield, jet1=j1, jet2=j2)


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


def sample_matter(patch: Patch, spec: GroupSpec, family: PlaneWaveMatter) -> MatterSample:
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
    values = Field(patch, RepVector(spec, phi))
    jet = Field(patch, JetMatter(spec, phi, dphi))
    return MatterSample(values=values, jet=jet)


@dataclass(frozen=True)
class CoefficientConnection:
    """A_mu(x) = sum_a fns[mu][a](x) T_a over the orthonormal algebra basis."""

    fns: tuple[tuple, ...]  # [n_axes][algebra_dim] scalar functions


@dataclass(frozen=True)
class ConnectionSample:
    values: Field  # Field[AlgebraElement], components on axis -3
    jet: Field  # Field[JetConnection]


def sample_connection(patch: Patch, spec: GroupSpec, family: CoefficientConnection) -> ConnectionSample:
    from .lie_core import algebra_basis

    if not isinstance(family, CoefficientConnection):
        raise UnknownFamilyError(f"unknown connection family {type(family).__name__}")
    n = patch.dim
    dim = spec.algebra_dim
    if len(family.fns) != n or any(len(row) != dim for row in family.fns):
        raise DimensionError("connection family needs n_axes x algebra_dim coefficients")
    basis = algebra_basis(spec)
    x = patch.coords()
    nn = spec.n
    A = np.zeros(patch.extent + (n, nn, nn), dtype=np.complex128)
    dA = np.zeros(patch.extent + (n, n, nn, nn), dtype=np.complex128)
    for nu in range(n):
        for a_idx in range(dim):
            value, grad, _ = family.fns[nu][a_idx].evaluate(x)
            A[..., nu, :, :] += value[..., None, None] * basis[a_idx]
            dA[..., :, nu, :, :] += grad[..., :, None, None] * basis[a_idx]
    jet = JetConnection(spec, A, dA)
    return ConnectionSample(values=Field(patch, jet.potential()), jet=Field(patch, jet))


# ---------------------------------------------------------------------------
# seeded random families for the harness

def _random_scalar_fn(rng: np.random.Generator, n: int, scale: float, wave_scale: float = 1.0):
    if rng.uniform() < 0.5:
        c1 = tuple(rng.uniform(-scale, scale, n))
        c2 = rng.uniform(-scale, scale, (n, n))
        c2 = 0.5 * (c2 + c2.T)
        return Polynomial(float(rng.uniform(-scale, scale)), c1, tuple(map(tuple, c2)))
    wave = tuple(rng.uniform(-1.5 * wave_scale, 1.5 * wave_scale, n))
    return Sinusoid(float(rng.uniform(0.2, 1.0) * scale), wave, float(rng.uniform(0, 2 * np.pi)))


def random_gauge_family(
    rng: np.random.Generator,
    spec: GroupSpec,
    n: int,
    factors: int = 2,
    scale: float = 1.0,
    wave_scale: float = 1.0,
) -> ProductGauge:
    """Product of bounded single-generator factors; non-abelian for N >= 2.

    ``wave_scale`` caps the sinusoid frequencies: product families stack
    their factors' frequencies, and the finite-difference error constant
    grows with the fourth power of the total.  Generators are normalized
    to unit Frobenius norm so error constants do not grow with the matrix
    dimension; the coefficient functions carry the amplitude.
    """
    parts = []
    for _ in range(max(1, min(3, factors))):
        gen = random_algebra_entries(rng, spec)
        gen = gen / np.sqrt(np.sum(np.abs(gen) ** 2))
        parts.append(SingleGenerator(_random_scalar_fn(rng, n, scale, wave_scale), gen))
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
    rng: np.random.Generator, spec: GroupSpec, n: int, scale: float = 1.0, wave_scale: float = 1.0
) -> CoefficientConnection:
    fns = tuple(
        tuple(_random_scalar_fn(rng, n, scale, wave_scale) for _ in range(spec.algebra_dim))
        for _ in range(n)
    )
    return CoefficientConnection(fns)


__all__ = [
    "UnknownFamilyError",
    "Polynomial",
    "Sinusoid",
    "ConstantGauge",
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
