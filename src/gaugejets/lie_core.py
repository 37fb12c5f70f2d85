"""Matrix Lie groups, Lie algebras, and their linear representation actions.

Conventions used throughout the package:

* Fiber data lives in the trailing axes of numpy arrays; any leading axes
  are batch axes (grid points, sample batches, component stacks).  All
  operations broadcast over batch axes.
* Group elements are unitary complex N x N matrices; the SU families are
  additionally special (det = 1).  Algebra elements are anti-hermitian,
  traceless for SU.
* The inner product on the algebra is <X, Y> = -tr(XY).  On anti-hermitian
  matrices this is positive definite and coincides with Re tr(X^dag Y), so
  the induced norm is the Frobenius norm.
"""

from __future__ import annotations

import enum
import operator
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

ATOL = 1e-12


class DimensionError(ValueError):
    """Mismatched group, representation, or tuple dimensions."""


class InvariantError(ValueError):
    """A value violates the structural invariants of its type."""


class GroupFamily(str, enum.Enum):
    U1 = "u1"
    SU2 = "su2"
    SU3 = "su3"
    SUN = "sun"


_FIXED_N = {GroupFamily.U1: 1, GroupFamily.SU2: 2, GroupFamily.SU3: 3}


@dataclass(frozen=True)
class GroupSpec:
    """Structure group plus the linear representation space it acts on.

    ``rep_dim`` selects the representation: equal to the matrix dimension N
    for the fundamental (defining) representation, equal to the algebra
    dimension for the adjoint.  For U(1) both dimensions are 1 and the
    fundamental (phase) action is used.
    """

    family: GroupFamily
    n: int = 0
    rep_dim: int = 0

    def __post_init__(self):
        family = GroupFamily(self.family)
        object.__setattr__(self, "family", family)
        try:
            n, rep_dim = operator.index(self.n), operator.index(self.rep_dim)
        except TypeError:
            raise DimensionError(
                f"n and rep_dim must be integers, got {self.n!r} and {self.rep_dim!r}"
            ) from None
        n = n or _FIXED_N.get(family, 0)
        if family in _FIXED_N and n != _FIXED_N[family]:
            raise DimensionError(f"{family.value} has fixed matrix dimension {_FIXED_N[family]}")
        if family is GroupFamily.SUN and n < 2:
            raise DimensionError("SU(N) requires N >= 2")
        object.__setattr__(self, "n", n)
        rep_dim = rep_dim or n
        if rep_dim < 1:
            raise DimensionError("rep_dim must be >= 1")
        if rep_dim not in (n, self.algebra_dim):
            raise DimensionError(
                f"rep_dim {rep_dim} selects neither the fundamental ({n}) "
                f"nor the adjoint ({self.algebra_dim}) representation"
            )
        object.__setattr__(self, "rep_dim", rep_dim)

    @property
    def is_special(self) -> bool:
        return self.family is not GroupFamily.U1

    @property
    def algebra_dim(self) -> int:
        if self.family is GroupFamily.U1:
            return 1
        return self.n * self.n - 1

    @property
    def rep_kind(self) -> str:
        # U(1) has n == algebra_dim == 1; the fundamental (phase) action wins.
        return "fundamental" if self.rep_dim == self.n else "adjoint"

    def label(self) -> str:
        return f"su({self.n})" if self.family is GroupFamily.SUN else self.family.value


def group_spec(name: str, n: int | None = None, rep_dim: int | None = None) -> GroupSpec:
    """Build a GroupSpec from a family name like 'u1', 'su2', 'su3', 'sun'."""
    return GroupSpec(GroupFamily(name.lower()), n or 0, rep_dim or 0)


# ---------------------------------------------------------------------------
# array helpers

def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes; batch axes survive."""
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def _c128(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _max_or_zero(a: np.ndarray) -> float:
    return float(np.max(a)) if a.size else 0.0


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of small N x N matrices on the trailing two axes.

    Batch axes broadcast.  The sum over the inner index runs as N steps,
    each vectorized over the whole batch, instead of one BLAS call per
    matrix as ``@`` makes on stacked inputs.  Conjugations, jet products
    and actions, brackets and curvature all go through this kernel.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def assert_unitary(m: np.ndarray, atol: float, special: bool) -> None:
    n = m.shape[-1]
    defect = _max_or_zero(frobenius(mm(dagger(m), m) - np.eye(n)))
    if defect > atol:
        raise InvariantError(f"matrix is not unitary to {atol:g} (defect {defect:.3e})")
    if special:
        det_defect = _max_or_zero(np.abs(np.linalg.det(m) - 1.0))
        if det_defect > atol:
            raise InvariantError(f"determinant differs from 1 by {det_defect:.3e}")


def assert_antihermitian(m: np.ndarray, atol: float, traceless: bool) -> None:
    defect = _max_or_zero(frobenius(dagger(m) + m))
    if defect > atol:
        raise InvariantError(f"matrix is not anti-hermitian to {atol:g} (defect {defect:.3e})")
    if traceless:
        tr = _max_or_zero(np.abs(np.trace(m, axis1=-2, axis2=-1)))
        if tr > atol:
            raise InvariantError(f"matrix has trace of magnitude {tr:.3e}")


def _check_matrix_shape(entries: np.ndarray, n: int, what: str) -> None:
    if entries.ndim < 2 or entries.shape[-1] != n or entries.shape[-2] != n:
        raise DimensionError(f"{what} must have trailing shape ({n}, {n}), got {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise InvariantError(f"{what} contains non-finite entries")


# ---------------------------------------------------------------------------
# fiber value types

@dataclass(frozen=True, eq=False)
class GroupElement:
    """One or more group elements; entries shaped (..., N, N)."""

    spec: GroupSpec
    entries: np.ndarray

    def __post_init__(self):
        entries = _c128(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_matrix_shape(entries, self.spec.n, "group element")
        assert_unitary(entries, ATOL, self.spec.is_special)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.entries.shape[:-2]

    def inverse(self) -> "GroupElement":
        # unitarity makes the conjugate transpose the exact inverse
        return _trusted(GroupElement, self.spec, dagger(self.entries))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One or more algebra elements; entries shaped (..., N, N).

    Connection components A_mu are stored as a single AlgebraElement whose
    axis -3 indexes mu.
    """

    spec: GroupSpec
    entries: np.ndarray

    def __post_init__(self):
        entries = _c128(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_matrix_shape(entries, self.spec.n, "algebra element")
        assert_antihermitian(entries, ATOL, self.spec.is_special)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.entries.shape[:-2]


def _check_vector(entries: np.ndarray, k: int, what: str) -> None:
    if entries.ndim < 1 or entries.shape[-1] != k:
        raise DimensionError(f"{what} must have trailing shape ({k},), got {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise InvariantError(f"{what} contains non-finite entries")


@dataclass(frozen=True, eq=False)
class RepVector:
    """Point of the representation space; entries shaped (..., k)."""

    spec: GroupSpec
    entries: np.ndarray

    def __post_init__(self):
        entries = _c128(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_vector(entries, self.spec.rep_dim, "representation vector")

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.entries.shape[:-1]


@dataclass(frozen=True, eq=False)
class RepTangent:
    """Tangent vector at a point of the (linear) representation space.

    Derivative tuples d_mu phi are stored with axis -2 indexing mu.
    """

    spec: GroupSpec
    entries: np.ndarray

    def __post_init__(self):
        entries = _c128(self.entries)
        object.__setattr__(self, "entries", entries)
        _check_vector(entries, self.spec.rep_dim, "representation tangent")

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.entries.shape[:-1]


def check_same_group(a, b) -> None:
    if a.spec.family is not b.spec.family or a.spec.n != b.spec.n:
        raise DimensionError(f"group mismatch: {a.spec.label()} vs {b.spec.label()}")


def _trusted(cls, *values):
    """Build a fiber value from its fields (complex128 arrays) without checks.

    Only for values that keep their structure by construction from checked
    inputs, and for finite-difference jets, which sit off the group and
    algebra by O(h^2).  Public constructors always check.
    """
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


# ---------------------------------------------------------------------------
# algebra basis

@lru_cache(maxsize=None)
def _basis_matrices(family: GroupFamily, n: int) -> np.ndarray:
    """Orthonormal basis of the algebra under <X, Y> = -tr(XY).

    Returned array has shape (dim, N, N).  For su(N): normalized real
    antisymmetric pairs, imaginary symmetric pairs, and imaginary diagonal
    traceless matrices; for u(1): the single element i.
    """
    if family is GroupFamily.U1:
        return np.array([[[1j]]], dtype=np.complex128)
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k], m[k, j] = 1.0, -1.0
            out.append(m / np.sqrt(2.0))
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k], m[k, j] = 1j, 1j
            out.append(m / np.sqrt(2.0))
    for l in range(1, n):
        d = np.zeros(n, dtype=np.complex128)
        d[:l] = 1j
        d[l] = -1j * l
        out.append(np.diag(d) / np.sqrt(l * (l + 1)))
    return np.stack(out)


def algebra_basis(spec: GroupSpec) -> np.ndarray:
    """Orthonormal algebra basis, shape (algebra_dim, N, N)."""
    return _basis_matrices(spec.family, spec.n)


def algebra_inner(x: AlgebraElement, y: AlgebraElement) -> np.ndarray:
    """<X, Y> = -tr(XY); real for anti-hermitian arguments."""
    check_same_group(x, y)
    return -np.einsum("...ij,...ji->...", x.entries, y.entries).real


def _coords(spec: GroupSpec, m: np.ndarray) -> np.ndarray:
    """Real basis coordinates -tr(T_a M) of (..., N, N) matrices, shape (..., dim)."""
    basis = algebra_basis(spec)
    return -np.tensordot(m, np.swapaxes(basis, -1, -2), axes=((-2, -1), (1, 2))).real


def algebra_coords(x: AlgebraElement) -> np.ndarray:
    """Real coordinates of X in the orthonormal basis, shape (..., dim)."""
    return _coords(x.spec, x.entries)


def algebra_from_coords(spec: GroupSpec, coords: np.ndarray) -> AlgebraElement:
    basis = algebra_basis(spec)
    entries = np.tensordot(np.asarray(coords, dtype=np.float64), basis, axes=(-1, 0))
    return AlgebraElement(spec, entries)


# ---------------------------------------------------------------------------
# group and algebra operations

def exp(x: AlgebraElement) -> GroupElement:
    """Matrix exponential of an algebra element.

    Anti-hermitian X is normal, so iX is hermitian and a unitary
    eigendecomposition gives exp(X) = V diag(exp(i lam)) V^dag to machine
    precision, batched over any leading axes.
    """
    lam, v = np.linalg.eigh(-1j * x.entries)
    phases = np.exp(1j * lam)
    entries = mm(v * phases[..., None, :], dagger(v))
    return _trusted(GroupElement, x.spec, entries)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    check_same_group(g, h)
    return _trusted(GroupElement, g.spec, mm(g.entries, h.entries))


def inverse(g: GroupElement) -> GroupElement:
    return g.inverse()


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Commutator [X, Y] = XY - YX."""
    check_same_group(x, y)
    entries = mm(x.entries, y.entries) - mm(y.entries, x.entries)
    return _trusted(AlgebraElement, x.spec, entries)


def ad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation g X g^dag on raw arrays, evaluated as (g X) g^dag.

    ``x`` may carry extra stack axes between the batch axes it shares with
    ``g`` and its trailing (N, N); g broadcasts over them.
    """
    extra = x.ndim - g.ndim
    gg = g.reshape(g.shape[:-2] + (1,) * extra + g.shape[-2:]) if extra > 0 else g
    return mm(mm(gg, x), dagger(gg))


def adjoint(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """Ad(g) X = g X g^{-1}, with g^{-1} = g^dag."""
    check_same_group(g, x)
    return _trusted(AlgebraElement, x.spec, ad(g.entries, x.entries))


def rep_matrix(g: GroupElement) -> np.ndarray:
    """Representation matrix R(g), shape (..., k, k); adjoint column b is Ad(g) T_b."""
    if g.spec.rep_kind == "fundamental":
        return g.entries
    cols = ad(g.entries[..., None, :, :], algebra_basis(g.spec))
    return np.swapaxes(_coords(g.spec, cols), -1, -2)


def rep_algebra_matrix(x: AlgebraElement) -> np.ndarray:
    """Infinitesimal representation matrix r(X) = dR(X); adjoint column b is [X, T_b]."""
    if x.spec.rep_kind == "fundamental":
        return x.entries
    xx, basis = x.entries[..., None, :, :], algebra_basis(x.spec)
    return np.swapaxes(_coords(x.spec, mm(xx, basis) - mm(basis, xx)), -1, -2)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The one product of a representation matrix and a vector.  Past their
    shared batch axes, either side may carry stack axes the other broadcasts over."""
    extra = (vec.ndim - 1) - (mat.ndim - 2)
    if extra > 0:
        mat = mat.reshape(mat.shape[:-2] + (1,) * extra + mat.shape[-2:])
    elif extra < 0:
        vec = vec.reshape(vec.shape[:-1] + (1,) * -extra + vec.shape[-1:])
    return np.einsum("...ij,...j->...i", mat, vec)


def rep_act(g: GroupElement, q: RepVector | RepTangent):
    """Linear action of g on the representation space (or its tangent)."""
    check_same_group(g, q)
    return _trusted(type(q), q.spec, _apply(rep_matrix(g), q.entries))


def fundamental_vector_field(x: AlgebraElement, q: RepVector) -> RepTangent:
    """Infinitesimal generator at q: d/dt|_0 of exp(tX) acting on q = r(X) q."""
    check_same_group(x, q)
    return _trusted(RepTangent, q.spec, _apply(rep_algebra_matrix(x), q.entries))


def tangent_act(
    g: GroupElement, x: AlgebraElement, q: RepVector, qdot: RepTangent
) -> tuple[RepVector, RepTangent]:
    """Action of the right-trivialized tangent-group pair (g, X) on (q, qdot).

    Returns (g.q, g.qdot + X_Q(g.q)); X is the right-trivialized velocity of
    a group curve through g.  Stacked X (..., n, N, N) and qdot (..., n, k)
    give the Leibniz rule of a gauge jet (g, a) on a matter jet.
    """
    check_same_group(g, q)
    r = rep_matrix(g)
    gq = _trusted(RepVector, q.spec, _apply(r, q.entries))
    moved = _apply(r, qdot.entries) + fundamental_vector_field(x, gq).entries
    return gq, _trusted(RepTangent, q.spec, moved)


# ---------------------------------------------------------------------------
# deterministic random sampling

def seeded_rng(seed: int, *labels) -> np.random.Generator:
    """Generator derived deterministically from a seed plus string/int labels."""
    keys = [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *keys]))


def random_algebra_entries(rng: np.random.Generator, spec: GroupSpec, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Random algebra elements with matrix entries bounded by 1, shape (*shape, N, N)."""
    dim = spec.algebra_dim
    coords = rng.uniform(-1.0, 1.0, size=(*shape, dim))
    entries = np.tensordot(coords, algebra_basis(spec), axes=(-1, 0))
    peak = np.max(np.abs(entries), axis=(-2, -1), keepdims=True)
    return entries / np.maximum(1.0, peak)


def random_algebra_element(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> AlgebraElement:
    rng = seeded_rng(seed, "algebra", spec.label())
    return AlgebraElement(spec, random_algebra_entries(rng, spec, shape))


def random_group_element(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> GroupElement:
    """exp of a bounded random algebra element; unitary by construction."""
    rng = seeded_rng(seed, "group", spec.label())
    return exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape)))


def random_rep_vector(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> RepVector:
    rng = seeded_rng(seed, "repvec", spec.label(), spec.rep_dim)
    k = spec.rep_dim
    entries = rng.uniform(-1, 1, (*shape, k)) + 1j * rng.uniform(-1, 1, (*shape, k))
    return RepVector(spec, entries)
