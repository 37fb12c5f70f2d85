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
import math
import operator
import zlib
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

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


def identities(n: int, batch_shape: tuple[int, ...]) -> np.ndarray:
    """A writable batch of N x N identity matrices, shape (*batch_shape, N, N)."""
    return np.broadcast_to(np.eye(n, dtype=np.complex128), batch_shape + (n, n)).copy()


def _max(a: np.ndarray) -> float:
    """The largest entry of ``a``, or 0.0 when it is empty."""
    return float(np.max(a)) if a.size else 0.0


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of small N x N matrices on the trailing two axes.

    Batch axes broadcast.  The sum over the inner index runs as N steps,
    each vectorized over the whole batch, instead of one BLAS call per
    matrix as ``@`` makes on stacked inputs.  Every fiber-matrix product
    goes through this kernel except the pair products of jet stacks
    (``pair_products``) and the conjugation of large stacks (``ad_stacks``,
    ``GEMM_MIN_STACK``), which take one GEMM per point, and the adjoint R(g),
    which forms only the products here with no exact zero (``rep_matrix``);
    the adjoint r(X) is a contraction with the structure constants.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def assert_finite(m: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(m)):
        raise InvariantError(f"{what} contains non-finite entries")


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def assert_unitary(m: np.ndarray, atol: float, special: bool) -> None:
    """Defect ||m^dag m - 1||_F, built row by row over the upper triangle of
    the hermitian m^dag m; an entry off the diagonal counts for its mirror too."""
    n = m.shape[-1]
    sq = np.zeros(m.shape[:-2])
    for i in range(n):
        row = np.conj(m[..., 0, i, None]) * m[..., 0, i:]
        for k in range(1, n):
            row += np.conj(m[..., k, i, None]) * m[..., k, i:]
        row[..., 0] -= 1.0
        row = _abs2(row)
        sq += row[..., 0] + 2.0 * np.sum(row[..., 1:], axis=-1)
    defect = float(np.sqrt(_max(sq)))
    if defect > atol:
        raise InvariantError(f"matrix is not unitary to {atol:g} (defect {defect:.3e})")
    if special:
        det_defect = _max(np.abs(np.linalg.det(m) - 1.0))
        if det_defect > atol:
            raise InvariantError(f"determinant differs from 1 by {det_defect:.3e}")


def assert_antihermitian(m: np.ndarray, atol: float, traceless: bool) -> None:
    """Each matrix's defect ||m^dag + m||_F, and |tr m| when ``traceless``,
    judged against atol * max(1, ||m||_F) of that matrix, so ``atol`` keeps
    its meaning up to unit norm.  The defect is summed over the pairs i <= j
    of the hermitian m^dag + m into one real array of batch shape; the norms
    are taken only when some defect exceeds ``atol`` itself, since below
    that every matrix passes at any norm.

    Why a valid matrix passes at any scale: let X = sum_a c_a T_a with real
    c_a, formed entry by entry in any order (absent terms add exact zeros).
    Off the diagonal, the pair (j, k), (k, j) takes one real term from the
    antisymmetric T (entries +-r) and one imaginary term from the symmetric
    T (entries i r, i r), which round alike, so X_kj = -conj(X_jk) bit for
    bit; the diagonal is imaginary.  The defect is thus exactly 0.  Only the
    trace rounds.  With u = eps / 2 and gamma_k = k u / (1 - k u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3): each diagonal
    T_l holds i d_j / s_l, s_l = sqrt(l (l + 1)), sum_j d_j = 0 and
    sum_j |d_j| / s_l < 2, so its rounded trace is below 2 gamma_2; each X_jj
    sums at most N - 1 products, within gamma_N sum_l |c_l| |T_l[j, j]|; and
    ``np.trace`` adds gamma_(N-1) sum_j |X_jj|.  With sum_l |c_l| and
    sum_j |X_jj| at most sqrt(N) ||X||_F, to first order
        |tr fl(X)| <= (3N + 3) u sqrt(N) ||X||_F,
    5.7e-15 ||X||_F for su(6), and under 1e-12 ||X||_F up to N = 207.
    """
    n = m.shape[-1]
    sq = np.zeros(m.shape[:-2])
    for i in range(n):
        for j in range(i, n):
            sq += (1.0 if i == j else 2.0) * _abs2(m[..., i, j] + np.conj(m[..., j, i]))
    tr = np.abs(np.trace(m, axis1=-2, axis2=-1)) if traceless else np.zeros_like(sq)
    defect, trace = float(np.sqrt(_max(sq))), _max(tr)
    if max(defect, trace) > atol:
        scale = np.maximum(1.0, frobenius(m))
        defect, trace = _max(np.sqrt(sq) / scale), _max(tr / scale)
    if defect > atol:
        raise InvariantError(
            f"matrix is not anti-hermitian to {atol:g} of max(1, |m|) (defect {defect:.3e})"
        )
    if trace > atol:
        raise InvariantError(f"matrix has trace of magnitude {trace:.3e} of max(1, |m|)")


# ---------------------------------------------------------------------------
# fiber value types

class Fiber:
    """Base of the fiber value types: one layout declaration per type.

    ``LAYOUT`` maps each array field, in field order, to (trailing axes,
    invariant).  Axis symbols: ``N`` = ``spec.n``, ``k`` = ``spec.rep_dim``,
    ``n`` = the number of base axes, bound where it first occurs, and
    ``S`` = n(n+1)/2, the pairs mu <= nu; a type supplies any other symbol
    through ``_sizes``.  The invariant is ``"group"`` (unitary, special for
    SU), ``"algebra"`` (anti-hermitian, traceless for SU) or None.  The
    leading axes are batch axes, shared by every field.  The constructor converts each field to complex128, then
    checks trailing sizes and batch shape (``DimensionError``), finiteness,
    and the invariants (``InvariantError``).
    """

    LAYOUT = {}

    def _sizes(self, n: int | None = None) -> dict:
        """The size of each axis symbol; those of ``n`` and ``S`` given n."""
        sizes = {"N": self.spec.n, "k": self.spec.rep_dim}
        return sizes if n is None else {**sizes, "n": n, "S": n * (n + 1) // 2}

    def __post_init__(self):
        sizes, batch, what = self._sizes(), None, type(self).__name__
        for name, (axes, _) in self.LAYOUT.items():
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, arr)
            lead = arr.ndim - len(axes)
            if "n" in axes and "n" not in sizes and lead >= 0:
                sizes = self._sizes(arr.shape[lead + axes.index("n")])
            want = tuple(sizes.get(a) for a in axes)
            if lead < 0 or arr.shape[lead:] != want:
                raise DimensionError(f"{what}.{name} must end in {want}, got {arr.shape}")
            if batch is None:
                batch = arr.shape[:lead]
            elif arr.shape[:lead] != batch:
                raise DimensionError(
                    f"{what}.{name} has batch shape {arr.shape[:lead]}, expected {batch}"
                )
        for name in self.LAYOUT:
            assert_finite(getattr(self, name), f"{what}.{name}")
        for name, (_, invariant) in self.LAYOUT.items():
            if invariant == "group":
                assert_unitary(getattr(self, name), ATOL, self.spec.is_special)
            elif invariant == "algebra":
                assert_antihermitian(getattr(self, name), ATOL, self.spec.is_special)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        name, (axes, _) = next(iter(self.LAYOUT.items()))
        arr = getattr(self, name)
        return arr.shape[: arr.ndim - len(axes)]


def distance(x: Fiber, y: Fiber) -> np.ndarray:
    """Largest deviation between two values of one fiber type, per batch point.

    Matrix fields contribute the Frobenius norm of each matrix, vector
    fields the modulus of each entry; the maximum runs over every other
    trailing axis and every field, and is 0 over empty stacks.
    """
    out = np.zeros(x.batch_shape)
    for name, (axes, _) in x.LAYOUT.items():
        diff = getattr(x, name) - getattr(y, name)
        if axes[-2:] == ("N", "N"):
            diff, axes = frobenius(diff), axes[:-2]
        else:
            diff = np.abs(diff)
        out = np.maximum(out, np.max(diff, axis=tuple(range(-len(axes), 0)), initial=0.0))
    return out


@dataclass(frozen=True, eq=False)
class GroupElement(Fiber):
    """One or more group elements; entries shaped (..., N, N)."""

    spec: GroupSpec
    entries: np.ndarray

    LAYOUT = {"entries": (("N", "N"), "group")}

    @cached_property
    def _adjoint(self) -> np.ndarray:
        # R(g): Ad(g) T_b sums, in ascending m, (column j of g) T_b[j, m] conj(column m of g)^T
        j, m, t, starts = _basis_nonzeros(self.spec.family, self.spec.n)
        n, dim = self.spec.n, self.spec.algebra_dim
        gc = np.ascontiguousarray(self.entries.reshape((-1, n, n)).transpose(2, 1, 0))  # [j, i, p]
        left, right = (gc[j] * t[:, None, None])[:, :, None, :], np.conj(gc[m])[:, None, :, :]
        cols, ends = left[:dim] * right[:dim], np.cumsum([dim - start for start in starts])
        for start, lo, hi in zip(starts[1:], ends, ends[1:]):  # slot by slot
            cols[start:] += left[lo:hi] * right[lo:hi]
        del left, right  # before the contraction copies cols: a smaller peak
        cols = np.moveaxis(cols, -1, 0).reshape(self.batch_shape + (dim, n, n))
        return _read_only(np.swapaxes(_coords(self.spec, cols), -1, -2))


@dataclass(frozen=True, eq=False)
class AlgebraElement(Fiber):
    """One or more algebra elements; entries shaped (..., N, N).

    Connection components A_mu are stored as a single AlgebraElement whose
    axis -3 indexes mu.
    """

    spec: GroupSpec
    entries: np.ndarray

    LAYOUT = {"entries": (("N", "N"), "algebra")}


@dataclass(frozen=True, eq=False)
class RepVector(Fiber):
    """Vector of the (linear) representation space, entries (..., k); so are its
    tangent vectors: variations, and derivative tuples d_mu phi (axis -2 is mu)."""

    spec: GroupSpec
    entries: np.ndarray

    LAYOUT = {"entries": (("k",), None)}


def check_same_group(a, b) -> None:
    if a.spec.family is not b.spec.family or a.spec.n != b.spec.n:
        raise DimensionError(f"group mismatch: {a.spec.label()} vs {b.spec.label()}")


def _check_potential(A: np.ndarray, n: int) -> None:
    """A gauge potential stacks its n components on axis -3 (see ``AlgebraElement``)."""
    if A.ndim < 3 or A.shape[-3] != n:
        raise DimensionError(f"gauge potential must stack {n} components on axis -3, got {A.shape}")


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

def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _basis_matrices(family: GroupFamily, n: int) -> np.ndarray:
    """Orthonormal basis of the algebra under <X, Y> = -tr(XY).

    Returned array has shape (dim, N, N) and is read-only, since every
    caller shares it.  For su(N): normalized real antisymmetric pairs,
    imaginary symmetric pairs, and imaginary diagonal traceless matrices;
    for u(1): the single element i.
    """
    if family is GroupFamily.U1:
        return _read_only(np.array([[[1j]]], dtype=np.complex128))
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
    return _read_only(np.stack(out))


@lru_cache(maxsize=None)
def _basis_nonzeros(family: GroupFamily, n: int) -> tuple:
    """The nonzeros t = T_b[j, m] of the basis as flat j, m, t, slot by slot: slot s holds the
    s-th, in ascending m, of each T_b with b >= starts[s] (the diagonal T_b, listed last)."""
    basis = _basis_matrices(family, n)
    per_b = [np.nonzero(t.T)[::-1] for t in basis]  # (j, m) of each T_b, in ascending m
    bjm, starts = [], []
    for s in range(max(len(j) for j, _ in per_b)):
        starts.append(next(b for b, (j, _) in enumerate(per_b) if len(j) > s))
        bjm += [(b, j[s], m[s]) for b, (j, m) in enumerate(per_b) if b >= starts[-1]]
    b, j, m = _read_only(np.array(bjm)).T
    return j, m, _read_only(basis[b, j, m]), tuple(starts)


@lru_cache(maxsize=None)
def _structure_constants(family: GroupFamily, n: int) -> np.ndarray:
    """Real structure constants f[c, a, b] = coords_a([T_c, T_b]), shape (dim, dim, dim).

    Read-only like the basis.  Stored as the antisymmetric part in (c, b),
    so f[b, :, c] == -f[c, :, b] holds bit for bit.
    """
    basis = _basis_matrices(family, n)
    (products,) = pair_products(basis[None], basis[None])  # [c, b] = T_c T_b
    f = np.swapaxes(_coords(GroupSpec(family, n), products - np.swapaxes(products, 0, 1)), 1, 2)
    return _read_only(np.ascontiguousarray(0.5 * (f - np.swapaxes(f, 0, 2))))


def algebra_basis(spec: GroupSpec) -> np.ndarray:
    """Orthonormal algebra basis, shape (algebra_dim, N, N); read-only."""
    return _basis_matrices(spec.family, spec.n)


def structure_constants(spec: GroupSpec) -> np.ndarray:
    """Structure constants f[c, a, b] of the orthonormal basis, shape
    (algebra_dim,) * 3: [T_c, T_b] = sum_a f[c, a, b] T_a; read-only."""
    return _structure_constants(spec.family, spec.n)


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
    """Matrix exponential of an algebra element, evaluated point by point.

    The method follows the matrix size N of ``x``.  Nothing is shared
    between points, so each point carries its own roundoff, and a matrix
    that is not finite comes back NaN on every path.  nu = ||X||_F.

    * N = 1, u(1): X = i t and exp(X) = exp(i t), elementwise.
    * N = 2, su(2), Rodrigues: X^2 = -r^2 1 with r^2 = nu^2 / 2, so
      exp(X) = cos r 1 + (sin r / r) X, with sin r / r = 1 at r = 0.
    * N = 3, su(3), Cayley-Hamilton (Morningstar and Peardon,
      hep-lat/0311018): Q = -iX is hermitian and traceless, with
      c0 = det Q = -Im tr(X^3) / 3 and c1 = tr(Q^2) / 2 = nu^2 / 2, and
      exp(X) = f0 1 + f1 Q + f2 Q^2 = f0 1 - i f1 X - f2 X^2.  The f_j are
      rational in exp(2iu), exp(-iu), cos w and xi0(w) = sin w / w, where
      Q has eigenvalues 2u and -u +- w: u = sqrt(c1 / 3) cos(theta / 3),
      w = sqrt(c1) sin(theta / 3).  xi0 is a series below w = 0.05.  For
      c0 < 0 the f_j come from -c0, as f_j(-c0) = (-1)^j conj(f_j(c0)).
      Below c1 = eps^2 they take their Q -> 0 limits (1, i, -1/2), where
      the series of exp agrees to far below one rounding, so exp(0) is the
      identity bit for bit.  theta is atan2(sqrt(c0max^2 - c0^2), |c0|),
      c0max = 2 (c1 / 3)^(3/2), not arccos(c0 / c0max): near a double
      eigenvalue the arccos errs by O(sqrt(eps)), which leaves w^2 off by
      eps c1, a unitarity defect of order eps nu^2.  c0max^2 - c0^2 is the
      discriminant over 27, and the discriminant is the Gram determinant
      of (1, Q, Q^2), 3 ||Q||_F^2 ||R||_F^2, where
      R = Q^2 - (2 c1 / 3) 1 - (3 c0 / (2 c1)) Q is the part of Q^2 off
      the span of 1 and Q.  Formed entrywise, R gives w to eps nu.
    * N >= 4: the unitary eigendecomposition of the hermitian -iX,
      exp(X) = V diag(exp(i lam)) V^dag (``_exp_eigh``).

    Error budget, to first order, with gamma_k = k e / (1 - k e) for the
    unit roundoff e = eps / 2.  su(3) dominates; u(1) and su(2) take
    shorter paths of the same kinds.  The result is p(Q), p the quadratic
    through exp(i x) at the computed eigenvalues ("nodes").
    (a) The nodes come from c0, c1 and R through at most 16 roundings, each
    relative to a quantity of size nu, nu^2 or nu^3, so each node is within
    gamma_16 nu of its eigenvalue.  At a node a quadratic interpolant has
    p' = [x0, x1] + [x0, x2] - [x1, x2] (nodes in a suitable order), and
    every first divided difference of exp(i x) has modulus at most 1, so
    |p'| <= 3.  Each eigenvalue of p(Q) then misses exp(i lam) by at most
    4 gamma_16 nu, which is 4 sqrt(3) gamma_16 nu in Frobenius norm.
    (b) Each of the terms f0 1, f1 Q, f2 Q^2 passes through at most 14
    roundings: its h_j, the division, the product with Q^j (``mm`` forms
    Q^2 within gamma_5) and the sum.  The terms can cancel, so each is
    charged at its size.  The denominator 9u^2 - w^2 is at least 2 c1
    (theta / 3 lies in [0, pi / 6]) and ||Q^2||_F <= nu^2, so the sizes
    total at most
        sqrt(3) (1.84 + 0.41 nu) + (1.7 + nu / 2) + (2 + 1.3 nu) < 6.9 (1 + nu).
    The error is thus at most (4 sqrt(3) gamma_16 + 6.9 gamma_14) (1 + nu),
    below C = 110 eps (1 + nu).  The unitarity defect ||E^dag E - 1||_F is
    then at most 2C, and |det E - 1| at most sqrt(3) C.
    """
    m = x.entries
    n = m.shape[-1]
    if n == 1:
        entries = np.exp(1j * m.imag)
    elif n == 2:
        entries = _exp_su2(m)
    elif n == 3:
        entries = _exp_su3(m)
    else:
        entries = _exp_eigh(m)
    return _trusted(GroupElement, x.spec, entries)


def _exp_eigh(m: np.ndarray) -> np.ndarray:
    """exp(X) = V diag(exp(i lam)) V^dag from the eigendecomposition of -iX;
    batched LAPACK, one decomposition per matrix.  A matrix that is not
    finite is decomposed as 0 and comes back NaN, as the closed forms give."""
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    lam, v = np.linalg.eigh(-1j * np.where(bad[..., None, None], 0.0, m))
    out = mm(v * np.exp(1j * lam)[..., None, :], dagger(v))
    out[bad] = np.nan
    return out


def _with_diagonal(out: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Add the per-point scalar ``d`` to the diagonal of ``out``, in place."""
    for i in range(out.shape[-1]):
        out[..., i, i] += d
    return out


def _exp_su2(m: np.ndarray) -> np.ndarray:
    r = np.sqrt(0.5 * np.sum(_abs2(m), axis=(-2, -1)))
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    return _with_diagonal(sinc[..., None, None] * m, np.cos(r))


_XI0_SERIES_BELOW = 0.05  # sin w / w as 1 - w^2/6 (1 - w^2/20 (1 - w^2/42)): error < w^8 / 9!
_ZERO_C1 = np.finfo(np.float64).eps ** 2


def _exp_su3(m: np.ndarray) -> np.ndarray:
    m2 = mm(m, m)  # X^2 = -Q^2
    c1 = 0.5 * np.sum(_abs2(m), axis=(-2, -1))
    c0 = -np.einsum("...ij,...ji->...", m2, m).imag / 3.0
    zero = c1 < _ZERO_C1
    c1 = np.where(zero, 1.0, c1)
    # -R = X^2 - i (3 c0 / (2 c1)) X + (2 c1 / 3) 1
    resid = _with_diagonal(m2 - (1.5j * c0 / c1)[..., None, None] * m, 2.0 * c1 / 3.0)
    spread = np.sqrt(2.0 * c1 * np.sum(_abs2(resid), axis=(-2, -1))) / 3.0
    theta = np.arctan2(spread, np.abs(c0))
    u = np.sqrt(c1 / 3.0) * np.cos(theta / 3.0)
    w = np.sqrt(c1) * np.sin(theta / 3.0)
    uu, ww = u * u, w * w
    cos_w = np.cos(w)
    xi0 = np.where(
        w > _XI0_SERIES_BELOW,
        np.sin(w) / np.maximum(w, _XI0_SERIES_BELOW),
        1.0 - ww / 6.0 * (1.0 - ww / 20.0 * (1.0 - ww / 42.0)),
    )
    e2iu, emiu = np.exp(2j * u), np.exp(-1j * u)
    # named: past 256 KiB numpy would reuse a bracket temporary as bracket * emiu, not bit-equal
    k0 = 8.0 * uu * cos_w + 2j * u * (3.0 * uu + ww) * xi0
    k1 = 2.0 * u * cos_w - 1j * (3.0 * uu - ww) * xi0
    k2 = cos_w + 3j * u * xi0
    h0 = (uu - ww) * e2iu + emiu * k0
    h1 = 2.0 * u * e2iu - emiu * k1
    h2 = e2iu - emiu * k2
    den = 9.0 * uu - ww
    # coefficients of 1, X and X^2; f_j(-c0) = (-1)^j conj(f_j(c0)) conjugates all three
    coeffs = (h0 / den, -1j * h1 / den, -h2 / den)
    neg = c0 < 0
    f0, b1, b2 = (
        np.where(zero, limit, np.where(neg, np.conj(f), f))
        for f, limit in zip(coeffs, (1.0, 1.0, 0.5))
    )
    return _with_diagonal(b1[..., None, None] * m + b2[..., None, None] * m2, f0)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    check_same_group(g, h)
    return _trusted(GroupElement, g.spec, mm(g.entries, h.entries))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Commutator [X, Y] = XY - YX through ``mm``: X and Y are grids, not stacks,
    and for su3 on 10^4 points (2-vCPU Xeon) ``mm`` took 3.3 ms against
    6.6-9.7 ms through ``pair_products``."""
    check_same_group(x, y)
    entries = mm(x.entries, y.entries) - mm(y.entries, x.entries)
    return _trusted(AlgebraElement, x.spec, entries)


def ad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation g X g^dag on raw arrays, evaluated as (g X) g^dag through ``mm``.

    ``x`` may carry extra stack axes between the batch axes it shares with
    ``g`` and its trailing (N, N); g broadcasts over them.  Each matrix is
    conjugated on its own, so equal inputs give equal bits.  ``ad_stacks``
    conjugates large stacks with one GEMM per point instead.
    """
    extra = x.ndim - g.ndim
    gg = g.reshape(g.shape[:-2] + (1,) * extra + g.shape[-2:]) if extra > 0 else g
    return mm(mm(gg, x), dagger(gg))


# Fewest matrices per point that ``ad_stacks`` conjugates by one GEMM per
# point (for N >= 2).  A batched ``np.matmul`` makes one BLAS call per
# point, whose fixed cost, with the K(g) build, only a large stack repays;
# ``ad`` makes 2N broadcast steps over the whole batch.  Speed of the GEMM
# over ``ad``, K(g) included, conjugating c components at 625 and 1000
# points (2-vCPU Xeon KVM guest, one OpenBLAS thread, best of 9, in two
# runs): c = 2 0.3-0.8x, c = 4 1.0-1.3x, c = 8 1.4-2.7x, c = 20 2.8-6.9x
# (su2, su3); u(1) 0.5-1.1x at every size.  Small stacks are also lighter
# on ``ad``, which builds no K(g).  In the jet laws the GEMM conjugates from
# n >= 3; pair products take it at every size (``pair_products``).
GEMM_MIN_STACK = 8


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point GEMM behind ``_ad_kron`` and ``pair_products``: ``np.matmul``
    of stacked operands, one BLAS call per batch point."""
    return np.matmul(a, b)


def _kron(g: np.ndarray) -> np.ndarray:
    """K^T = g^T (x) g^dag, shape (..., N^2, N^2): the right factor of conjugation
    on row-major flattened matrices, vec(g X g^dag)^T = vec(X)^T K^T
    (vec(g X g^dag) = (g (x) conj g) vec(X); Van Loan, "The ubiquitous
    Kronecker product", 2000).  Entry [(k, l), (i, j)] is g_ik conj(g_jl)."""
    n = g.shape[-1]
    gt = np.swapaxes(g, -1, -2)
    kt = gt[..., :, None, :, None] * np.conj(gt)[..., None, :, None, :]
    return kt.reshape(g.shape[:-2] + (n * n, n * n))


def _ad_kron(kt: np.ndarray, x: np.ndarray, lead: int) -> np.ndarray:
    """Ad(g) of the stack ``x`` by the ``_kron`` table of g, whose batch axes
    are the first ``lead`` axes of x: one GEMM of (..., c, N^2) by (N^2, N^2)
    per point, whose result, reshaped without a copy, is the returned array.

    Error: with gamma_k = k u / (1 - k u), u = eps / 2 (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3), each real part of a
    complex inner product of length m is a real sum of 2m products, so in
    any order and with or without FMA it errs by at most gamma_2m times the
    sum of |Re x_k Re y_k| + |Im x_k Im y_k| (or of the mixed pairs), which
    is at most sum |x_k| |y_k|; the complex error is at most
    sqrt(2) gamma_2m sum |x_k| |y_k|.  An entry of K errs by at most
    sqrt(2) gamma_2 |g_ik| |g_jl|, and the GEMM is an inner product of
    length N^2, so, with M = |g| |X| |g|^T entrywise and
    gamma_j + gamma_k + gamma_j gamma_k <= gamma_(j+k) (Higham, Lemma 3.3),
        |fl(g X g^dag) - g X g^dag| <= sqrt(2) gamma_(2N^2+3) M.
    ``ad`` forms g X and then (g X) g^dag, two inner products of length N,
    within sqrt(2) gamma_(4N+1) M.  The two paths thus differ by at most
    sqrt(2) (gamma_(2N^2+3) + gamma_(4N+1)) M, entry by entry.
    """
    stack = x.shape[lead:-2]
    flat = x.reshape(x.shape[:lead] + (math.prod(stack), kt.shape[-1]))
    out = _gemm(flat, kt)
    return out.reshape(out.shape[:-2] + stack + x.shape[-2:])


def ad_stacks(g: np.ndarray, *xs: np.ndarray) -> list[np.ndarray]:
    """Ad(g) of each stack in ``xs``, shaped like ``ad``'s ``x``, all by one g.

    When the stacks together hold ``GEMM_MIN_STACK`` or more matrices per
    point (and N >= 2), K(g) is built once and each stack is one GEMM per
    point (``_ad_kron``, which bounds the difference to ``ad``); otherwise
    each goes through ``ad``, bit for bit.  A GEMM row may round
    differently from the same row in a GEMM of another height, so equal
    inputs are not promised equal bits on that path.
    """
    lead = g.ndim - 2
    count = sum(math.prod(x.shape[lead:-2]) for x in xs)
    if g.shape[-1] < 2 or count < GEMM_MIN_STACK:
        return [ad(g, x) for x in xs]
    kt = _kron(g)
    return [_ad_kron(kt, x, lead) for x in xs]


def pair_products(x: np.ndarray, y: np.ndarray, reverse: bool = False) -> np.ndarray:
    """P[..., mu, nu] = x_mu y_nu for stacks x (..., n, N, N) and y (..., m, N, N),
    or y_nu x_mu when ``reverse``; shape (..., n, m, N, N).

    One GEMM per point, (nN x N) rows of x by (N x mN) columns of y or the
    other way round, at every stack size; the result is a strided view of
    the (..., nN, mN) product.  The brackets of the jet laws, of
    ``curvature`` and of ``maurer_cartan_defect`` are P[mu, nu] - P[nu, mu].
    There is no ``mm`` fallback: against ``mm`` the GEMM ran at 0.7-0.9x
    for su2 at n = 2, 1.1-1.7x for su3 at n = 2 and 1.3-5.7x from n = 3
    (625 and 1000 points, as at ``GEMM_MIN_STACK``), needs no K(g), and one
    path gives every bracket the same rounding.

    Error: each entry is an inner product of length N here and in ``mm``,
    so each is within sqrt(2) gamma_2N (|x_mu| |y_nu|)_ij of the exact
    product (see ``_ad_kron`` for gamma and the model), and the two differ
    by at most 2 sqrt(2) gamma_2N (|x_mu| |y_nu|)_ij.
    """
    n, m, nn = x.shape[-3], y.shape[-3], x.shape[-1]
    left, right = (y, x) if reverse else (x, y)
    rows = left.reshape(left.shape[:-3] + (left.shape[-3] * nn, nn))
    cols = np.swapaxes(right, -3, -2).reshape(right.shape[:-3] + (nn, right.shape[-3] * nn))
    prod = _gemm(rows, cols)
    if reverse:  # [(nu, i), (mu, j)] -> [mu, nu, i, j]
        return np.moveaxis(prod.reshape(prod.shape[:-2] + (m, nn, n, nn)), -2, -4)
    return np.swapaxes(prod.reshape(prod.shape[:-2] + (n, nn, m, nn)), -3, -2)


def rep_matrix(g: GroupElement) -> np.ndarray:
    """Representation matrix R(g), shape (..., k, k); adjoint column b is Ad(g) T_b.

    Built once per ``GroupElement`` and kept on it, read-only.  The adjoint forms only the
    products of ``_coords(ad(g, T_b))`` that are not exact zeros, with their bits: an su(N) T_b
    has at most one nonzero per column, real or imaginary, so ``mm`` adds only +-0 to nonzero
    sums.  A non-finite g forms no NaN * 0, yet R stays non-finite: every row meets a T_b[j, m].
    """
    if g.spec.rep_kind == "fundamental":
        return g.entries
    return g._adjoint


def rep_algebra_matrix(x: AlgebraElement) -> np.ndarray:
    """Infinitesimal representation matrix r(X) = dR(X); adjoint column b is [X, T_b].

    For the adjoint, r(X)[a, b] = sum_c X_c f[c, a, b]: the coordinates of X
    contracted with the cached structure constants, no matrix products.
    """
    if x.spec.rep_kind == "fundamental":
        return x.entries
    return np.tensordot(algebra_coords(x), structure_constants(x.spec), axes=(-1, 0))


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The one product of a representation matrix and a vector.  Past their
    shared batch axes, either side may carry stack axes the other broadcasts over."""
    extra = (vec.ndim - 1) - (mat.ndim - 2)
    if extra > 0:
        mat = mat.reshape(mat.shape[:-2] + (1,) * extra + mat.shape[-2:])
    elif extra < 0:
        vec = vec.reshape(vec.shape[:-1] + (1,) * -extra + vec.shape[-1:])
    return np.einsum("...ij,...j->...i", mat, vec)


def rep_act(g: GroupElement, q: RepVector) -> RepVector:
    """Linear action of g on the representation space (and so on its tangents)."""
    check_same_group(g, q)
    return _trusted(RepVector, q.spec, _apply(rep_matrix(g), q.entries))


def fundamental_vector_field(x: AlgebraElement, q: RepVector) -> RepVector:
    """Infinitesimal generator at q: d/dt|_0 of exp(tX) acting on q = r(X) q."""
    check_same_group(x, q)
    return _trusted(RepVector, q.spec, _apply(rep_algebra_matrix(x), q.entries))


def tangent_act(
    g: GroupElement, x: AlgebraElement, q: RepVector, qdot: RepVector
) -> tuple[RepVector, RepVector]:
    """Action of the right-trivialized tangent-group pair (g, X) on (q, qdot).

    Returns (g.q, g.qdot + X_Q(g.q)); X is the right-trivialized velocity of
    a group curve through g.  Stacked X (..., n, N, N) and qdot (..., n, k)
    give the Leibniz rule of a gauge jet (g, a) on a matter jet.
    """
    check_same_group(g, q)
    r = rep_matrix(g)
    gq = _trusted(RepVector, q.spec, _apply(r, q.entries))
    moved = _apply(r, qdot.entries) + fundamental_vector_field(x, gq).entries
    return gq, _trusted(RepVector, q.spec, moved)


# ---------------------------------------------------------------------------
# deterministic random sampling

def seeded_rng(seed: int, *labels) -> np.random.Generator:
    """Generator derived deterministically from a seed plus string/int labels."""
    keys = [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))


def random_algebra_entries(rng: np.random.Generator, spec: GroupSpec, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Random algebra elements with matrix entries bounded by 1, shape (*shape, N, N)."""
    dim = spec.algebra_dim
    coords = rng.uniform(-1.0, 1.0, size=(*shape, dim))
    entries = np.tensordot(coords, algebra_basis(spec), axes=(-1, 0))
    peak = np.max(np.abs(entries), axis=(-2, -1), keepdims=True)
    return entries / np.maximum(1.0, peak)
