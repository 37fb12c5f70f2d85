"""Fiber-level algebra: exponential, brackets, adjoint, representation actions."""

import cmath
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaugejets.lie_core import (
    ATOL,
    GEMM_MIN_STACK,
    _ad_kron,
    _coords,
    _exp_eigh,
    _kron,
    _trusted,
    AlgebraElement,
    DimensionError,
    GroupElement,
    InvariantError,
    RepVector,
    ad,
    ad_stacks,
    algebra_basis,
    algebra_coords,
    algebra_from_coords,
    assert_antihermitian,
    assert_unitary,
    bracket,
    dagger,
    exp,
    frobenius,
    fundamental_vector_field,
    group_spec,
    identities,
    mm,
    multiply,
    pair_products,
    random_algebra_entries,
    rep_act,
    rep_algebra_matrix,
    rep_matrix,
    seeded_rng,
    structure_constants,
    tangent_act,
)
from sampling import random_algebra_element, random_group_element, random_rep_vector

SU2 = group_spec("su2")
SU3 = group_spec("su3")
U1 = group_spec("u1")
SU4 = group_spec("sun", 4)
EPS = np.finfo(np.float64).eps

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def su2_e(a):
    """Standard su(2) generators e_a = -(i/2) sigma_a with [e1, e2] = e3."""
    return AlgebraElement(SU2, -0.5j * PAULI[a])


def series_exp(m, terms=40):
    """Truncated power-series oracle, plain loops, independent of the library."""
    out = np.eye(m.shape[0], dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        acc = acc @ m / k
        out = out + acc
    return out


class TestGroupSpec:
    def test_families(self):
        assert U1.n == 1 and U1.algebra_dim == 1
        assert SU2.n == 2 and SU2.algebra_dim == 3
        assert SU3.n == 3 and SU3.algebra_dim == 8
        spec = group_spec("sun", n=4)
        assert spec.n == 4 and spec.algebra_dim == 15

    def test_sun_requires_n(self):
        with pytest.raises(DimensionError):
            group_spec("sun", n=1)

    def test_rep_selection(self):
        assert group_spec("su2", rep_dim=2).rep_kind == "fundamental"
        assert group_spec("su2", rep_dim=3).rep_kind == "adjoint"
        with pytest.raises(DimensionError):
            group_spec("su2", rep_dim=5)

    def test_invariant_enforcement(self):
        with pytest.raises(InvariantError):
            GroupElement(SU2, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvariantError):
            AlgebraElement(SU2, np.array([[1.0, 0.0], [0.0, -1.0]]))  # hermitian
        with pytest.raises(InvariantError):
            AlgebraElement(SU2, 1j * np.eye(2))  # not traceless


class TestStructuralChecks:
    """The checks sum their squared defects over index pairs; the
    full-matrix formulas stay here as the reference."""

    @given(
        st.sampled_from([U1, SU2, SU3, SU4]),
        st.sampled_from([(), (0,), (6,), (2, 3, 2)]),
        st.floats(-14.0, -10.0),
        st.integers(0, 2**16),
        st.sampled_from([1.0, 1e4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_defects_match_the_full_matrix_formulas(self, spec, shape, log_noise, seed, scale):
        rng = seeded_rng(seed, "defects")
        n = spec.n

        def noisy(m):
            noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
            return m + 10.0**log_noise * noise

        g = noisy(exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape))).entries)
        x = scale * noisy(random_algebra_entries(rng, spec, shape))
        cases = [
            (assert_unitary, g, frobenius(mm(dagger(g), g) - np.eye(n))),
            # anti-hermitian defects are judged relative to max(1, ||x||_F)
            (assert_antihermitian, x, frobenius(dagger(x) + x) / np.maximum(1.0, frobenius(x))),
        ]
        for check, m, reference in cases:
            want = float(np.max(reference, initial=0.0))
            if abs(want - ATOL) <= 1e-3 * ATOL:
                continue  # the two sums may round to opposite sides of ATOL
            if want <= ATOL:
                check(m, ATOL, False)
                continue
            with pytest.raises(InvariantError) as raised:
                check(m, ATOL, False)
            got = float(re.search(r"defect ([-+.e0-9]+)\)", str(raised.value)).group(1))
            assert abs(got - want) <= 1e-3 * want


class TestExp:
    def test_exp_zero_is_identity(self):
        # bit for bit, with +0 off the diagonal, for the closed forms and eigh
        for spec in (U1, SU2, SU3, SU4):
            got = exp(AlgebraElement(spec, np.zeros((4, spec.n, spec.n)))).entries
            assert np.array_equal(got, np.broadcast_to(np.eye(spec.n), got.shape))
            assert not np.any(np.signbit(got.real)) and not np.any(np.signbit(got.imag))

    @pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4, group_spec("sun", 5)], ids=lambda s: s.label())
    def test_non_finite_matrix_gives_nan(self, spec):
        """A matrix that is not finite comes back with NaN entries on every path,
        all NaN from ``eigh``, which would otherwise raise, and the finite matrices
        of the batch keep their bits."""
        x = random_algebra_entries(seeded_rng(5, "non-finite", spec.label()), spec, (6,))
        bad = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            bad[1] *= np.inf  # inf entries, and NaN where x is 0
            bad[4, 0, 0] = complex(np.nan, np.nan)
            got = exp(_trusted(AlgebraElement, spec, bad)).entries
        want = exp(AlgebraElement(spec, x)).entries
        finite = [0, 2, 3, 5]
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.isnan(got[1]).any() and np.isnan(got[4]).any()
        if spec.n >= 4:
            assert np.isnan(got[[1, 4]]).all()

    def test_u1_scalar_oracle(self):
        theta = 0.7
        g = exp(AlgebraElement(U1, np.array([[1j * theta]])))
        assert abs(g.entries[0, 0] - cmath.exp(1j * theta)) < 1e-14

    def test_su2_diagonal_series_oracle(self):
        theta = 1.3
        x = np.diag([0.5j * theta, -0.5j * theta])
        got = exp(AlgebraElement(SU2, x)).entries
        expected = series_exp(x)
        assert np.max(np.abs(got - expected)) < 1e-14
        assert abs(got[0, 0] - cmath.exp(0.5j * theta)) < 1e-14

    def test_su3_random_series_oracle(self):
        x = random_algebra_element(11, SU3)
        got = exp(x).entries
        assert np.max(np.abs(got - series_exp(x.entries))) < 1e-13

    def test_exp_output_is_unitary(self):
        for seed in range(20):
            g = random_group_element(seed, SU3)
            defect = frobenius(g.entries.conj().T @ g.entries - np.eye(3))
            assert defect <= 1e-12
            assert abs(np.linalg.det(g.entries) - 1) <= 1e-12


def exp_tol(nu):
    """Budget of the closed-form ``exp`` checks on an algebra element of
    Frobenius norm nu.

    The ``exp`` docstring bounds the closed form's error by
    C = (4 sqrt(3) gamma_16 + 6.9 gamma_14) (1 + nu) < 110 eps (1 + nu),
    its unitarity defect by 2C and |det - 1| by sqrt(3) C.  The ``eigh``
    oracle is backward stable: its eigenvalues are exact for -iX + E with
    ||E|| of a few N eps nu, and its V is unitary to a few N eps, so its
    own error is a few N eps (1 + nu) with N <= 3, well within another C.
    Every check is therefore charged 2C = 220 eps (1 + nu).
    """
    return 220 * EPS * (1 + nu)


def exp_inputs(spec, rng, kind, norm, sign, batch=16):
    """Algebra batches of one Frobenius norm.

    ``random``: random coordinates.  ``degenerate``: diagonal, with a
    repeated eigenvalue for su(3), i (1, 1, -2).  ``split``: the diagonal
    conjugated by a random group element, for su(3) with the pair split by
    a relative 1e-12 to 0.3 first, so that the spread w crosses the series
    range of sin w / w.  ``sign`` -1 flips the sign of c0 = det(-iX).
    """
    if kind == "random":
        x = random_algebra_entries(rng, spec, (batch,))
    else:
        diag = {1: [1.0], 2: [1.0, -1.0], 3: [1.0, 1.0, -2.0]}[spec.n]
        x = np.zeros((batch, spec.n, spec.n), dtype=complex)
        x[:, range(spec.n), range(spec.n)] = 1j * np.array(diag)
        if kind == "split" and spec.n == 3:
            split = 10.0 ** rng.uniform(-12.0, np.log10(0.3), batch)
            x[:, 0, 0] += 1j * split
            x[:, 1, 1] -= 1j * split
        if kind == "split":
            g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, (batch,)))).entries
            x = mm(mm(g, x), dagger(g))
    return sign * norm * x / frobenius(x)[:, None, None]


class TestClosedFormExp:
    """u(1), su(2) and su(3) take closed forms; ``_exp_eigh`` is their oracle."""

    @given(
        st.sampled_from([U1, SU2, SU3]),
        st.sampled_from(["random", "degenerate", "split"]),
        st.floats(-10.0, 3.0),
        st.sampled_from([1.0, -1.0]),
        st.integers(0, 2**16),
    )
    @example(SU3, "split", 3.0, 1.0, 0)  # largest norm, nearly double eigenvalue
    @example(SU3, "degenerate", 3.0, -1.0, 0)
    @example(SU3, "split", -1.5, 1.0, 0)  # spreads around the sin w / w series switch
    @example(SU2, "random", -10.0, 1.0, 0)
    @settings(max_examples=90, deadline=None)
    def test_matches_eigh_within_budget(self, spec, kind, log_norm, sign, seed):
        x = exp_inputs(spec, seeded_rng(seed, "exp-oracle"), kind, 10.0**log_norm, sign)
        tol = exp_tol(float(np.max(frobenius(x))))
        got = exp(AlgebraElement(spec, x)).entries
        eye = np.eye(spec.n)
        assert np.max(frobenius(got - _exp_eigh(x))) <= tol
        assert np.max(frobenius(mm(dagger(got), got) - eye)) <= tol
        if spec.is_special:
            assert np.max(np.abs(np.linalg.det(got) - 1.0)) <= tol

    def test_u1_is_bitwise_the_eigh_path(self):
        x = 1j * seeded_rng(5, "u1-bits").uniform(-50.0, 50.0, (64, 1, 1))
        assert np.array_equal(exp(AlgebraElement(U1, x)).entries, _exp_eigh(x))

    @pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4], ids=lambda s: s.label())
    def test_bits_do_not_depend_on_batch_size(self, spec):
        # 20,736 points (12^4) make temporaries past numpy's 256 KiB elision
        # threshold, which may evaluate a product in place with swapped operands
        x = random_algebra_entries(seeded_rng(3, "exp-batch"), spec, (20736,))
        whole = exp(AlgebraElement(spec, x)).entries
        for part in (slice(0, 10000), slice(5, 4001), slice(20000, 20736)):
            assert np.array_equal(exp(AlgebraElement(spec, x[part])).entries, whole[part])


class TestBracket:
    def test_self_bracket_vanishes(self):
        x = random_algebra_element(3, SU3)
        assert np.max(np.abs(bracket(x, x).entries)) == 0.0

    def test_u1_abelian(self):
        x = AlgebraElement(U1, np.array([[0.4j]]))
        y = AlgebraElement(U1, np.array([[-1.1j]]))
        assert np.max(np.abs(bracket(x, y).entries)) == 0.0

    def test_su2_structure_constant(self):
        # explicit 2x2 multiplication oracle
        m1, m2 = su2_e(0).entries, su2_e(1).entries
        commutator = m1 @ m2 - m2 @ m1
        assert np.max(np.abs(commutator - su2_e(2).entries)) < 1e-15
        got = bracket(su2_e(0), su2_e(1))
        assert np.max(np.abs(got.entries - su2_e(2).entries)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            bracket(random_algebra_element(0, SU2), random_algebra_element(0, SU3))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_jacobi_identity(self, seed):
        rng = seeded_rng(seed, "jacobi")
        from gaugejets.lie_core import random_algebra_entries

        x, y, z = (
            AlgebraElement(SU3, random_algebra_entries(rng, SU3)) for _ in range(3)
        )
        total = (
            bracket(x, bracket(y, z)).entries
            + bracket(y, bracket(z, x)).entries
            + bracket(z, bracket(x, y)).entries
        )
        assert np.max(np.abs(total)) < 1e-12


class TestAdjoint:
    def test_identity(self):
        x = random_algebra_element(5, SU2)
        eye = GroupElement(SU2, np.eye(2))
        assert np.array_equal(ad(eye.entries, x.entries), x.entries)

    def test_u1_trivial(self):
        g = exp(AlgebraElement(U1, np.array([[0.9j]])))
        x = AlgebraElement(U1, np.array([[-0.3j]]))
        assert np.max(np.abs(ad(g.entries, x.entries) - x.entries)) < 1e-15

    def test_su2_quarter_turn_rotates_basis(self):
        g = exp(AlgebraElement(SU2, (np.pi / 2) * su2_e(2).entries))
        got = ad(g.entries, su2_e(0).entries)
        assert np.max(np.abs(got - su2_e(1).entries)) < 1e-14

    def test_ad_is_algebra_map(self):
        g = random_group_element(8, SU3)
        x = random_algebra_element(9, SU3)
        y = random_algebra_element(10, SU3)
        lhs = ad(g.entries, bracket(x, y).entries)
        gx, gy = (AlgebraElement(SU3, ad(g.entries, z.entries)) for z in (x, y))
        assert np.max(np.abs(lhs - bracket(gx, gy).entries)) < 1e-12


def random_matrices(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches_matmul(got, a, b):
    """mm against ``@`` under the elementwise roundoff model of a complex
    N-term inner product: each side is within (N + 2) eps |a||b| of the
    exact product, so they differ by at most twice that."""
    n = a.shape[-1]
    want = a @ b
    assert got.shape == want.shape
    bound = 2 * (n + 2) * EPS * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - want) <= bound)


class TestMatrixProduct:
    @pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4], ids=lambda s: s.label())
    def test_matches_matmul(self, spec):
        a = random_matrices(1, (64, spec.n, spec.n))
        b = random_matrices(2, (64, spec.n, spec.n))
        assert_matches_matmul(mm(a, b), a, b)

    @pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4], ids=lambda s: s.label())
    def test_broadcasts_over_stack_axes(self, spec):
        # g (B, N, N) against x (B, n, n, N, N), as in conjugating second-order jets
        g = random_matrices(3, (16, spec.n, spec.n))[:, None, None]
        x = random_matrices(4, (16, 3, 3, spec.n, spec.n))
        assert_matches_matmul(mm(g, x), g, x)
        assert_matches_matmul(mm(x, g), x, g)

    @pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4], ids=lambda s: s.label())
    def test_non_contiguous_inputs(self, spec):
        m = random_matrices(5, (16, 3, 3, spec.n, spec.n))
        views = [dagger(m), np.swapaxes(m, -4, -3), m[:, ::2, 1:]]
        for a in views:
            assert not a.flags.c_contiguous or spec.n == 1  # a 1 x 1 dagger is contiguous
            b = random_matrices(6, a.shape)
            assert_matches_matmul(mm(a, b), a, b)
            assert_matches_matmul(mm(b, a), b, a)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2."""
    u = EPS / 2
    return k * u / (1 - k * u)


GEMM_BATCHES = [(), (0,), (3,), (2, 4)]


class TestGemmKernels:
    """The per-point GEMM kernels against the ``mm`` formulas, within the
    bounds that ``_ad_kron`` and ``pair_products`` derive, entry by entry.  The
    magnitude M is itself formed from rounded moduli (each within gamma_2)
    by real inner products of length N, so it is scaled by 1 + gamma_k to
    cover its own rounding.  ``ad_stacks`` gives ``ad``'s bits below
    ``GEMM_MIN_STACK`` and the GEMM's above it; ``pair_products`` is the
    GEMM at every size."""

    @given(
        st.sampled_from([U1, SU2, SU3, SU4]),
        st.integers(1, 4),
        st.sampled_from(GEMM_BATCHES),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_kronecker_conjugation_matches_ad(self, spec, n, batch, seed):
        rng = seeded_rng(seed, "gemm-ad", spec.label())
        g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, batch))).entries
        stacks = (
            random_algebra_entries(rng, spec, batch + (n,)),
            random_algebra_entries(rng, spec, batch + (n, n)),
        )
        big = spec.n
        c = np.sqrt(2) * (gamma(2 * big * big + 3) + gamma(4 * big + 1)) * (1 + gamma(2 * big + 6))
        kt = _kron(g)
        gemm = big >= 2 and n + n * n >= GEMM_MIN_STACK
        for x, got in zip(stacks, ad_stacks(g, *stacks)):
            want = ad(g, x)
            absg = np.abs(g).reshape(g.shape[:-2] + (1,) * (x.ndim - g.ndim) + g.shape[-2:])
            bound = c * mm(mm(absg, np.abs(x)), np.swapaxes(absg, -1, -2))
            kron = _ad_kron(kt, x, len(batch))
            assert kron.shape == want.shape
            assert np.all(np.abs(kron - want) <= bound)
            assert np.array_equal(got, kron if gemm else want)

    @given(
        st.sampled_from([U1, SU2, SU3, SU4]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(GEMM_BATCHES),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_products_match_mm(self, spec, n, m, batch, reverse, seed):
        rng = seeded_rng(seed, "gemm-pairs", spec.label())
        x = random_algebra_entries(rng, spec, batch + (n,))
        y = random_algebra_entries(rng, spec, batch + (m,))
        xm, yn = x[..., :, None, :, :], y[..., None, :, :, :]
        left, right = (yn, xm) if reverse else (xm, yn)
        want = mm(left, right)
        big = spec.n
        bound = 2 * np.sqrt(2) * gamma(2 * big) * (1 + gamma(big + 4)) * mm(np.abs(left), np.abs(right))
        got = pair_products(x, y, reverse)
        assert got.shape == want.shape == batch + (n, m, big, big)
        assert np.all(np.abs(got - want) <= bound)


class TestBasis:
    @pytest.mark.parametrize("spec", [U1, SU2, SU3, group_spec("sun", n=4)])
    def test_orthonormal(self, spec):
        basis = algebra_basis(spec)
        assert basis.shape[0] == spec.algebra_dim
        gram = -np.einsum("aij,bji->ab", basis, basis).real
        assert np.max(np.abs(gram - np.eye(spec.algebra_dim))) < 1e-13

    def test_coords_round_trip(self):
        x = random_algebra_element(17, SU3)
        back = algebra_from_coords(SU3, algebra_coords(x))
        assert np.max(np.abs(back.entries - x.entries)) < 1e-14

    @pytest.mark.parametrize("table", [algebra_basis, structure_constants])
    def test_cached_tables_are_read_only(self, table):
        # every caller shares the cached array, so an in-place write must fail
        with pytest.raises(ValueError):
            table(SU3)[0, 0, 0] = 0
        with pytest.raises(ValueError):
            table(SU3)[...] *= 2


class TestRepAction:
    def test_identity_and_zero(self):
        q = random_rep_vector(2, SU2)
        eye = GroupElement(SU2, np.eye(2))
        assert np.array_equal(rep_act(eye, q).entries, q.entries)
        zero = RepVector(SU2, np.zeros(2))
        g = random_group_element(3, SU2)
        assert np.max(np.abs(rep_act(g, zero).entries)) == 0.0

    def test_su2_fundamental_oracle(self):
        g = GroupElement(SU2, np.diag([1j, -1j]))
        q = RepVector(SU2, np.array([1.0, 0.0]))
        got = rep_act(g, q).entries
        assert np.max(np.abs(got - np.array([1j, 0.0]))) == 0.0

    def test_homomorphism(self):
        g = random_group_element(4, SU3)
        h = random_group_element(5, SU3)
        q = random_rep_vector(6, SU3)
        lhs = rep_act(multiply(g, h), q).entries
        rhs = rep_act(g, rep_act(h, q)).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_adjoint_rep_matches_conjugation(self):
        spec = group_spec("su2", rep_dim=3)
        g = random_group_element(7, spec)
        x = random_algebra_element(8, spec)
        coords = algebra_coords(x)
        moved = rep_act(GroupElement(spec, g.entries), RepVector(spec, coords))
        expected = algebra_coords(AlgebraElement(spec, ad(g.entries, x.entries)))
        assert np.max(np.abs(moved.entries - expected)) < 1e-12

    def test_adjoint_rep_matrix_is_orthogonal(self):
        spec = group_spec("su3", rep_dim=8)
        r = rep_matrix(random_group_element(12, spec))
        assert np.max(np.abs(r.imag)) < 1e-13
        assert np.max(np.abs(r @ r.conj().T - np.eye(8))) < 1e-12


REP_SPECS = [
    U1, SU2, SU3, SU4,
    group_spec("su2", rep_dim=3), group_spec("su3", rep_dim=8), group_spec("sun", 4, rep_dim=15),
]


def rep_tol(spec):
    """eps per accumulation step of the N-, N^2- and k-term sums, on O(1) data."""
    return 4 * (2 * spec.n + spec.n**2 + spec.rep_dim) * EPS


class TestRepresentationProperties:
    """R and r are homomorphisms and, for the adjoint, match Ad and the bracket."""

    @given(st.sampled_from(REP_SPECS), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_rep_matrix_is_homomorphism(self, spec, seed):
        g = random_group_element(seed, spec, (2, 3))
        h = random_group_element(seed + 1, spec, (2, 3))
        lhs = rep_matrix(multiply(g, h))
        assert np.max(np.abs(lhs - rep_matrix(g) @ rep_matrix(h))) <= rep_tol(spec)

    @given(st.sampled_from([s for s in REP_SPECS if s.rep_kind == "adjoint"]), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_matrices_match_conjugation_and_bracket(self, spec, seed):
        g = random_group_element(seed, spec, (2, 3))
        x = random_algebra_element(seed + 1, spec, (2, 3))
        y = random_algebra_element(seed + 2, spec, (2, 3))
        moved = rep_act(g, RepVector(spec, algebra_coords(x))).entries
        conjugated = AlgebraElement(spec, ad(g.entries, x.entries))
        assert np.max(np.abs(moved - algebra_coords(conjugated))) <= rep_tol(spec)
        drift = fundamental_vector_field(x, RepVector(spec, algebra_coords(y))).entries
        assert np.max(np.abs(drift - algebra_coords(bracket(x, y)))) <= rep_tol(spec)


def ad_rep_matrix(g: GroupElement) -> np.ndarray:
    """The oracle: R(g) with every basis matrix conjugated through ``ad``, then read
    in coordinates; column b is Ad(g) T_b."""
    cols = ad(g.entries[..., None, :, :], algebra_basis(g.spec))
    return np.swapaxes(_coords(g.spec, cols), -1, -2)


ORACLE_SPECS = [
    group_spec("su2", rep_dim=3), group_spec("su3", rep_dim=8),
    group_spec("sun", 4, rep_dim=15), group_spec("sun", 5, rep_dim=24),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
class TestAdjointRepMatrix:
    """R(g) is built from the basis' nonzeros, once per group element, with the bits
    of the conjugation through ``ad``."""

    @pytest.mark.parametrize("shape", [(), (196,), (2, 3, 5)], ids=["single", "batch", "stack-axes"])
    def test_bits_match_conjugation(self, spec, shape):
        for g in (random_group_element(41, spec, shape), GroupElement(spec, identities(spec.n, shape))):
            got, want = rep_matrix(g), ad_rep_matrix(g)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_built_once_and_read_only(self, spec):
        g = random_group_element(42, spec, (3,))
        r = rep_matrix(g)
        assert rep_matrix(g) is r and not r.flags.writeable
        with pytest.raises(ValueError):
            r[...] = 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-i-inf"])
    def test_non_finite_entry_gives_non_finite_matrix(self, spec, bad):
        """No NaN * 0 is formed, but every row of g meets a nonzero T_b[j, m]."""
        g = random_group_element(43, spec)
        for i in range(spec.n):
            for k in range(spec.n):
                entries = g.entries.copy()
                entries[i, k] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    r = rep_matrix(_trusted(GroupElement, spec, entries))
                assert not np.isfinite(r).all(), (i, k)


ADJOINT_SPECS = [s for s in REP_SPECS if s.rep_kind == "adjoint"]


class TestStructureConstants:
    """r(X) for the adjoint is the coordinates of X contracted with f[c, a, b]."""

    @pytest.mark.parametrize("spec", ADJOINT_SPECS, ids=lambda s: s.label())
    def test_antisymmetry(self, spec):
        f = structure_constants(spec)
        assert f.shape == (spec.algebra_dim,) * 3
        assert np.array_equal(f, -np.swapaxes(f, 0, 2))
        # (a, b) antisymmetry is ad-invariance of the inner product: only to roundoff
        assert np.max(np.abs(f + np.swapaxes(f, 1, 2))) <= rep_tol(spec)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_pair_products_build_the_mm_brackets_bit_for_bit(self, n):
        """f is built from one ``pair_products`` of the basis; for a basis with at
        most two non-zeros per row every product sum adds exact zeros, so it
        equals the tensor built from ``mm(T_c, T_b) - mm(T_b, T_c)``."""
        spec = group_spec("sun", n)
        basis = algebra_basis(spec)
        tc, tb = basis[:, None], basis[None, :]
        f = np.swapaxes(_coords(spec, mm(tc, tb) - mm(tb, tc)), 1, 2)
        assert np.array_equal(structure_constants(spec), 0.5 * (f - np.swapaxes(f, 0, 2)))

    @given(st.sampled_from(ADJOINT_SPECS), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_bracket_with_basis(self, spec, seed):
        x = random_algebra_element(seed, spec, (2, 3))
        basis = algebra_basis(spec)
        cols = [
            algebra_coords(bracket(x, AlgebraElement(spec, np.broadcast_to(t, x.entries.shape))))
            for t in basis
        ]
        want = np.stack(cols, axis=-1)  # column b holds coords([X, T_b])
        got = rep_algebra_matrix(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rep_tol(spec)

    @given(st.sampled_from(ADJOINT_SPECS), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_r_is_algebra_homomorphism(self, spec, seed):
        x = random_algebra_element(seed, spec, (2, 3))
        y = random_algebra_element(seed + 1, spec, (2, 3))
        rx, ry = rep_algebra_matrix(x), rep_algebra_matrix(y)
        lhs = rep_algebra_matrix(bracket(x, y))
        assert np.max(np.abs(lhs - (rx @ ry - ry @ rx))) <= rep_tol(spec)


class TestFundamentalVectorField:
    def test_trivial_cases(self):
        q = random_rep_vector(1, SU2)
        zero_x = AlgebraElement(SU2, np.zeros((2, 2)))
        assert np.max(np.abs(fundamental_vector_field(zero_x, q).entries)) == 0.0
        x = random_algebra_element(1, SU2)
        zero_q = RepVector(SU2, np.zeros(2))
        assert np.max(np.abs(fundamental_vector_field(x, zero_q).entries)) == 0.0

    def test_forward_difference_oracle(self):
        x = random_algebra_element(13, SU3)
        q = random_rep_vector(14, SU3)
        t = 1e-6
        gt = exp(AlgebraElement(SU3, t * x.entries))
        fd = (rep_act(gt, q).entries - q.entries) / t
        assert np.max(np.abs(fd - fundamental_vector_field(x, q).entries)) < 1e-5

    def test_central_difference_second_order(self):
        # error of the centered quotient drops by ~4 when t halves
        x = random_algebra_element(15, SU2)
        q = random_rep_vector(16, SU2)
        exact = fundamental_vector_field(x, q).entries

        def err(t):
            plus = rep_act(exp(AlgebraElement(SU2, t * x.entries)), q).entries
            minus = rep_act(exp(AlgebraElement(SU2, -t * x.entries)), q).entries
            return np.max(np.abs((plus - minus) / (2 * t) - exact))

        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5


class TestTangentAct:
    def test_unit_pair(self):
        q = random_rep_vector(3, SU2)
        qdot = RepVector(SU2, random_rep_vector(4, SU2).entries)
        eye = GroupElement(SU2, np.eye(2))
        zero = AlgebraElement(SU2, np.zeros((2, 2)))
        q2, qdot2 = tangent_act(eye, zero, q, qdot)
        assert np.array_equal(q2.entries, q.entries)
        assert np.array_equal(qdot2.entries, qdot.entries)

    def test_zero_velocity_reduces_to_plain_action(self):
        g = random_group_element(5, SU2)
        zero = AlgebraElement(SU2, np.zeros((2, 2)))
        q = random_rep_vector(6, SU2)
        qdot = RepVector(SU2, random_rep_vector(7, SU2).entries)
        q2, qdot2 = tangent_act(g, zero, q, qdot)
        assert np.max(np.abs(q2.entries - rep_act(g, q).entries)) == 0.0
        assert np.max(np.abs(qdot2.entries - rep_act(g, qdot).entries)) == 0.0

    def test_composition_law_on_100_random_samples(self):
        # the pair product is (gh, X + Ad(g) Y); acting with it once must
        # equal acting with (h, Y) then (g, X)
        rng = seeded_rng(42, "tangent-compose")
        from gaugejets.lie_core import random_algebra_entries

        worst = 0.0
        for _ in range(100):
            g = exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2)))
            h = exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2)))
            x = AlgebraElement(SU2, random_algebra_entries(rng, SU2))
            y = AlgebraElement(SU2, random_algebra_entries(rng, SU2))
            q = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            qdot = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            gh = multiply(g, h)
            xy = AlgebraElement(SU2, x.entries + ad(g.entries, y.entries))
            q_a, qdot_a = tangent_act(gh, xy, q, qdot)
            q_m, qdot_m = tangent_act(h, y, q, qdot)
            q_b, qdot_b = tangent_act(g, x, q_m, qdot_m)
            worst = max(
                worst,
                np.max(np.abs(q_a.entries - q_b.entries)),
                np.max(np.abs(qdot_a.entries - qdot_b.entries)),
            )
        assert worst < 1e-12


class TestRandomElements:
    def test_determinism(self):
        a = random_group_element(123, SU3)
        b = random_group_element(123, SU3)
        assert np.array_equal(a.entries, b.entries)
        x = random_algebra_element(123, SU3)
        y = random_algebra_element(123, SU3)
        assert np.array_equal(x.entries, y.entries)

    def test_algebra_entries_bounded(self):
        for seed in range(50):
            x = random_algebra_element(seed, SU3)
            assert np.max(np.abs(x.entries)) <= 1.0 + 1e-15

    def test_distinct_seeds_differ(self):
        elems = [random_algebra_element(seed, SU2).entries for seed in range(1000)]
        diffs = [
            float(frobenius(a - b)) for a, b in zip(elems, elems[1:])
        ]
        assert min(diffs) > 1e-6
