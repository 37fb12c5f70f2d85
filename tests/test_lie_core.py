"""Fiber-level algebra: exponential, brackets, adjoint, representation actions."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets.lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    InvariantError,
    RepTangent,
    RepVector,
    adjoint,
    algebra_basis,
    algebra_coords,
    algebra_from_coords,
    algebra_inner,
    bracket,
    dagger,
    exp,
    frobenius,
    fundamental_vector_field,
    group_spec,
    mm,
    multiply,
    random_algebra_element,
    random_group_element,
    random_rep_vector,
    rep_act,
    rep_matrix,
    seeded_rng,
    tangent_act,
)

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


class TestExp:
    def test_exp_zero_is_identity(self):
        g = exp(AlgebraElement(SU3, np.zeros((3, 3))))
        assert np.array_equal(g.entries, np.eye(3))

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
        assert np.array_equal(adjoint(eye, x).entries, x.entries)

    def test_u1_trivial(self):
        g = exp(AlgebraElement(U1, np.array([[0.9j]])))
        x = AlgebraElement(U1, np.array([[-0.3j]]))
        assert np.max(np.abs(adjoint(g, x).entries - x.entries)) < 1e-15

    def test_su2_quarter_turn_rotates_basis(self):
        g = exp(AlgebraElement(SU2, (np.pi / 2) * su2_e(2).entries))
        got = adjoint(g, su2_e(0))
        assert np.max(np.abs(got.entries - su2_e(1).entries)) < 1e-14

    def test_ad_is_algebra_map(self):
        g = random_group_element(8, SU3)
        x = random_algebra_element(9, SU3)
        y = random_algebra_element(10, SU3)
        lhs = adjoint(g, bracket(x, y))
        rhs = bracket(adjoint(g, x), adjoint(g, y))
        assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12


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

    def test_inner_is_frobenius_on_antihermitian(self):
        x = random_algebra_element(21, SU2)
        assert abs(algebra_inner(x, x) - frobenius(x.entries) ** 2) < 1e-14


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
        expected = algebra_coords(adjoint(GroupElement(spec, g.entries), x))
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
        assert np.max(np.abs(moved - algebra_coords(adjoint(g, x)))) <= rep_tol(spec)
        drift = fundamental_vector_field(x, RepVector(spec, algebra_coords(y))).entries
        assert np.max(np.abs(drift - algebra_coords(bracket(x, y)))) <= rep_tol(spec)


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
        qdot = RepTangent(SU2, random_rep_vector(4, SU2).entries)
        eye = GroupElement(SU2, np.eye(2))
        zero = AlgebraElement(SU2, np.zeros((2, 2)))
        q2, qdot2 = tangent_act(eye, zero, q, qdot)
        assert np.array_equal(q2.entries, q.entries)
        assert np.array_equal(qdot2.entries, qdot.entries)

    def test_zero_velocity_reduces_to_plain_action(self):
        g = random_group_element(5, SU2)
        zero = AlgebraElement(SU2, np.zeros((2, 2)))
        q = random_rep_vector(6, SU2)
        qdot = RepTangent(SU2, random_rep_vector(7, SU2).entries)
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
            qdot = RepTangent(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            gh = multiply(g, h)
            xy = AlgebraElement(SU2, x.entries + adjoint(g, y).entries)
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
