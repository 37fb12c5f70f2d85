"""Action laws on matter, connections, curvature; transitivity witnesses."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets.actions import (
    act_connection,
    act_curvature,
    act_jet_connection,
    act_jet_matter,
    gauge_to_zero_jet1,
    gauge_to_zero_jet2,
)
from gaugejets.analytic import (
    Polynomial,
    PlaneWaveMatter,
    ProductGauge,
    SingleGenerator,
    sample_gauge,
    sample_matter,
)
from gaugejets.jets import (
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    curvature,
    curvature_pairs,
    jet1_inv,
    jet1_mul,
    jet1_of,
    jet1_unit,
    jet2_mul,
    jet2_of,
    jet2_unit,
    jet_matter_of,
    sym,
)
from gaugejets.lie_core import (
    AlgebraElement,
    GroupElement,
    RepVector,
    distance,
    exp,
    frobenius,
    group_spec,
    multiply,
    random_algebra_entries,
    rep_act,
    seeded_rng,
    tangent_act,
)
from gaugejets.patch import Field, Patch

SU2 = group_spec("su2")
SU3 = group_spec("su3")
U1 = group_spec("u1")
REP_SPECS = [
    U1, SU2, SU3, group_spec("sun", 4),
    group_spec("su2", rep_dim=3), group_spec("su3", rep_dim=8), group_spec("sun", 4, rep_dim=15),
]


def rnd(seed, label="x"):
    return seeded_rng(seed, "actions-test", label)


def random_group(rng, spec, shape=()):
    return GroupElement(spec, exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape))).entries)


def random_jet1(rng, spec, n, shape=()):
    g = random_group(rng, spec, shape)
    return Jet1Gauge(spec, g.entries, random_algebra_entries(rng, spec, shape + (n,)))


def random_jet2(rng, spec, n, shape=()):
    j1 = random_jet1(rng, spec, n, shape)
    s = random_algebra_entries(rng, spec, shape + (n, n))
    s = 0.5 * (s + np.swapaxes(s, -4, -3))
    return Jet2Gauge(spec, j1.g, j1.a, s)


def random_jc(rng, spec, n, shape=()):
    return JetConnection(
        spec,
        random_algebra_entries(rng, spec, shape + (n,)),
        random_algebra_entries(rng, spec, shape + (n, n)),
    )


def random_vec(rng, k):
    return rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)


class TestMatterAndVariation:
    def test_identity(self):
        rng = rnd(0)
        phi = RepVector(SU3, random_vec(rng, 3))
        eye = GroupElement(SU3, np.eye(3))
        assert np.array_equal(rep_act(eye, phi).entries, phi.entries)

    def test_composition(self):
        rng = rnd(1)
        g, h = random_group(rng, SU3), random_group(rng, SU3)
        phi = RepVector(SU3, random_vec(rng, 3))
        lhs = rep_act(g, rep_act(h, phi))
        rhs = rep_act(multiply(g, h), phi)
        assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12

    def test_norm_preserved_su3(self):
        rng = rnd(2)
        g = random_group(rng, SU3)
        phi = RepVector(SU3, random_vec(rng, 3))
        assert abs(
            np.linalg.norm(rep_act(g, phi).entries) - np.linalg.norm(phi.entries)
        ) < 1e-12

    def test_variation_linear(self):
        rng = rnd(3)
        g = random_group(rng, SU2)
        v = RepVector(SU2, random_vec(rng, 2))
        scaled = RepVector(SU2, 2.5 * v.entries)
        assert np.max(
            np.abs(rep_act(g, scaled).entries - 2.5 * rep_act(g, v).entries)
        ) < 1e-14

    def test_variation_matches_parameter_derivative(self):
        # transforming d/ds phi_s|_0 equals d/ds of the transformed family
        rng = rnd(4)
        g = random_group(rng, SU2)
        phi0 = random_vec(rng, 2)
        dphi = random_vec(rng, 2)

        def moved(s):
            return rep_act(g, RepVector(SU2, phi0 + s * dphi)).entries

        svals = (1e-3, 5e-4)
        errs = []
        exact = rep_act(g, RepVector(SU2, dphi)).entries
        for s in svals:
            fd = (moved(s) - moved(-s)) / (2 * s)
            errs.append(np.max(np.abs(fd - exact)))
        # linear action: the centered difference is exact to roundoff
        assert errs[0] < 1e-12


class TestJetMatterAction:
    def test_unit_jet(self):
        rng = rnd(5)
        jm = JetMatter(SU2, random_vec(rng, 2), np.stack([random_vec(rng, 2) for _ in range(2)]))
        out = act_jet_matter(jet1_unit(SU2, 2), jm)
        assert np.max(np.abs(out.phi - jm.phi)) == 0.0
        assert np.max(np.abs(out.dphi - jm.dphi)) == 0.0

    def test_constant_jet_reduces_to_plain_action(self):
        rng = rnd(6)
        g = random_group(rng, SU2)
        jet = Jet1Gauge(SU2, g.entries, np.zeros((2, 2, 2)))
        jm = JetMatter(SU2, random_vec(rng, 2), np.stack([random_vec(rng, 2) for _ in range(2)]))
        out = act_jet_matter(jet, jm)
        assert np.max(np.abs(out.phi - g.entries @ jm.phi)) < 1e-15
        assert np.max(np.abs(out.dphi - jm.dphi @ g.entries.T)) < 1e-15

    @given(st.sampled_from(REP_SPECS), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_is_tangent_act_per_axis(self, spec, n, seed):
        rng = rnd(seed, "per-axis")
        jet = random_jet1(rng, spec, n, (2, 3))
        k = spec.rep_dim
        jm = JetMatter(spec, random_vec(rng, (2, 3, k)), random_vec(rng, (2, 3, n, k)))
        out = act_jet_matter(jet, jm)
        # eps per accumulation step of the N-, N^2- and k-term sums, on O(1) data
        tol = 4 * (2 * spec.n + spec.n**2 + 2 * k) * np.finfo(float).eps
        for mu in range(n):
            q, qdot = tangent_act(
                jet.group_element(),
                AlgebraElement(spec, jet.a[..., mu, :, :]),
                RepVector(spec, jm.phi),
                RepVector(spec, jm.dphi[..., mu, :]),
            )
            assert np.max(np.abs(out.phi - q.entries)) <= tol
            assert np.max(np.abs(out.dphi[..., mu, :] - qdot.entries)) <= tol

    def test_action_property(self):
        rng = rnd(7)
        j, k = random_jet1(rng, SU3, 2), random_jet1(rng, SU3, 2)
        jm = JetMatter(SU3, random_vec(rng, 3), np.stack([random_vec(rng, 3) for _ in range(2)]))
        lhs = act_jet_matter(jet1_mul(j, k), jm)
        rhs = act_jet_matter(j, act_jet_matter(k, jm))
        assert np.max(np.abs(lhs.phi - rhs.phi)) < 1e-13
        assert np.max(np.abs(lhs.dphi - rhs.dphi)) < 1e-13

    def test_chain_rule_against_fd(self):
        h = 0.05
        p = Patch((20, 20), spacing=h)
        rng = rnd(8)
        factor = SingleGenerator(Polynomial(0.1, (0.4, -0.3)), random_algebra_entries(rng, SU2))
        gs = sample_gauge(p, SU2, ProductGauge((factor,)))
        ms = sample_matter(
            p,
            SU2,
            PlaneWaveMatter((0.7, 0.3 - 0.2j), ((0.5, 0.1), (-0.3, 0.4)), (0.0, 0.5)),
        )
        from gaugejets.lie_core import rep_matrix

        moved_vals = Field(
            p,
            RepVector(
                SU2,
                np.einsum(
                    "...ij,...j->...i", rep_matrix(gs.values.value), ms.values.value.entries
                ),
            ),
        )
        lhs = jet_matter_of(moved_vals).value
        rhs = act_jet_matter(jet1_of(gs.values).value, jet_matter_of(ms.values).value)
        inner = p.interior(1).slices()
        err = np.max(np.abs(lhs.dphi - rhs.dphi), axis=(-2, -1))[inner]
        assert np.max(err) <= 10 * h * h


class TestConnectionAction:
    def test_unit(self):
        rng = rnd(9)
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (2,)))
        out = act_connection(jet1_unit(SU2, 2), A)
        assert np.max(np.abs(out.entries - A.entries)) == 0.0

    def test_pure_gauge(self):
        rng = rnd(10)
        jet = random_jet1(rng, SU2, 2)
        zero = AlgebraElement(SU2, np.zeros((2, 2, 2)))
        out = act_connection(jet, zero)
        assert np.max(np.abs(out.entries + jet.a)) == 0.0

    def test_u1_electromagnetic_shift(self):
        # g = exp(i chi(x)): A -> A - i dchi
        p = Patch((16, 16), spacing=0.1)
        chi = Polynomial(0.3, (0.7, -0.2), ((0.4, 0.1), (0.1, -0.5)))
        gs = sample_gauge(p, U1, ProductGauge((SingleGenerator(chi, np.array([[1j]])),)))
        rng = rnd(11)
        alpha = rng.uniform(-1, 1, (2,))
        A = AlgebraElement(
            U1, np.broadcast_to(1j * alpha[:, None, None], p.extent + (2, 1, 1)).copy()
        )
        out = act_connection(gs.jet1.value, A)
        x = p.coords()
        _, grad = chi.evaluate(x, 1)
        expected = 1j * (alpha - grad)
        assert np.max(np.abs(out.entries[..., 0, 0] - expected[..., :])) < 1e-14

    def test_action_property(self):
        rng = rnd(12)
        j, k = random_jet1(rng, SU3, 3), random_jet1(rng, SU3, 3)
        A = AlgebraElement(SU3, random_algebra_entries(rng, SU3, (3,)))
        lhs = act_connection(jet1_mul(j, k), A)
        rhs = act_connection(j, act_connection(k, A))
        assert np.max(frobenius(lhs.entries - rhs.entries)) < 1e-13


class TestJetConnectionAction:
    def test_unit(self):
        rng = rnd(13)
        jc = random_jc(rng, SU2, 2)
        out = act_jet_connection(jet2_unit(SU2, 2), jc)
        assert np.max(np.abs(out.A - jc.A)) == 0.0
        assert np.max(np.abs(out.dA - jc.dA)) == 0.0

    def test_constant_jet_conjugates(self):
        rng = rnd(14)
        g = random_group(rng, SU2)
        jet = Jet2Gauge(SU2, g.entries, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        jc = random_jc(rng, SU2, 2)
        out = act_jet_connection(jet, jc)
        gd = g.entries.conj().T
        assert np.max(np.abs(out.A - g.entries @ jc.A @ gd)) < 1e-15
        assert np.max(np.abs(out.dA - g.entries @ jc.dA @ gd)) < 1e-15

    def test_projection_consistency_with_first_order(self):
        rng = rnd(15)
        jet = random_jet2(rng, SU3, 2)
        jc = random_jc(rng, SU3, 2)
        out = act_jet_connection(jet, jc)
        first = act_connection(Jet1Gauge(SU3, jet.g, jet.a), jc.potential())
        assert np.max(np.abs(out.A - first.entries)) < 1e-14

    def test_action_property_order2(self):
        rng = rnd(16)
        j, k = random_jet2(rng, SU2, 2, (32,)), random_jet2(rng, SU2, 2, (32,))
        jc = random_jc(rng, SU2, 2, (32,))
        lhs = act_jet_connection(jet2_mul(j, k), jc)
        rhs = act_jet_connection(j, act_jet_connection(k, jc))
        assert np.max(frobenius(lhs.A - rhs.A)) < 1e-13
        assert np.max(frobenius(lhs.dA - rhs.dA)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_act_jet_connection_peak_memory(self, n):
        # su3, 1000 points.  n = 4 (GEMM conjugation) reads 3.001 dA.nbytes: the
        # result and one dA-sized pair-product stack at a time, since the one
        # bracket accumulates into Ad(g) dA in place.  n = 2 (``ad``
        # conjugation) reads 4.208
        rng = rnd(20)
        jet = random_jet2(rng, SU3, n, (1000,))
        jc = random_jc(rng, SU3, n, (1000,))
        act_jet_connection(jet, jc)
        tracemalloc.start()
        try:
            act_jet_connection(jet, jc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= {2: 4.25, 4: 3.05}[n] * jc.dA.nbytes

    def test_antisymmetrized_law_closed_form(self):
        # the antisymmetric part of the transformed derivative has a closed
        # form with no second-order jet data in it
        rng = rnd(17)
        jet = random_jet2(rng, SU2, 3)
        jc = random_jc(rng, SU2, 3)
        out = act_jet_connection(jet, jc)
        g, gd = jet.g, jet.g.conj().T
        adA = g @ jc.A @ gd
        for mu in range(3):
            for nu in range(3):
                got = out.dA[mu, nu] - out.dA[nu, mu]
                expect = (
                    g @ (jc.dA[mu, nu] - jc.dA[nu, mu]) @ gd
                    + (jet.a[mu] @ adA[nu] - adA[nu] @ jet.a[mu])
                    - (jet.a[nu] @ adA[mu] - adA[mu] @ jet.a[nu])
                    - (jet.a[mu] @ jet.a[nu] - jet.a[nu] @ jet.a[mu])
                )
                assert np.max(np.abs(got - expect)) < 1e-13

    def test_symmetric_part_closed_form(self):
        # symmetric part: conjugated sym dA plus symmetrized potential
        # brackets minus the full second-order component
        rng = rnd(18)
        jet = random_jet2(rng, SU2, 2)
        jc = random_jc(rng, SU2, 2)
        out = act_jet_connection(jet, jc)
        g, gd = jet.g, jet.g.conj().T
        adA = g @ jc.A @ gd
        sym_out = sym(out.dA)
        for mu in range(2):
            for nu in range(2):
                br_mn = jet.a[mu] @ adA[nu] - adA[nu] @ jet.a[mu]
                br_nm = jet.a[nu] @ adA[mu] - adA[mu] @ jet.a[nu]
                expect = (
                    0.5 * (g @ (jc.dA[mu, nu] + jc.dA[nu, mu]) @ gd)
                    + 0.5 * (br_mn + br_nm)
                    - jet.s[mu, nu]
                )
                assert np.max(np.abs(sym_out[mu, nu] - expect)) < 1e-13

    def test_fd_chain_rule(self):
        h = 0.05
        p = Patch((24, 24), spacing=h)
        rng = rnd(19)
        from gaugejets.analytic import random_connection_family, random_gauge_family, sample_connection

        gs = sample_gauge(
            p, SU2, random_gauge_family(rng, SU2, 2, factors=2, scale=0.5)
        )
        cs = sample_connection(
            p, SU2, random_connection_family(rng, SU2, 2, scale=0.5)
        )
        moved = act_connection(gs.jet1.value, cs.values.value)
        from gaugejets.jets import jet_connection_of

        lhs = jet_connection_of(Field(p, moved)).value
        rhs = act_jet_connection(
            jet2_of(gs.values).value, jet_connection_of(cs.values).value
        )
        inner = p.interior(2).slices()
        err = np.maximum(
            np.max(frobenius(lhs.A - rhs.A), axis=-1),
            np.max(frobenius(lhs.dA - rhs.dA), axis=(-2, -1)),
        )[inner]
        assert np.max(err) <= 50 * h * h


class TestCurvatureAction:
    def test_unit_and_abelian(self):
        rng = rnd(20)
        jc = random_jc(rng, U1, 3)
        f = curvature(jc)
        eye = GroupElement(U1, np.eye(1))
        assert np.max(np.abs(act_curvature(eye, f).comps - f.comps)) == 0.0
        g = random_group(rng, U1)
        assert np.max(np.abs(act_curvature(g, f).comps - f.comps)) < 1e-15

    @pytest.mark.parametrize("spec,n", [(SU2, 2), (SU2, 4), (SU3, 2), (SU3, 4)])
    def test_equivariance_random_batches(self, spec, n):
        rng = rnd(21, spec.label() + str(n))
        jets = random_jet2(rng, spec, n, (200,))
        jcs = random_jc(rng, spec, n, (200,))
        moved = curvature(act_jet_connection(jets, jcs))
        conjugated = act_curvature(jets.group_element(), curvature(jcs))
        assert np.max(distance(moved, conjugated)) <= 1e-10


class TestTransitivity:
    def test_zero_potential(self):
        A = AlgebraElement(SU2, np.zeros((2, 2, 2)))
        w = gauge_to_zero_jet1(A)
        assert np.max(np.abs(w.jet.a)) == 0.0
        assert np.max(w.residual) == 0.0

    def test_first_order_witness_any_potential(self):
        rng = rnd(22)
        A = AlgebraElement(SU3, random_algebra_entries(rng, SU3, (128, 3)))
        w = gauge_to_zero_jet1(A)
        assert np.max(w.residual) <= 1e-14

    def test_first_order_witness_carries_moved_potential(self):
        rng = rnd(27)
        A = AlgebraElement(SU3, random_algebra_entries(rng, SU3, (8, 3)))
        w = gauge_to_zero_jet1(A)
        assert np.array_equal(w.transformed.entries, act_connection(w.jet, A).entries)

    def test_witness_round_trip(self):
        rng = rnd(23)
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (2,)))
        w = gauge_to_zero_jet1(A)
        back = act_connection(jet1_inv(w.jet), act_connection(w.jet, A))
        assert np.max(frobenius(back.entries - A.entries)) <= 1e-12

    def test_second_order_witness_trivial(self):
        jc = JetConnection(SU2, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        w = gauge_to_zero_jet2(jc)
        assert np.max(w.residual) == 0.0
        assert np.max(np.abs(w.jet.s)) == 0.0

    def test_u1_symmetric_derivative_fully_killed(self):
        rng = rnd(24)
        A = random_algebra_entries(rng, U1, (2,))
        dA = sym(random_algebra_entries(rng, U1, (2, 2)))
        jc = JetConnection(U1, A, dA)  # curvature-free abelian data
        w = gauge_to_zero_jet2(jc)
        assert np.max(w.residual) <= 1e-14
        assert np.max(np.abs(w.transformed.dA)) <= 1e-14

    def test_su2_antisymmetric_part_is_half_curvature(self):
        rng = rnd(25)
        jc = random_jc(rng, SU2, 3, (64,))
        w = gauge_to_zero_jet2(jc)
        assert np.max(w.residual) <= 1e-12
        # the antisymmetric half of the moved dA is F/2; curvature doubles it
        gap = 0.5 * (curvature(w.transformed).comps - curvature(jc).comps)
        assert np.max(np.abs(gap)) <= 1e-12

    @given(st.sampled_from([U1, SU2, SU3, group_spec("sun", 4)]), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_second_order_witness_moves_potential_to_exact_zero(self, spec, n, seed):
        """The premise of the gauge_to_zero_2 suite's field-strength check: Ad by
        the identity is exact and A - A is 0, so the moved connection jet has
        A = 0 exactly and its curvature is its antisymmetrized dA bit for bit."""
        moved = gauge_to_zero_jet2(random_jc(rnd(seed, "fold"), spec, n, (16,))).transformed
        assert not np.any(moved.A.view(np.uint64))  # +0, sign bit included
        got = curvature(moved).comps
        anti = [moved.dA[..., mu, nu, :, :] - moved.dA[..., nu, mu, :, :] for mu, nu in curvature_pairs(n)]
        expect = np.stack(anti, axis=-3) if anti else np.zeros_like(got)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_residual_nonnegative(self):
        rng = rnd(26)
        jc = random_jc(rng, SU2, 2)
        w = gauge_to_zero_jet2(jc)
        assert np.all(np.asarray(w.residual) >= 0)
