"""Densities, the covariant derivative, curvature factorization, action integrals."""

import numpy as np
import pytest

from gaugejets.actions import act_connection, act_jet_matter
from gaugejets.analytic import (
    random_connection_family,
    random_gauge_family,
    random_matter_family,
    sample_connection,
    sample_gauge,
    sample_matter,
)
from gaugejets.jets import Jet1Gauge, JetConnection, JetMatter, curvature
from gaugejets.lagrangians import (
    GaugeKind,
    GaugeLagrangianSpec,
    MatterKind,
    MatterLagrangianSpec,
    covariant_derivative,
    free_velocity_density,
    gauge_density,
    matter_density_vec,
    mechanics_action,
    utiyama_factor,
)
from gaugejets.lie_core import (
    AlgebraElement,
    GroupElement,
    RepVector,
    exp,
    group_spec,
    random_algebra_entries,
    rep_act,
    seeded_rng,
)
from gaugejets.patch import Field, Patch, Region, default_patch, integrate

SU2 = group_spec("su2")
U1 = group_spec("u1")

FREE = MatterLagrangianSpec(MatterKind.FREE)
PHI4 = MatterLagrangianSpec(MatterKind.PHI4, lam=0.5, v=1.0)
BROKEN = MatterLagrangianSpec(MatterKind.BROKEN, c=1.0)


def rnd(seed, label="x"):
    return seeded_rng(seed, "lagr-test", label)


def coupled(spec, A, jm):
    """The minimally coupled density: ``spec`` on (phi, D_A phi)."""
    return matter_density_vec(spec, *covariant_derivative(A, jm))


def random_jm(rng, spec, n, shape=()):
    k = spec.rep_dim
    phi = rng.uniform(-1, 1, shape + (k,)) + 1j * rng.uniform(-1, 1, shape + (k,))
    dphi = rng.uniform(-1, 1, shape + (n, k)) + 1j * rng.uniform(-1, 1, shape + (n, k))
    return JetMatter(spec, phi, dphi)


def random_jet1(rng, spec, n, shape=()):
    g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape)))
    return Jet1Gauge(spec, g.entries, random_algebra_entries(rng, spec, shape + (n,)))


class TestCovariantDerivative:
    def test_zero_potential(self):
        rng = rnd(0)
        jm = random_jm(rng, SU2, 2)
        A = AlgebraElement(SU2, np.zeros((2, 2, 2)))
        phi, dphi = covariant_derivative(A, jm)
        assert np.array_equal(dphi.entries, jm.dphi)

    def test_linear_in_matter(self):
        rng = rnd(1)
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (2,)))
        zero = JetMatter(SU2, np.zeros(2), np.zeros((2, 2)))
        _, dphi = covariant_derivative(A, zero)
        assert np.max(np.abs(dphi.entries)) == 0.0

    def test_equivariance(self):
        rng = rnd(2)
        for spec in (U1, SU2, group_spec("su3")):
            jm = random_jm(rng, spec, 3, (256,))
            A = AlgebraElement(spec, random_algebra_entries(rng, spec, (256, 3)))
            jet = random_jet1(rng, spec, 3, (256,))
            g = GroupElement(spec, jet.g)
            phi1, dphi1 = covariant_derivative(
                act_connection(jet, A), act_jet_matter(jet, jm)
            )
            phi0, dphi0 = covariant_derivative(A, jm)
            expect_phi = rep_act(g, phi0).entries
            expect_dphi = np.einsum("...ij,...mj->...mi", g.entries, dphi0.entries)
            assert np.max(np.abs(phi1.entries - expect_phi)) < 1e-12
            assert np.max(np.abs(dphi1.entries - expect_dphi)) < 1e-12


class TestMatterDensity:
    def test_zero_data(self):
        phi = RepVector(SU2, np.zeros(2))
        dphi = RepVector(SU2, np.zeros((2, 2)))
        assert matter_density_vec(FREE, phi, dphi) == 0.0

    def test_free_invariant_under_group(self):
        rng = rnd(3)
        g = GroupElement(SU2, exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2))).entries)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi = RepVector(SU2, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        moved_phi = rep_act(g, phi)
        moved_dphi = RepVector(SU2, np.einsum("ij,mj->mi", g.entries, dphi.entries))
        for spec in (FREE, PHI4):
            a = matter_density_vec(spec, phi, dphi)
            b = matter_density_vec(spec, moved_phi, moved_dphi)
            assert abs(a - b) < 1e-12

    def test_broken_changes_under_generic_group_element(self):
        rng = rnd(4)
        violations = []
        for _ in range(32):
            g = GroupElement(
                SU2, exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2))).entries
            )
            phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            dphi = RepVector(SU2, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
            moved_phi = rep_act(g, phi)
            moved_dphi = RepVector(SU2, np.einsum("ij,mj->mi", g.entries, dphi.entries))
            violations.append(
                abs(
                    matter_density_vec(BROKEN, moved_phi, moved_dphi)
                    - matter_density_vec(BROKEN, phi, dphi)
                )
            )
        assert max(violations) > 1e-3

    def test_density_real_and_free_nonneg(self):
        rng = rnd(5)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi = RepVector(SU2, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        val = matter_density_vec(FREE, phi, dphi)
        assert np.isrealobj(val) and val >= 0

    def test_minkowski_flag_changes_contraction_only(self):
        rng = rnd(6)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi_e = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        dphi = RepVector(SU2, dphi_e)
        e = matter_density_vec(FREE, phi, dphi, metric="euclidean")
        m = matter_density_vec(FREE, phi, dphi, metric="minkowski")
        t = np.sum(np.abs(dphi_e[0]) ** 2)
        s = np.sum(np.abs(dphi_e[1]) ** 2)
        assert abs(e - (t + s)) < 1e-14
        assert abs(m - (t - s)) < 1e-14


class TestMinimalCoupling:
    def test_zero_potential_reduces_to_vec_density(self):
        rng = rnd(7)
        jm = random_jm(rng, SU2, 2)
        A = AlgebraElement(SU2, np.zeros((2, 2, 2)))
        plain = matter_density_vec(FREE, RepVector(SU2, jm.phi), RepVector(SU2, jm.dphi))
        assert coupled(FREE, A, jm) == plain

    def test_gauge_invariance_pointwise(self):
        rng = rnd(9)
        jm = random_jm(rng, SU2, 2, (512,))
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (512, 2)))
        jet = random_jet1(rng, SU2, 2, (512,))
        for spec in (FREE, PHI4):
            a = coupled(spec, A, jm)
            b = coupled(spec, act_connection(jet, A), act_jet_matter(jet, jm))
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_broken_violates(self):
        rng = rnd(10)
        jm = random_jm(rng, SU2, 2, (512,))
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (512, 2)))
        jet = random_jet1(rng, SU2, 2, (512,))
        moved = coupled(BROKEN, act_connection(jet, A), act_jet_matter(jet, jm))
        gap = np.abs(coupled(BROKEN, A, jm) - moved)
        assert np.max(gap) > 1e-3


class TestGaugeDensity:
    def test_flat_connection(self):
        jc = JetConnection(SU2, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        for kind in GaugeKind:
            spec = GaugeLagrangianSpec(kind, coupling=1.3)
            assert gauge_density(spec, jc) == 0.0

    def test_u1_constant_field_strength_oracle(self):
        # n = 2, F_12 = i b: yang-mills density is b^2 / (2 e^2)
        b, e = 0.37, 1.3
        dA = np.zeros((2, 2, 1, 1), dtype=complex)
        dA[0, 1] = 0.5j * b
        dA[1, 0] = -0.5j * b
        jc = JetConnection(U1, np.zeros((2, 1, 1)), dA)
        spec = GaugeLagrangianSpec(GaugeKind.YANG_MILLS, coupling=e)
        assert abs(gauge_density(spec, jc) - b * b / (2 * e * e)) < 1e-15

    def test_yang_mills_nonnegative_and_real(self):
        rng = rnd(11)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (64, 3)),
            random_algebra_entries(rng, SU2, (64, 3, 3)),
        )
        val = gauge_density(GaugeLagrangianSpec(GaugeKind.YANG_MILLS), jc)
        assert np.isrealobj(val) and np.all(val >= 0)

    def test_broken_gauge_separates_equal_curvature(self):
        rng = rnd(12)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (2,)),
            random_algebra_entries(rng, SU2, (2, 2)),
        )
        shift = random_algebra_entries(rng, SU2, (2, 2))
        shift = 0.5 * (shift + np.swapaxes(shift, -4, -3))
        jc2 = JetConnection(SU2, jc.A, jc.dA + shift)
        assert np.max(np.abs(curvature(jc).comps - curvature(jc2).comps)) < 1e-15
        spec = GaugeLagrangianSpec(GaugeKind.BROKEN_GAUGE)
        assert abs(gauge_density(spec, jc) - gauge_density(spec, jc2)) > 1e-6
        ym = GaugeLagrangianSpec(GaugeKind.YANG_MILLS)
        assert abs(gauge_density(ym, jc) - gauge_density(ym, jc2)) < 1e-14


class TestUtiyama:
    def _frob_density(self, f):
        from gaugejets.lie_core import frobenius

        return np.sum(frobenius(f.comps) ** 2, axis=-1)

    def test_zero_density(self):
        factored = utiyama_factor(lambda f: np.zeros(f.batch_shape), SU2, 2)
        rng = rnd(13)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (2,)),
            random_algebra_entries(rng, SU2, (2, 2)),
        )
        assert factored(jc) == 0.0

    def test_reproduces_frobenius_gauge_density(self):
        factored = utiyama_factor(self._frob_density, SU2, 3)
        rng = rnd(14)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (16, 3)),
            random_algebra_entries(rng, SU2, (16, 3, 3)),
        )
        # yang_mills at coupling 1 halves the curvature quadratic; doubling is exact
        direct = 2 * gauge_density(GaugeLagrangianSpec(GaugeKind.YANG_MILLS), jc)
        assert np.max(np.abs(factored(jc) - direct)) < 1e-12

    def test_level_sets(self):
        factored = utiyama_factor(self._frob_density, SU2, 2)
        rng = rnd(15)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (100, 2)),
            random_algebra_entries(rng, SU2, (100, 2, 2)),
        )
        shift = random_algebra_entries(rng, SU2, (100, 2, 2))
        shift = 0.5 * (shift + np.swapaxes(shift, -4, -3))
        jc2 = JetConnection(SU2, jc.A, jc.dA + shift)
        assert np.max(np.abs(factored(jc) - factored(jc2))) <= 1e-12

    def test_rejects_noninvariant_curvature_density(self):
        def lopsided(f):
            # reads a single diagonal entry (imaginary for anti-hermitian
            # matrices): not conjugation invariant
            return f.comps[..., 0, 0, 0].imag if f.comps.size else np.zeros(f.batch_shape)

        with pytest.raises(ValueError):
            utiyama_factor(lopsided, SU2, 2)


class TestActionFunctionals:
    def test_zero_density(self):
        p = Patch((8, 8))
        region = Region((1, 1), (7, 7))
        assert integrate(Field(p, np.zeros(p.extent)), region) == 0.0

    def test_matter_action_gauge_invariant_on_grid(self):
        p = Patch((24, 24), spacing=0.05)
        spec = SU2
        rng = rnd(17)
        cs = sample_connection(p, spec, random_connection_family(rng, spec, 2))
        ms = sample_matter(p, spec, random_matter_family(rng, spec, 2))
        gs = sample_gauge(p, spec, random_gauge_family(rng, spec, 2))
        region = p.interior(1)
        A, jm, jet = cs.values.value, ms.jet.value, gs.jet1.value
        s0 = integrate(Field(p, coupled(FREE, A, jm)), region)
        s1 = integrate(
            Field(p, coupled(FREE, act_connection(jet, A), act_jet_matter(jet, jm))), region
        )
        assert abs(s1 - s0) <= region.npoints * 1e-12


class TestMechanics:
    def test_free_particle_constant_group_invariance(self):
        line = default_patch(1)
        rng = rnd(18)
        ms = sample_matter(line, SU2, random_matter_family(rng, SU2, 1))
        interval = line.interior(1)
        s0 = mechanics_action(free_velocity_density, ms.jet, interval)
        g0 = exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2)))
        jm = ms.jet.value
        const_jet = Jet1Gauge(
            SU2,
            np.broadcast_to(g0.entries, line.extent + (2, 2)).copy(),
            np.zeros(line.extent + (1, 2, 2)),
        )
        moved = act_jet_matter(const_jet, jm)
        s1 = mechanics_action(free_velocity_density, ms.jet.with_value(moved), interval)
        assert abs(s1 - s0) <= 1e-12 * interval.npoints

    def test_time_dependent_group_breaks_plain_action(self):
        line = default_patch(1)
        rng = rnd(19)
        ms = sample_matter(line, SU2, random_matter_family(rng, SU2, 1))
        gs = sample_gauge(line, SU2, random_gauge_family(rng, SU2, 1, factors=2))
        interval = line.interior(1)
        s0 = mechanics_action(free_velocity_density, ms.jet, interval)
        moved = act_jet_matter(gs.jet1.value, ms.jet.value)
        s1 = mechanics_action(free_velocity_density, ms.jet.with_value(moved), interval)
        assert abs(s1 - s0) > 1e-3

    def test_covariantized_action_survives(self):
        line = default_patch(1)
        rng = rnd(20)
        ms = sample_matter(line, SU2, random_matter_family(rng, SU2, 1))
        gs = sample_gauge(line, SU2, random_gauge_family(rng, SU2, 1, factors=2))
        cs = sample_connection(line, SU2, random_connection_family(rng, SU2, 1))
        interval = line.interior(1)
        A, jm, jet = cs.values.value, ms.jet.value, gs.jet1.value
        s0 = integrate(Field(line, coupled(FREE, A, jm)), interval)
        s1 = integrate(
            Field(line, coupled(FREE, act_connection(jet, A), act_jet_matter(jet, jm))),
            interval,
        )
        assert abs(s1 - s0) <= 1e-10

    def test_one_dimensional_curvature_vanishes(self):
        rng = rnd(21)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (1,)),
            random_algebra_entries(rng, SU2, (1, 1)),
        )
        assert curvature(jc).comps.size == 0

    def test_requires_one_dimensional_patch(self):
        p = Patch((8, 8))
        rng = rnd(22)
        jm = JetMatter(
            SU2,
            rng.uniform(size=p.extent + (2,)) + 0j,
            rng.uniform(size=p.extent + (2, 2)) + 0j,
        )
        with pytest.raises(Exception):
            mechanics_action(free_velocity_density, Field(p, jm), p.interior(1))
