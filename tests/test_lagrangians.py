"""Densities, the covariant derivative, action integrals."""

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
from gaugejets.jets import Jet1Gauge, JetConnection, JetMatter, curvature, curvature_pairs, sym
from gaugejets.lagrangians import covariant_derivative, gauge_density, matter_density
from gaugejets.lie_core import (
    AlgebraElement,
    GroupElement,
    RepVector,
    exp,
    frobenius,
    group_spec,
    random_algebra_entries,
    rep_act,
    seeded_rng,
)
from gaugejets.patch import Field, Patch, Points, Region, default_patch, integrate

SU2 = group_spec("su2")
U1 = group_spec("u1")


def rnd(seed, label="x"):
    return seeded_rng(seed, "lagr-test", label)


def coupled(kind, A, jm):
    """The density named ``kind`` on (phi, D_A phi): minimally coupled."""
    return matter_density(*covariant_derivative(A, jm))[kind]


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
        assert matter_density(phi, dphi)["free"] == 0.0

    def test_free_invariant_under_group(self):
        rng = rnd(3)
        g = GroupElement(SU2, exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2))).entries)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi = RepVector(SU2, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        moved_phi = rep_act(g, phi)
        moved_dphi = RepVector(SU2, np.einsum("ij,mj->mi", g.entries, dphi.entries))
        a, b = matter_density(phi, dphi), matter_density(moved_phi, moved_dphi)
        for kind in ("free", "phi4"):
            assert abs(a[kind] - b[kind]) < 1e-12

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
                    matter_density(moved_phi, moved_dphi)["broken"]
                    - matter_density(phi, dphi)["broken"]
                )
            )
        assert max(violations) > 1e-3

    def test_density_real_and_free_nonneg(self):
        rng = rnd(5)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi = RepVector(SU2, rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        val = matter_density(phi, dphi)["free"]
        assert np.isrealobj(val) and val >= 0

    def test_minkowski_flag_changes_contraction_only(self):
        rng = rnd(6)
        phi = RepVector(SU2, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        dphi_e = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        dphi = RepVector(SU2, dphi_e)
        e = matter_density(phi, dphi, metric="euclidean")["free"]
        m = matter_density(phi, dphi, metric="minkowski")["free"]
        t = np.sum(np.abs(dphi_e[0]) ** 2)
        s = np.sum(np.abs(dphi_e[1]) ** 2)
        assert abs(e - (t + s)) < 1e-14
        assert abs(m - (t - s)) < 1e-14


class TestMinimalCoupling:
    def test_zero_potential_reduces_to_vec_density(self):
        rng = rnd(7)
        jm = random_jm(rng, SU2, 2)
        A = AlgebraElement(SU2, np.zeros((2, 2, 2)))
        plain = matter_density(RepVector(SU2, jm.phi), RepVector(SU2, jm.dphi))["free"]
        assert coupled("free", A, jm) == plain

    def test_gauge_invariance_pointwise(self):
        rng = rnd(9)
        jm = random_jm(rng, SU2, 2, (512,))
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (512, 2)))
        jet = random_jet1(rng, SU2, 2, (512,))
        for kind in ("free", "phi4"):
            a = coupled(kind, A, jm)
            b = coupled(kind, act_connection(jet, A), act_jet_matter(jet, jm))
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_broken_violates(self):
        rng = rnd(10)
        jm = random_jm(rng, SU2, 2, (512,))
        A = AlgebraElement(SU2, random_algebra_entries(rng, SU2, (512, 2)))
        jet = random_jet1(rng, SU2, 2, (512,))
        moved = coupled("broken", act_connection(jet, A), act_jet_matter(jet, jm))
        gap = np.abs(coupled("broken", A, jm) - moved)
        assert np.max(gap) > 1e-3


class TestGaugeDensity:
    def test_flat_connection(self):
        jc = JetConnection(SU2, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        assert gauge_density(jc) == {"yang_mills": 0.0, "broken": 0.0}

    def test_u1_constant_field_strength_oracle(self):
        # n = 2, F_12 = i b: yang-mills density is b^2 / 2 at coupling 1
        b = 0.37
        dA = np.zeros((2, 2, 1, 1), dtype=complex)
        dA[0, 1] = 0.5j * b
        dA[1, 0] = -0.5j * b
        jc = JetConnection(U1, np.zeros((2, 1, 1)), dA)
        assert abs(gauge_density(jc)["yang_mills"] - b * b / 2) < 1e-15

    def test_yang_mills_nonnegative_and_real(self):
        rng = rnd(11)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (64, 3)),
            random_algebra_entries(rng, SU2, (64, 3, 3)),
        )
        val = gauge_density(jc)["yang_mills"]
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
        a, b = gauge_density(jc), gauge_density(jc2)
        assert abs(a["broken"] - b["broken"]) > 1e-6
        assert abs(a["yang_mills"] - b["yang_mills"]) < 1e-14


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
class TestClosedForms:
    """Each density equals its closed form bit for bit on one batch, written with
    the parameter values it is built with: quartic coupling 0.5, vacuum 1, linear
    term 1 and gauge coupling 1."""

    signs = {"euclidean": np.ones(3), "minkowski": np.array([1.0, -1.0, -1.0])}

    def test_matter(self, metric):
        jm = random_jm(rnd(30), SU2, 3, (64,))
        kinetic = np.einsum("m,...mj->...", self.signs[metric], (jm.dphi.conj() * jm.dphi).real)
        norm2 = np.sum((jm.phi.conj() * jm.phi).real, axis=-1)
        lam, v, c = 0.5, 1.0, 1.0
        vals = matter_density(RepVector(SU2, jm.phi), RepVector(SU2, jm.dphi), metric)
        assert list(vals) == ["free", "phi4", "broken"]
        assert np.array_equal(vals["free"], kinetic)
        assert np.array_equal(vals["phi4"], kinetic + lam * (norm2 - v**2) ** 2)
        assert np.array_equal(vals["broken"], kinetic + c * jm.phi[..., 0].real)

    def test_gauge(self, metric):
        rng = rnd(31)
        jc = JetConnection(
            SU2,
            random_algebra_entries(rng, SU2, (64, 3)),
            random_algebra_entries(rng, SU2, (64, 3, 3)),
        )
        signs = self.signs[metric]
        weights = np.array([signs[mu] * signs[nu] for mu, nu in curvature_pairs(3)])
        quad = np.einsum("p,...p->...", weights, frobenius(curvature(jc).comps) ** 2)
        sym_term = np.sum(frobenius(sym(jc.dA)) ** 2, axis=(-2, -1))
        coupling = 1.0
        vals = gauge_density(jc, metric)
        assert list(vals) == ["yang_mills", "broken"]
        assert np.array_equal(vals["yang_mills"], quad / (2.0 * coupling**2))
        assert np.array_equal(vals["broken"], (quad + sym_term) / (2.0 * coupling**2))


class TestActionFunctionals:
    """Action integrals over a region, of densities sampled on its ``Points`` alone."""

    def test_zero_density(self):
        points = Points(Patch((8, 8)), Region((1, 1), (7, 7)))
        assert integrate(Field(points, np.zeros(points.extent)), points.region) == 0.0

    def test_matter_action_gauge_invariant_on_grid(self):
        p = Patch((24, 24), spacing=0.05)
        points = Points(p, p.interior(1))
        spec = SU2
        rng = rnd(17)
        cs = sample_connection(points, spec, random_connection_family(rng, spec, 2))
        ms = sample_matter(points, spec, random_matter_family(rng, spec, 2))
        gs = sample_gauge(points, spec, random_gauge_family(rng, spec, 2))
        region = points.region
        A, jm, jet = cs.values.value, ms.jet.value, gs.jet1.value
        s0 = integrate(Field(points, coupled("free", A, jm)), region)
        s1 = integrate(
            Field(points, coupled("free", act_connection(jet, A), act_jet_matter(jet, jm))), region
        )
        assert abs(s1 - s0) <= region.npoints * 1e-12


def plain_action(points, jm):
    """The free action of a matter jet on its plain (phi, d phi)."""
    density = matter_density(RepVector(jm.spec, jm.phi), RepVector(jm.spec, jm.dphi))["free"]
    return integrate(Field(points, density), points.region)


def interval():
    """The points of the interior of the default line."""
    line = default_patch(1)
    return Points(line, line.interior(1))


class TestMechanics:
    def test_free_particle_constant_group_invariance(self):
        points = interval()
        rng = rnd(18)
        ms = sample_matter(points, SU2, random_matter_family(rng, SU2, 1))
        s0 = plain_action(points, ms.jet.value)
        g0 = exp(AlgebraElement(SU2, random_algebra_entries(rng, SU2)))
        const_jet = Jet1Gauge(
            SU2,
            np.broadcast_to(g0.entries, points.extent + (2, 2)).copy(),
            np.zeros(points.extent + (1, 2, 2)),
        )
        s1 = plain_action(points, act_jet_matter(const_jet, ms.jet.value))
        assert abs(s1 - s0) <= 1e-12 * points.npoints

    def test_time_dependent_group_breaks_plain_action(self):
        points = interval()
        rng = rnd(19)
        ms = sample_matter(points, SU2, random_matter_family(rng, SU2, 1))
        gs = sample_gauge(points, SU2, random_gauge_family(rng, SU2, 1, factors=2))
        s0 = plain_action(points, ms.jet.value)
        s1 = plain_action(points, act_jet_matter(gs.jet1.value, ms.jet.value))
        assert abs(s1 - s0) > 1e-3

    def test_covariantized_action_survives(self):
        points = interval()
        rng = rnd(20)
        ms = sample_matter(points, SU2, random_matter_family(rng, SU2, 1))
        gs = sample_gauge(points, SU2, random_gauge_family(rng, SU2, 1, factors=2))
        cs = sample_connection(points, SU2, random_connection_family(rng, SU2, 1))
        A, jm, jet = cs.values.value, ms.jet.value, gs.jet1.value
        s0 = integrate(Field(points, coupled("free", A, jm)), points.region)
        s1 = integrate(
            Field(points, coupled("free", act_connection(jet, A), act_jet_matter(jet, jm))),
            points.region,
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
