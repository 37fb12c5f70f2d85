"""Jet types, jet group laws, connection-jet decomposition, curvature."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets.actions import act_jet_connection
from gaugejets.analytic import (
    Polynomial,
    ProductGauge,
    SingleGenerator,
    Sinusoid,
    random_gauge_family,
    sample_gauge,
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
    jet2_inv,
    jet2_mul,
    jet2_of,
    jet2_unit,
    jet_connection_of,
    maurer_cartan_defect,
    sym,
    sym_pairs,
)
from gaugejets.lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    ad,
    dagger,
    distance,
    exp,
    frobenius,
    group_spec,
    mm,
    random_algebra_entries,
    seeded_rng,
)
from gaugejets.patch import Field, Patch
from test_lie_core import gamma
from test_packed_s import packed, unpack

SU2 = group_spec("su2")
SU3 = group_spec("su3")
U1 = group_spec("u1")
SU4 = group_spec("sun", 4)
# (group, n) pairs whose jet laws conjugate through ``ad``: u(1), or n <= 2
AD_PATH = [(U1, n) for n in range(1, 5)] + [(spec, n) for spec in (SU2, SU3, SU4) for n in (1, 2)]


def random_jet1(seed, spec, n, batch=()):
    rng = seeded_rng(seed, "test-jet1", spec.label())
    g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, batch))).entries
    a = random_algebra_entries(rng, spec, batch + (n,))
    return Jet1Gauge(spec, g, a)


def random_jet2(seed, spec, n, batch=()):
    rng = seeded_rng(seed, "test-jet2", spec.label())
    g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, batch))).entries
    a = random_algebra_entries(rng, spec, batch + (n,))
    s = sym_pairs(random_algebra_entries(rng, spec, batch + (n, n)))
    return Jet2Gauge(spec, g, a, s)


def random_jet_connection(seed, spec, n, batch=()):
    rng = seeded_rng(seed, "test-jc", spec.label())
    A = random_algebra_entries(rng, spec, batch + (n,))
    dA = random_algebra_entries(rng, spec, batch + (n, n))
    return JetConnection(spec, A, dA)


class TestJetTypes:
    def test_flatness_recovery(self):
        # the connection law takes d_mu a_nu = s + (1/2)[a_mu, a_nu] from the
        # flatness identity, so on zero connection data it returns -d a:
        # symmetrizing gives s back, antisymmetrizing the bracket
        j = random_jet2(1, SU2, 3)
        zero = JetConnection(SU2, np.zeros((3, 2, 2)), np.zeros((3, 3, 2, 2)))
        da = -act_jet_connection(j, zero).dA
        assert np.max(np.abs(sym_pairs(da) - j.s)) < 1e-15
        anti = da - np.swapaxes(da, -4, -3)
        for mu in range(3):
            for nu in range(3):
                amu, anu = j.a[mu], j.a[nu]
                assert (
                    np.max(np.abs(anti[mu, nu] - (amu @ anu - anu @ amu))) < 1e-14
                )

    @pytest.mark.parametrize("n", [1, 3])
    def test_n_axes_read_from_layout(self, n):
        # the jet types share one ``n_axes``; Curvature keeps its own field
        j2 = random_jet2(0, SU2, n, (4,))
        jc = random_jet_connection(0, SU2, n, (4,))
        jm = JetMatter(SU2, np.zeros((4, 2)), np.zeros((4, n, 2)))
        j1 = Jet1Gauge(SU2, j2.g, j2.a)
        assert j2.n_axes == j1.n_axes == jc.n_axes == jm.n_axes == n
        assert curvature(jc).n_axes == n
        assert np.array_equal(j2.group_element().entries, j1.group_element().entries)

    def test_group_element_is_one_object_per_jet(self):
        """Every action by one jet reads one ``GroupElement``, so they share its R(g)."""
        j2 = random_jet2(0, SU2, 2, (4,))
        for jet in (j2, Jet1Gauge(SU2, j2.g, j2.a)):
            assert jet.group_element() is jet.group_element()

    def test_curvature_packed_antisymmetry(self):
        # one component per pair mu < nu; swapping two base axes negates F_01
        jc = random_jet_connection(2, SU2, 3)
        f = curvature(jc)
        assert f.comps.shape == (len(curvature_pairs(3)), 2, 2)
        swap = [1, 0, 2]
        swapped = curvature(JetConnection(SU2, jc.A[swap], jc.dA[swap][:, swap]))
        assert np.max(np.abs(swapped.comps[0] + f.comps[0])) < 1e-15


EPS = np.finfo(np.float64).eps


def jet_tol(spec, *jets):
    """Roundoff budget of one jet group law on the given factors.

    Each step is an addition or an N x N complex product through ``mm``,
    which errs by at most (N + 2) eps ||A||_F ||B||_F: the componentwise
    bound of ``assert_matches_matmul`` in ``test_lie_core``, in Frobenius
    norm.  Let M = max(1, largest ||a_mu||_F or ||s_munu||_F of the
    factors).  Ad(g) keeps Frobenius norms and ||g||_F = sqrt(N), so one
    product leaves a within 2M and s within 4M^2, no product's operands
    reach past 4 sqrt(N) M^2, and a bracket with a (at most 2M) carries an
    earlier Ad error of 2 sqrt(N) M (N + 2) eps into the same range.  A law
    makes at most 28 products: 7 per ``jet2_mul`` (g h, two per Ad of b and
    of t, two for the bracket), 4 per ``jet2_inv``, and associativity
    multiplies twice on each side.  The additions, a few eps M^2 each, fit
    in the slack of charging every product at the largest operand size.
    """
    m = max(1.0, *(float(np.max(frobenius(x), initial=0.0)) for j in jets for x in (j.a, j.s)))
    return 28 * 4 * np.sqrt(spec.n) * (spec.n + 2) * m**2 * EPS


class TestJetGroupLaws:
    @given(st.sampled_from([U1, SU2, SU3, SU4]), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_group_laws(self, spec, n, seed):
        """Associativity, unit and inverse of both jet products, on 8 points."""
        x, y, z = (random_jet2(seed + i, spec, n, (8,)) for i in range(3))
        tol = jet_tol(spec, x, y, z)
        orders = (
            (jet1_mul, jet1_inv, jet1_unit(spec, n, (8,)), [Jet1Gauge(spec, j.g, j.a) for j in (x, y, z)]),
            (jet2_mul, jet2_inv, jet2_unit(spec, n, (8,)), [x, y, z]),
        )
        for mul, inv, unit, (a, b, c) in orders:
            laws = {
                "associativity": (mul(mul(a, b), c), mul(a, mul(b, c))),
                "left unit": (mul(unit, a), a),
                "right unit": (mul(a, unit), a),
                "right inverse": (mul(a, inv(a)), unit),
                "left inverse": (mul(inv(a), a), unit),
            }
            for law, (lhs, rhs) in laws.items():
                err = np.max(distance(lhs, rhs))
                assert err <= tol, f"{mul.__name__} {law}: {err:.3e} > {tol:.3e}"

    @pytest.mark.parametrize("spec", [U1, SU2, SU3])
    def test_unit_and_inverse_order1(self, spec):
        j = random_jet1(3, spec, 2, (64,))
        unit = jet1_unit(spec, 2, (64,))
        assert np.max(distance(jet1_mul(unit, j), j)) < 1e-14
        assert np.max(distance(jet1_mul(j, unit), j)) < 1e-14
        assert np.max(distance(jet1_mul(j, jet1_inv(j)), unit)) < 1e-13
        assert np.max(distance(jet1_mul(jet1_inv(j), j), unit)) < 1e-13

    @pytest.mark.parametrize("spec", [U1, SU2, SU3])
    def test_associativity_order2(self, spec):
        a = random_jet2(4, spec, 2, (64,))
        b = random_jet2(5, spec, 2, (64,))
        c = random_jet2(6, spec, 2, (64,))
        lhs = jet2_mul(jet2_mul(a, b), c)
        rhs = jet2_mul(a, jet2_mul(b, c))
        assert np.max(distance(lhs, rhs)) < 1e-12

    @pytest.mark.parametrize("spec", [U1, SU2, SU3])
    def test_unit_and_inverse_order2(self, spec):
        j = random_jet2(7, spec, 2, (64,))
        unit = jet2_unit(spec, 2, (64,))
        assert np.max(distance(jet2_mul(j, unit), j)) < 1e-14
        assert np.max(distance(jet2_mul(unit, j), j)) < 1e-14
        assert np.max(distance(jet2_mul(j, jet2_inv(j)), unit)) < 1e-13

    def test_u1_second_order_reduces_to_addition(self):
        # abelian case: all bracket terms vanish, s components simply add
        a = random_jet2(8, U1, 2)
        b = random_jet2(9, U1, 2)
        prod = jet2_mul(a, b)
        assert np.max(np.abs(prod.s - (a.s + b.s))) < 1e-15
        assert np.max(np.abs(prod.a - (a.a + b.a))) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            jet1_mul(random_jet1(0, SU2, 2), random_jet1(0, SU3, 2))
        with pytest.raises(DimensionError):
            jet1_mul(random_jet1(0, SU2, 2), random_jet1(0, SU2, 3))

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_inverse_of_product(self, seed):
        j = random_jet1(seed, SU2, 2)
        k = random_jet1(seed + 1000, SU2, 2)
        lhs = jet1_inv(jet1_mul(j, k))
        rhs = jet1_mul(jet1_inv(k), jet1_inv(j))
        assert np.max(distance(lhs, rhs)) < 1e-13

    @given(st.sampled_from([U1, SU2, SU3, SU4]), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_second_order_results_exactly_symmetric(self, spec, n, seed):
        """Products, inverses and samples hold s on the n(n+1)/2 pairs mu <= nu,
        symmetric by construction, and the public constructor accepts them."""
        x = random_jet2(seed, spec, n, (8,))
        y = random_jet2(seed + 1, spec, n, (8,))
        family = random_gauge_family(seeded_rng(seed, "test-sym", spec.label()), spec, n, factors=3)
        sampled = sample_gauge(Patch((5,) * n, spacing=0.2), spec, family).jet2.value
        for jet in (jet2_mul(x, y), jet2_inv(x), sampled):
            assert jet.s.shape[-3] == n * (n + 1) // 2
            Jet2Gauge(spec, jet.g, jet.a, jet.s)

    @given(st.sampled_from(AD_PATH), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_pair_conjugation_matches_full_stack(self, case, seed):
        """Where conjugation runs on ``ad``, the inverse and the product's g and
        a have the bits of ``ad``.  The product's bracket takes the GEMM of
        ``pair_products``, so its s is held to the ``mm`` formula on the full
        stack within that kernel's bound (``pair_tol``), plus 2 eps of the
        summands' size for each of the three roundings that follow the
        products: the two additions and the symmetrization.  The GEMM
        conjugation (N >= 2, n >= 3) is checked in ``test_lie_core``."""
        spec, n = case
        x = random_jet2(seed, spec, n, (8,))
        y = random_jet2(seed + 1, spec, n, (8,))
        adb, ads, xs = ad(x.g, y.a), unpack(ad(x.g, y.s), n), unpack(x.s, n)
        am, bn = x.a[..., :, None, :, :], adb[..., None, :, :, :]
        t = ads + xs + mm(am, bn) - mm(bn, am)
        tol, mag = pair_tol(am, bn)
        tol += 6 * EPS * (np.abs(ads) + np.abs(xs) + mag)
        prod, ginv = jet2_mul(x, y), dagger(x.g)
        expected = (
            (prod, (mm(x.g, y.g), x.a + adb)),
            (jet2_inv(x), (ginv, -ad(ginv, x.a), -ad(ginv, x.s))),
        )
        for jet, fields in expected:
            for got, want in zip((jet.g, jet.a, jet.s), fields):
                assert np.array_equal(got, want)
        sym_t, sym_tol = (packed(0.5 * (z + np.swapaxes(z, -4, -3))) for z in (t, tol))
        assert np.all(np.abs(prod.s - sym_t) <= sym_tol)

    @pytest.mark.parametrize("n", [2, 4])
    def test_jet2_inv_peak_memory(self, n):
        # su3, 1000 points, in bytes of the packed s.  n = 4 (GEMM path) reads
        # 2.401: the result, one K(g) and -Ad(g^-1) a.  n = 2 (``ad`` path)
        # reads 4.279: a product and a temporary per mm step, with s
        # conjugated before a
        x = random_jet2(10, SU3, n, (1000,))
        jet2_inv(x)
        tracemalloc.start()
        try:
            out = jet2_inv(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= {2: 4.28, 4: 2.41}[n] * out.s.nbytes

    @pytest.mark.parametrize("n", [2, 4])
    def test_jet2_mul_peak_memory(self, n):
        # su3, 1000 points, in bytes of the packed s: n = 4 (GEMM conjugation)
        # reads 4.501, n = 2 (``ad`` conjugation, GEMM bracket) 5.004; both are
        # 2.813 and 3.753 bytes of the full (n, n) stack that sums the brackets
        x = random_jet2(10, SU3, n, (1000,))
        y = random_jet2(11, SU3, n, (1000,))
        jet2_mul(x, y)
        tracemalloc.start()
        try:
            out = jet2_mul(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= {2: 5.01, 4: 4.51}[n] * out.s.nbytes


class TestJetsOfSampledFields:
    def test_constant_field(self):
        p = Patch((8, 8))
        g0 = exp(AlgebraElement(SU2, random_algebra_entries(seeded_rng(0, "c"), SU2)))
        gfield = Field(
            p, GroupElement(SU2, np.broadcast_to(g0.entries, p.extent + (2, 2)).copy())
        )
        j2 = jet2_of(gfield)
        inner = p.interior(2).slices()
        assert np.max(np.abs(j2.value.a[inner])) == 0.0
        assert np.max(np.abs(j2.value.s[inner])) == 0.0
        assert j2.margin == 2

    def test_u1_plane_wave_fd_converges(self):
        k = (0.7, -0.4)

        def err(h):
            p = Patch((int(round(2.0 / h)) + 1,) * 2, spacing=h)
            sample = sample_gauge(
                p, U1, ProductGauge((SingleGenerator(Polynomial(0.0, k), np.array([[1j]])),))
            )
            jf = jet1_of(sample.values)
            inner = p.interior(1).slices()
            return np.max(distance(jf.value, sample.jet1.value)[inner])

        # FD error of the log-derivative of exp(i k.x) is |k_mu - sin(k_mu h)/h|,
        # about |k|^3 h^2 / 6
        e1, e2 = err(0.02), err(0.01)
        assert e1 < 5e-5
        assert 3.5 <= e1 / e2 <= 4.5

    def test_su2_single_generator_fd_matches_exact(self):
        p = Patch((20, 20), spacing=0.05)
        rng = seeded_rng(11, "sg")
        fam = ProductGauge(
            (SingleGenerator(Sinusoid(0.8, (0.6, -0.2), 0.3), random_algebra_entries(rng, SU2)),)
        )
        sample = sample_gauge(p, SU2, fam)
        j2 = jet2_of(sample.values)
        inner = p.interior(2).slices()
        assert np.max(distance(j2.value, sample.jet2.value)[inner]) <= 50 * 0.05**2

    @pytest.mark.parametrize("spec", [SU2, SU3])
    def test_functoriality_order1(self, spec):
        h = 0.05
        p = Patch((24, 24), spacing=h)
        rng = seeded_rng(12, "fun", spec.label())
        fams = [
            SingleGenerator(Sinusoid(0.5, (0.5, 0.3), 0.1), random_algebra_entries(rng, spec)),
            SingleGenerator(Polynomial(0.1, (0.4, -0.2), ((0.2, 0.1), (0.1, 0.0))),
                            random_algebra_entries(rng, spec)),
        ]
        s1 = sample_gauge(p, spec, ProductGauge(fams[:1]))
        s2 = sample_gauge(p, spec, ProductGauge(fams[1:]))
        prod_vals = Field(p, GroupElement(spec, s1.values.value.entries @ s2.values.value.entries))
        lhs = jet1_of(prod_vals).value
        rhs = jet1_mul(jet1_of(s1.values).value, jet1_of(s2.values).value)
        inner = p.interior(1).slices()
        assert np.max(distance(lhs, rhs)[inner]) <= 10 * h * h

    def test_functoriality_order2(self):
        h = 0.05
        p = Patch((24, 24), spacing=h)
        rng = seeded_rng(13, "fun2")
        fams = ProductGauge(
            (
                SingleGenerator(Sinusoid(0.5, (0.5, 0.3), 0.2), random_algebra_entries(rng, SU2)),
                SingleGenerator(Sinusoid(0.4, (-0.3, 0.4), 1.0), random_algebra_entries(rng, SU2)),
            )
        )
        single = SingleGenerator(
            Polynomial(0.0, (0.3, 0.2), ((0.1, 0.05), (0.05, -0.1))),
            random_algebra_entries(rng, SU2),
        )
        s1 = sample_gauge(p, SU2, fams)
        s2 = sample_gauge(p, SU2, ProductGauge((single,)))
        prod_vals = Field(p, GroupElement(SU2, s1.values.value.entries @ s2.values.value.entries))
        lhs = jet2_of(prod_vals).value
        rhs = jet2_mul(jet2_of(s1.values).value, jet2_of(s2.values).value)
        inner = p.interior(2).slices()
        assert np.max(distance(lhs, rhs)[inner]) <= 50 * h * h

    def test_maurer_cartan_of_sampled_field(self):
        def defect(h):
            p = Patch((int(round(1.2 / h)) + 1,) * 2, spacing=h)
            rng = seeded_rng(14, "mc")
            fam = ProductGauge(
                (
                    SingleGenerator(Sinusoid(0.6, (0.5, -0.3), 0.0), random_algebra_entries(rng, SU2)),
                    SingleGenerator(Sinusoid(0.5, (0.2, 0.6), 0.7), random_algebra_entries(rng, SU2)),
                )
            )
            sample = sample_gauge(p, SU2, fam)
            d = maurer_cartan_defect(jet1_of(sample.values))
            return float(np.max(d.value[p.interior(2).slices()]))

        d1, d2 = defect(0.02), defect(0.01)
        assert d1 <= 50 * 0.02**2
        assert 3.5 <= d1 / d2 <= 4.5


def pair_tol(x, y):
    """Entrywise bound of the two brackets' product rounding: ``pair_products``
    forms x y and y x each within 2 sqrt(2) gamma_2N (|x| |y|)_ij of ``mm``'s
    products (``lie_core.pair_products``); 1 + gamma_(N+4) covers the rounding of the
    magnitudes themselves."""
    big = x.shape[-1]
    mag = mm(np.abs(x), np.abs(y)) + mm(np.abs(y), np.abs(x))
    return 2 * np.sqrt(2) * gamma(2 * big) * (1 + gamma(big + 4)) * mag, mag


class TestBracketsMatchMm:
    """``curvature`` and ``maurer_cartan_defect`` take their brackets from one
    ``pair_products`` stack; the per-pair ``mm`` formula stays here as the
    oracle.  Beside the product bound of ``pair_tol``, the two additions on
    each side round the results apart by at most 2 eps of the summands' size
    each (complex rounding, sqrt(2) u per addition)."""

    @given(st.sampled_from([U1, SU2, SU3, SU4]), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_curvature(self, spec, n, seed):
        jc = random_jet_connection(seed, spec, n, (3,))
        got = curvature(jc).comps
        assert got.shape == (3, len(curvature_pairs(n)), spec.n, spec.n)
        for idx, (mu, nu) in enumerate(curvature_pairs(n)):
            amu, anu = jc.A[..., mu, :, :], jc.A[..., nu, :, :]
            d = jc.dA[..., mu, nu, :, :] - jc.dA[..., nu, mu, :, :]
            want = d + mm(amu, anu) - mm(anu, amu)
            tol, mag = pair_tol(amu, anu)
            tol += 4 * EPS * (np.abs(jc.dA[..., mu, nu, :, :]) + np.abs(jc.dA[..., nu, mu, :, :]) + mag)
            assert np.all(np.abs(got[..., idx, :, :] - want) <= tol)

    @given(st.sampled_from([U1, SU2, SU3, SU4]), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_maurer_cartan_defect(self, spec, n, seed):
        """The defect is a Frobenius norm per pair, so the per-entry bound enters
        through its Frobenius norm, and the norm's own rounding, gamma_(2N^2+4)
        of its value, is charged on both sides."""
        patch = Patch((5,) * n, spacing=0.2)
        family = random_gauge_family(seeded_rng(seed, "test-mc", spec.label()), spec, n, factors=2)
        j1 = sample_gauge(patch, spec, family).jet1
        a = j1.value.a
        da = jet_connection_of(Field(j1.patch, AlgebraElement(spec, a), j1.margin)).value.dA
        got = maurer_cartan_defect(j1).value
        want, slack = np.zeros(patch.extent), np.zeros(patch.extent)
        for mu, nu in curvature_pairs(n):
            amu, anu = a[..., mu, :, :], a[..., nu, :, :]
            d = da[..., mu, nu, :, :] - da[..., nu, mu, :, :] - (mm(amu, anu) - mm(anu, amu))
            tol, mag = pair_tol(amu, anu)
            tol += 4 * EPS * (np.abs(da[..., mu, nu, :, :]) + np.abs(da[..., nu, mu, :, :]) + mag)
            np.maximum(want, frobenius(d), out=want)
            np.maximum(slack, frobenius(tol), out=slack)
        big = spec.n
        assert got.shape == patch.extent
        assert np.all(np.abs(got - want) <= slack + 2 * gamma(2 * big * big + 4) * want)


class TestSplitAndCurvature:
    def test_sym_trivial_cases(self):
        # a symmetric slot comes back bit for bit, an antisymmetric one as 0
        dA = random_jet_connection(15, SU2, 3).dA
        sym0 = 0.5 * (dA + np.swapaxes(dA, -4, -3))
        assert np.array_equal(sym(sym0).view(np.uint64), sym0.view(np.uint64))
        anti0 = 0.5 * (dA - np.swapaxes(dA, -4, -3))
        assert not np.any(sym(anti0))

    def test_sym_is_exactly_symmetric(self):
        s = sym(random_jet_connection(16, SU3, 4).dA)
        assert np.array_equal(s, np.swapaxes(s, -4, -3))

    def test_zero_connection(self):
        n = 3
        jc = JetConnection(SU2, np.zeros((n, 2, 2)), np.zeros((n, n, 2, 2)))
        assert np.max(np.abs(curvature(jc).comps)) == 0.0

    def test_u1_affine_potential_oracle(self):
        # A_mu = i (c_mu + m_munu x^nu): F_munu = i (m_munu - m_numu)
        n = 2
        rng = seeded_rng(17, "affine")
        c = rng.uniform(-1, 1, n)
        m = rng.uniform(-1, 1, (n, n))
        A = 1j * c[:, None, None] * np.ones((n, 1, 1))
        dA = 1j * m.T[..., None, None] * np.ones((n, n, 1, 1))
        # d_mu A_nu = i m_numu: build dA[mu, nu] accordingly
        dA = np.zeros((n, n, 1, 1), dtype=complex)
        for mu in range(n):
            for nu in range(n):
                dA[mu, nu] = 1j * m[nu, mu]
        jc = JetConnection(U1, A, dA)
        f = curvature(jc)
        expected = 1j * (m[1, 0] - m[0, 1])
        assert abs(f.comps[0, 0, 0] - expected) < 1e-15

    def test_one_dimensional_curvature_is_empty(self):
        jc = random_jet_connection(18, SU2, 1)
        f = curvature(jc)
        assert f.comps.shape[-3] == 0
        assert curvature_pairs(1) == []

    def test_nonabelian_bracket_term(self):
        # constant potential, zero derivative: F = [A_mu, A_nu]
        rng = seeded_rng(19, "bracket")
        A = random_algebra_entries(rng, SU2, (2,))
        jc = JetConnection(SU2, A, np.zeros((2, 2, 2, 2)))
        f = curvature(jc)
        expected = A[0] @ A[1] - A[1] @ A[0]
        assert np.max(np.abs(f.comps[0] - expected)) < 1e-15
