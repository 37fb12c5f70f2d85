"""Grids, central differences, quadrature, and analytic sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets.analytic import (
    CoefficientConnection,
    ConstantGauge,
    Polynomial,
    SingleGenerator,
    Sinusoid,
    UnknownFamilyError,
    sample_connection,
    sample_gauge,
    sample_matter,
    PlaneWaveMatter,
)
from gaugejets.lie_core import group_spec
from gaugejets.patch import (
    Field,
    Patch,
    Region,
    RegionError,
    central_diff,
    default_patch,
    integrate,
)
from sampling import random_algebra_element, random_group_element

SU2 = group_spec("su2")
U1 = group_spec("u1")


class TestPatch:
    def test_defaults(self):
        assert default_patch(1).extent == (257,)
        assert default_patch(2).extent == (64, 64)
        assert default_patch(4).extent == (12, 12, 12, 12)
        assert default_patch(2).spacing == (0.05, 0.05)

    def test_validation(self):
        with pytest.raises(RegionError):
            Patch((4, 8))  # too few points
        with pytest.raises(RegionError):
            Patch((8, 8), spacing=-0.1)

    def test_coords(self):
        p = Patch((5, 6), spacing=(0.5, 0.25), origin=(1.0, -1.0))
        x = p.coords()
        assert x.shape == (5, 6, 2)
        assert x[0, 0, 0] == 1.0 and x[0, 0, 1] == -1.0
        assert abs(x[2, 3, 0] - 2.0) < 1e-15
        assert abs(x[2, 3, 1] - (-0.25)) < 1e-15

    def test_refined_keeps_domain(self):
        p = Patch((64, 64), spacing=0.04)
        q = p.refined(0.02)
        assert q.extent == (127, 127)
        assert p.lengths == q.lengths

    def test_refined_rounds_the_point_count(self):
        # h = 0.07 does not divide the side 3.0, so the refined box is 3.01
        p = Patch((16, 16), spacing=0.2)
        q = p.refined(0.07)
        assert q.extent == (44, 44)
        assert p.lengths == pytest.approx((3.0, 3.0), abs=1e-12)
        assert q.lengths == pytest.approx((3.01, 3.01), abs=1e-12)


class TestRegion:
    def test_empty_rejected(self):
        with pytest.raises(RegionError):
            Region((3, 3), (3, 5))

    def test_boundary_layer_excluded(self):
        p = Patch((8, 8))
        with pytest.raises(RegionError):
            Region((0, 1), (7, 7)).validate(p)
        Region((1, 1), (7, 7)).validate(p)  # ok

    def test_margin_respected(self):
        p = Patch((8, 8))
        with pytest.raises(RegionError):
            Region((1, 1), (7, 7)).validate(p, margin=2)


class TestPartial:
    """``central_diff``, the one finite-difference stencil every jet is built from."""

    def test_constant_field_zero(self):
        p = Patch((9, 9))
        d = central_diff(np.full(p.extent, 2.5), 0, p.spacing[0])
        inner = d[p.interior(1).slices()]
        assert np.max(np.abs(inner)) == 0.0

    def test_exact_on_affine_dyadic_grid(self):
        # dyadic spacing makes the affine case bit-exact, not just accurate
        p = Patch((17, 17), spacing=0.0625)
        x = p.coords()[..., 0]
        d = central_diff(x, 0, p.spacing[0])
        assert np.all(d[p.interior(1).slices()] == 1.0)

    def test_sin_oracle_and_convergence(self):
        def max_err(h):
            n = int(round(4.0 / h)) + 1
            p = Patch((n,), spacing=h)
            x = p.coords()[..., 0]
            inner = p.interior(1).slices()
            return float(np.max(np.abs(central_diff(np.sin(x), 0, h)[inner] - np.cos(x)[inner])))

        err = max_err(0.01)
        assert err <= 2e-5
        ratio = max_err(0.01) / max_err(0.005)
        assert 3.5 <= ratio <= 4.5

    def test_linear(self):
        p = Patch((9, 9))
        x = p.coords()
        f = np.sin(x[..., 0] * x[..., 1])
        g = np.cos(x[..., 0])
        h = p.spacing[1]
        lhs = central_diff(2.0 * f + 3.0 * g, 1, h)
        rhs = 2.0 * central_diff(f, 1, h) + 3.0 * central_diff(g, 1, h)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_commutes_with_constant_conjugation(self):
        # conjugating by a fixed group element before or after differencing
        # agrees to roundoff (the operations are linear)
        p = Patch((9, 9))
        spec = SU2
        g0 = random_group_element(3, spec)
        xfield = np.stack(
            [np.sin(p.coords()[..., 0]), np.cos(p.coords()[..., 1])], axis=-1
        )
        m = xfield[..., 0, None, None] * random_algebra_element(1, spec).entries + (
            xfield[..., 1, None, None] * random_algebra_element(2, spec).entries
        )
        conj = g0.entries @ m @ g0.entries.conj().T
        h = p.spacing[0]
        lhs = central_diff(conj, 0, h)
        rhs = g0.entries @ central_diff(m, 0, h) @ g0.entries.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_mixed_partials_commute_to_h2(self):
        p = Patch((33, 33), spacing=0.05)
        x = p.coords()
        f = np.sin(x[..., 0]) * np.cos(2 * x[..., 1])
        h = p.spacing
        d01 = central_diff(central_diff(f, 0, h[0]), 1, h[1])
        d10 = central_diff(central_diff(f, 1, h[1]), 0, h[0])
        inner = p.interior(2).slices()
        diff = np.max(np.abs(d01[inner] - d10[inner]))
        # third derivatives of f are O(1); both stencils approximate the
        # same mixed derivative so the gap is far below 10 h^2
        assert diff <= 10 * 0.05**2


class TestIntegrate:
    def test_constant_density(self):
        p = Patch((16, 16), spacing=0.25)
        region = Region((2, 3), (10, 9))
        got = integrate(Field(p, np.ones(p.extent)), region)
        assert got == region.npoints * p.cell_volume

    def test_zero_density(self):
        p = Patch((8, 8))
        assert integrate(Field(p, np.zeros(p.extent)), Region((1, 1), (7, 7))) == 0.0

    def test_sin_over_full_period(self):
        n = 256
        h = 2 * math.pi / n
        p = Patch((n + 2,), spacing=h, origin=-h)
        x = p.coords()[..., 0]
        region = Region((1,), (n + 1,))  # exactly one period of sample points
        val = integrate(Field(p, np.sin(x)), region)
        assert abs(val) <= 1e-3

    def test_region_outside_interior_rejected(self):
        p = Patch((8, 8))
        with pytest.raises(RegionError):
            integrate(Field(p, np.zeros(p.extent)), Region((0, 1), (7, 7)))
        with pytest.raises(RegionError):
            integrate(
                Field(p, np.zeros(p.extent), margin=2), Region((1, 1), (7, 7))
            )

    def test_additive_over_disjoint_split_dyadic(self):
        # dyadic data: the compensated sum makes the split exact
        rng = np.random.default_rng(0)
        p = Patch((34, 18), spacing=0.0625)
        vals = rng.integers(-1024, 1024, size=p.extent).astype(float) / 1024.0
        f = Field(p, vals)
        whole = Region((1, 1), (33, 17))
        left = Region((1, 1), (20, 17))
        right = Region((20, 1), (33, 17))
        assert integrate(f, whole) == integrate(f, left) + integrate(f, right)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_additive_within_one_ulp_generic(self, seed):
        rng = np.random.default_rng(seed)
        p = Patch((20, 12), spacing=0.3)
        f = Field(p, rng.normal(size=p.extent))
        whole = Region((1, 1), (19, 11))
        left = Region((1, 1), (9, 11))
        right = Region((9, 1), (19, 11))
        a = integrate(f, whole)
        b = integrate(f, left) + integrate(f, right)
        assert abs(a - b) <= 4 * np.finfo(float).eps * max(1.0, abs(a))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(5)
        p = Patch((30, 30))
        vals = rng.normal(size=p.extent)
        region = Region((1, 1), (29, 29))
        a = integrate(Field(p, vals), region)
        b = integrate(Field(p, vals.copy()), region)
        assert a == b


class TestSampleAnalytic:
    def test_constant_family(self):
        p = Patch((6, 6))
        g0 = random_group_element(9, SU2)
        sample = sample_gauge(p, SU2, ConstantGauge(g0.entries))
        jet2 = sample.jet2.value
        assert np.max(np.abs(jet2.g - g0.entries)) == 0.0
        assert np.max(np.abs(jet2.a)) == 0.0
        assert np.max(np.abs(jet2.s)) == 0.0

    def test_u1_plane_wave_jets(self):
        p = Patch((12, 12), spacing=0.1)
        k = (0.8, -0.3)
        fam = SingleGenerator(Polynomial(0.0, k), np.array([[1j]]))
        sample = sample_gauge(p, U1, fam)
        jet = sample.jet1.value
        x = p.coords()
        phase = x @ np.asarray(k)
        assert np.max(np.abs(jet.g[..., 0, 0] - np.exp(1j * phase))) < 1e-13
        for mu in range(2):
            assert np.max(np.abs(jet.a[..., mu, 0, 0] - 1j * k[mu])) < 1e-15

    def test_su2_single_generator_polynomial(self):
        p = Patch((10, 10), spacing=0.1)
        x_gen = random_algebra_element(3, SU2)
        fn = Polynomial(0.2, (0.5, -0.7), ((0.0, 1.0), (1.0, 0.0)))  # f = ... + x1 x2
        sample = sample_gauge(p, SU2, SingleGenerator(fn, x_gen.entries))
        jet2 = sample.jet2.value
        x = p.coords()
        grad0 = 0.5 + x[..., 1]
        assert np.max(np.abs(jet2.a[..., 0, :, :] - grad0[..., None, None] * x_gen.entries)) < 1e-14
        # s_12 = s_21 = X, diagonal components vanish
        assert np.max(np.abs(jet2.s[..., 0, 1, :, :] - x_gen.entries)) < 1e-15
        assert np.array_equal(jet2.s[..., 0, 1, :, :], jet2.s[..., 1, 0, :, :])
        assert np.max(np.abs(jet2.s[..., 0, 0, :, :])) == 0.0

    def test_unknown_family_rejected(self):
        p = Patch((6, 6))
        with pytest.raises(UnknownFamilyError):
            sample_gauge(p, SU2, object())

    def test_matter_plane_wave_derivatives(self):
        p = Patch((8, 8), spacing=0.1)
        fam = PlaneWaveMatter(
            amps=(1.0 + 0.5j, -0.25j),
            waves=((0.4, 0.0), (0.1, -0.9)),
            phases=(0.0, 1.2),
        )
        sample = sample_matter(p, SU2, fam)
        jet = sample.jet.value
        assert np.max(np.abs(jet.dphi[..., 0, 0] - 1j * 0.4 * jet.phi[..., 0])) < 1e-15

    def test_connection_coefficients(self):
        p = Patch((8, 8), spacing=0.1)
        fns = tuple(
            tuple(Polynomial(0.1 * (i + j)) for j in range(SU2.algebra_dim))
            for i in range(2)
        )
        sample = sample_connection(p, SU2, CoefficientConnection(fns))
        jc = sample.jet.value
        assert np.max(np.abs(jc.dA)) == 0.0  # constant coefficients
