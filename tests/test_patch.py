"""Grids, central differences, quadrature, and analytic sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets.analytic import (
    CoefficientConnection,
    Polynomial,
    ProductGauge,
    SingleGenerator,
    Sinusoid,
    UnknownFamilyError,
    sample_connection,
    sample_gauge,
    sample_matter,
    PlaneWaveMatter,
)
from gaugejets.lie_core import exp, group_spec
from gaugejets.patch import (
    BLOCK_BYTES,
    Patch,
    Points,
    Region,
    RegionError,
    central_diff,
    default_patch,
    integrate,
    point_blocks,
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
        for spacing in (1e-310, 5e-324):  # below the smallest normal float 1 / 2h overflows
            with pytest.raises(RegionError, match="at a spacing of at least"):
                Patch((8, 8), spacing=(0.1, spacing))

    @pytest.mark.parametrize(
        "inf, huge",
        [({"spacing": math.inf}, {"spacing": 10**400}), ({"origin": (math.inf, 0)}, {"origin": (10**400, 0)})],
        ids=["spacing", "origin"],
    )
    def test_integer_beyond_the_floats_refused_like_inf(self, inf, huge):
        """``float`` raises ``OverflowError`` for an integer no float holds; the patch
        refuses it with the ``RegionError`` that inf gets."""
        for kwargs in (inf, huge):
            with pytest.raises(RegionError):
                Patch((6, 6), **kwargs)

    def test_unsizable_axis_refused(self):
        """numpy refuses to size a 10^20-point arange (ValueError, not MemoryError) and
        allocates none of it; the patch refuses the axis as it refuses one too large."""
        with pytest.raises(RegionError, match="axis 1"):
            Patch((5, 10**20))
        with pytest.raises(RegionError, match="axis 0"):  # converge refines to such an axis
            Patch((6, 6), 1e150, (1e160, 0.0)).refined(0.04)

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
        p = Patch((8, 6))
        assert p.interior(1) == Region((1, 1), (7, 5))

    def test_margin_respected(self):
        p = Patch((8, 6))
        assert p.interior(2) == Region((2, 2), (6, 4))


def stencil(arr, axis, h):
    """``central_diff`` into a fresh zeroed array, as the jet builders use it."""
    return central_diff(arr, axis, h, np.zeros_like(arr))


class TestPartial:
    """``central_diff``, the one finite-difference stencil every jet is built from."""

    def test_writes_only_the_interior_of_out(self):
        p = Patch((7, 6))
        x = p.coords()[..., 0] ** 2
        out = np.full(p.extent + (2,), 9.0)[..., 1]  # a strided slot, as in a stacked derivative
        assert central_diff(x, 0, p.spacing[0], out) is out
        assert np.all(out[0] == 9.0) and np.all(out[-1] == 9.0)
        assert np.array_equal(out[1:-1], (x[2:] - x[:-2]) / (2.0 * p.spacing[0]))

    def test_constant_field_zero(self):
        p = Patch((9, 9))
        d = stencil(np.full(p.extent, 2.5), 0, p.spacing[0])
        inner = d[p.interior(1).slices()]
        assert np.max(np.abs(inner)) == 0.0

    def test_exact_on_affine_dyadic_grid(self):
        # dyadic spacing makes the affine case bit-exact, not just accurate
        p = Patch((17, 17), spacing=0.0625)
        x = p.coords()[..., 0]
        d = stencil(x, 0, p.spacing[0])
        assert np.all(d[p.interior(1).slices()] == 1.0)

    def test_sin_oracle_and_convergence(self):
        def max_err(h):
            n = int(round(4.0 / h)) + 1
            p = Patch((n,), spacing=h)
            x = p.coords()[..., 0]
            inner = p.interior(1).slices()
            return float(np.max(np.abs(stencil(np.sin(x), 0, h)[inner] - np.cos(x)[inner])))

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
        lhs = stencil(2.0 * f + 3.0 * g, 1, h)
        rhs = 2.0 * stencil(f, 1, h) + 3.0 * stencil(g, 1, h)
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
        lhs = stencil(conj, 0, h)
        rhs = g0.entries @ stencil(m, 0, h) @ g0.entries.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_mixed_partials_commute_to_h2(self):
        p = Patch((33, 33), spacing=0.05)
        x = p.coords()
        f = np.sin(x[..., 0]) * np.cos(2 * x[..., 1])
        h = p.spacing
        d01 = stencil(stencil(f, 0, h[0]), 1, h[1])
        d10 = stencil(stencil(f, 1, h[1]), 0, h[0])
        inner = p.interior(2).slices()
        diff = np.max(np.abs(d01[inner] - d10[inner]))
        # third derivatives of f are O(1); both stencils approximate the
        # same mixed derivative so the gap is far below 10 h^2
        assert diff <= 10 * 0.05**2


def _integral(patch: Patch, vals: np.ndarray, region: Region) -> float:
    """The integral over ``region`` of grid data on ``patch``, taken on the region's points."""
    return integrate(vals[region.slices()], Points(patch, region))


class TestPointBlocks:
    @pytest.mark.parametrize("npoints, point_bytes", [(10, 1 << 20), (100_000, 16), (5, 0), (7, 300)])
    def test_blocks_cover_the_points_in_order(self, npoints, point_bytes):
        """Consecutive blocks of at most ``BLOCK_BYTES`` (one point where a point is
        larger, all points where a point has no bytes), the first the largest."""
        blocks = point_blocks(npoints, point_bytes)
        assert [i for rows in blocks for i in range(npoints)[rows]] == list(range(npoints))
        widths = [rows.stop - rows.start for rows in blocks]
        assert widths[0] == max(widths)
        assert all(w == 1 or w * point_bytes <= BLOCK_BYTES for w in widths)


class TestIntegrate:
    """``integrate`` of densities on the ``Points`` of their region."""

    def test_constant_density(self):
        p = Patch((16, 16), spacing=0.25)
        region = Region((2, 3), (10, 9))
        got = _integral(p, np.ones(p.extent), region)
        assert got == region.npoints * p.cell_volume

    def test_zero_density(self):
        p = Patch((8, 8))
        assert _integral(p, np.zeros(p.extent), Region((1, 1), (7, 7))) == 0.0

    def test_sin_over_full_period(self):
        n = 256
        h = 2 * math.pi / n
        p = Patch((n + 2,), spacing=h, origin=-h)
        points = Points(p, Region((1,), (n + 1,)))  # exactly one period of sample points
        val = integrate(np.sin(points.coords()[..., 0]), points)
        assert abs(val) <= 1e-3

    def test_density_on_the_whole_patch_refused(self):
        p = Patch((8, 8))
        with pytest.raises(RegionError, match="points of"):
            integrate(np.zeros(p.extent), p)

    def test_additive_over_disjoint_split_dyadic(self):
        # dyadic data: the compensated sum makes the split exact
        rng = np.random.default_rng(0)
        p = Patch((34, 18), spacing=0.0625)
        vals = rng.integers(-1024, 1024, size=p.extent).astype(float) / 1024.0
        whole = Region((1, 1), (33, 17))
        left = Region((1, 1), (20, 17))
        right = Region((20, 1), (33, 17))
        assert _integral(p, vals, whole) == _integral(p, vals, left) + _integral(p, vals, right)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_additive_within_one_ulp_generic(self, seed):
        rng = np.random.default_rng(seed)
        p = Patch((20, 12), spacing=0.3)
        vals = rng.normal(size=p.extent)
        whole = Region((1, 1), (19, 11))
        left = Region((1, 1), (9, 11))
        right = Region((9, 1), (19, 11))
        a = _integral(p, vals, whole)
        b = _integral(p, vals, left) + _integral(p, vals, right)
        assert abs(a - b) <= 4 * np.finfo(float).eps * max(1.0, abs(a))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(5)
        p = Patch((30, 30))
        vals = rng.normal(size=p.extent)
        region = Region((1, 1), (29, 29))
        assert _integral(p, vals, region) == _integral(p, vals.copy(), region)


POINTS_PATCHES = [
    Patch((9,), 0.1),
    Patch((7, 6), 0.2),
    Patch((5, 6, 7), 0.2),
    Patch((5, 5, 5, 5), 0.15),
    Patch((16, 16), 0.2, (1000.0, 0.0)),
    Patch((16, 16), 1e-4),
    Patch((16, 16), 2.0),
]


class TestPoints:
    """A region's points carry the patch's own coordinates, so data sampled on
    them equal the whole patch's data on that region."""

    @pytest.mark.parametrize(
        "patch", POINTS_PATCHES, ids=lambda p: f"{p.extent}-{p.spacing[0]}-{p.origin[0]}"
    )
    def test_coords_are_the_patch_coords_on_the_region(self, patch):
        region = patch.interior(1)
        points = Points(patch, region)
        want = patch.coords()[region.slices()]
        assert points.extent == want.shape[:-1] and points.dim == patch.dim
        assert points.npoints == region.npoints
        assert np.array_equal(points.coords(), want)

    def test_a_rebased_patch_rounds_differently(self):
        # why the points are cut from the patch: a patch started at origin + h
        # does not reproduce the coordinates of a far-off origin
        patch = Patch((16, 16), 0.2, (1000.0, 0.0))
        rebased = Patch((14, 14), 0.2, (1000.2, 0.2))
        assert not np.array_equal(rebased.coords(), Points(patch, patch.interior(1)).coords())

    @pytest.mark.parametrize("patch", POINTS_PATCHES[:4], ids=lambda p: f"{p.dim}d")
    def test_integrate_matches_the_whole_patch(self, patch):
        region = patch.interior(1)
        family = PlaneWaveMatter((0.7 + 0.2j,), ((1.3,) * patch.dim,), (0.4,))
        points = Points(patch, region)
        whole, part = (
            np.abs(sample_matter(grid, U1, family).values.value.entries[..., 0]) ** 2
            for grid in (patch, points)
        )
        assert np.array_equal(part, whole[region.slices()])
        want = math.fsum(whole[region.slices()].ravel().tolist()) * patch.cell_volume
        assert integrate(part, points) == want


class TestSampleAnalytic:
    def test_constant_family(self):
        # exp(c X) of a constant polynomial c: the same group element at every point
        p = Patch((6, 6))
        x = random_algebra_element(9, SU2)
        sample = sample_gauge(p, SU2, ProductGauge((SingleGenerator(Polynomial(1.0), x.entries),)))
        jet2 = sample.jet2.value
        assert np.array_equal(jet2.g, np.broadcast_to(jet2.g[0, 0], jet2.g.shape))
        assert np.max(np.abs(jet2.g[0, 0] - exp(x).entries)) < 1e-15
        assert np.max(np.abs(jet2.a)) == 0.0
        assert np.max(np.abs(jet2.s)) == 0.0

    def test_u1_plane_wave_jets(self):
        p = Patch((12, 12), spacing=0.1)
        k = (0.8, -0.3)
        fam = ProductGauge((SingleGenerator(Polynomial(0.0, k), np.array([[1j]])),))
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
        sample = sample_gauge(p, SU2, ProductGauge((SingleGenerator(fn, x_gen.entries),)))
        jet2 = sample.jet2.value
        x = p.coords()
        grad0 = 0.5 + x[..., 1]
        assert np.max(np.abs(jet2.a[..., 0, :, :] - grad0[..., None, None] * x_gen.entries)) < 1e-14
        # s holds s_11, s_12, s_22: s_12 = X, diagonal components vanish
        assert jet2.s.shape == p.extent + (3, 2, 2)
        assert np.max(np.abs(jet2.s[..., 1, :, :] - x_gen.entries)) < 1e-15
        assert np.max(np.abs(jet2.s[..., [0, 2], :, :])) == 0.0

    def test_unknown_family_rejected(self):
        p = Patch((6, 6))
        with pytest.raises(UnknownFamilyError):
            sample_gauge(p, SU2, object())
        with pytest.raises(UnknownFamilyError):  # a family is a product, even of one factor
            sample_gauge(p, SU2, SingleGenerator(Polynomial(1.0), random_algebra_element(1, SU2).entries))

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
