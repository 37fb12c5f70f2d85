"""Discretized rectangular coordinate patch with sampled fields.

A Patch is an n-dimensional grid (1 <= n <= 4) with per-axis spacing.  A
Field ties a batched fiber value (grid axes leading) to a patch, or to the
``Points`` of a region of one, together with a ``margin``: the number of
boundary layers whose values are invalid, as produced by interior-only
central differences.  The spacing a finite-difference value was computed
at is the patch's own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .lie_core import DimensionError

MAX_DIM = 4
TINY = float(np.finfo(float).tiny)
# Bytes per block of every walk over the points of a grid (``point_blocks``): on su3,
# 10^4 points, n = 4, the s sum of ``analytic._combine`` took 25.4 ms at 16 KiB, 18.1 at
# 128 KiB, 17.6 at 256 KiB and 19.1 at 1 MiB (2-vCPU Xeon).
BLOCK_BYTES = 256 << 10


class RegionError(ValueError):
    """Region lies outside the valid interior of a patch or field."""


def _tuple_of(value, n: int, cast) -> tuple:
    if np.isscalar(value):
        return (cast(value),) * n
    out = tuple(cast(v) for v in value)
    if len(out) != n:
        raise DimensionError(f"expected {n} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class Patch:
    """Rectangular grid: per-axis point counts, spacings, and origin."""

    extent: tuple[int, ...]
    spacing: tuple[float, ...] = 0.05
    origin: tuple[float, ...] = 0.0

    def __post_init__(self):
        try:
            extent = tuple(operator.index(e) for e in np.atleast_1d(self.extent))
        except TypeError:
            raise DimensionError(f"extent must hold integer point counts, got {self.extent!r}") from None
        n = len(extent)
        if not 1 <= n <= MAX_DIM:
            raise DimensionError(f"patch dimension must be in [1, {MAX_DIM}], got {n}")
        if any(e < 5 for e in extent):
            raise RegionError("each axis needs at least 5 points for interior differences")
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "spacing", _tuple_of(self.spacing, n, float))
        object.__setattr__(self, "origin", _tuple_of(self.origin, n, float))
        # the exact rule on the coordinates the samplers read: it refuses a non-finite
        # origin or spacing, points that coincide or overflow, and a spacing below the
        # smallest normal float, where the 1 / 2h of a central difference overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for mu in range(n):
                try:
                    x = self.axis_coords(mu)
                except (MemoryError, ValueError):  # numpy refuses an arange it cannot size
                    raise RegionError(f"axis {mu}: {extent[mu]} points do not fit in memory") from None
                if not (self.spacing[mu] >= TINY and np.isfinite(x).all() and (x[1:] > x[:-1]).all()):
                    raise RegionError(
                        f"axis {mu}: the points {self.origin[mu]!r} + {self.spacing[mu]!r} * i "
                        f"must be finite and strictly increasing, at a spacing of at least {TINY!r}"
                    )

    @property
    def dim(self) -> int:
        return len(self.extent)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.extent))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, mu: int) -> np.ndarray:
        return self.origin[mu] + self.spacing[mu] * np.arange(self.extent[mu])

    def coords(self) -> np.ndarray:
        """Grid coordinates, shape (*extent, dim)."""
        axes = np.meshgrid(*(self.axis_coords(mu) for mu in range(self.dim)), indexing="ij")
        return np.stack(axes, axis=-1)

    def interior(self, margin: int = 1) -> "Region":
        lo = (margin,) * self.dim
        hi = tuple(e - margin for e in self.extent)
        return Region(lo, hi)

    @property
    def lengths(self) -> tuple[float, ...]:
        """Side lengths of the sampled box, (extent - 1) * spacing per axis."""
        return tuple((e - 1) * s for e, s in zip(self.extent, self.spacing))

    def refined(self, h: float) -> "Patch":
        """The box resampled at spacing h (used by convergence studies).

        The point count per axis is rounded, so when h does not divide a
        side length the refined box differs from this one: 16 x 16 at 0.2
        (side 3.0) refines at h = 0.07 to 44 x 44, side 3.01.
        """
        extent = tuple(int(round(length / h)) + 1 for length in self.lengths)
        return Patch(extent, (h,) * self.dim, self.origin)


@dataclass(frozen=True)
class Region:
    """Compact index box, half-open per axis: lo[mu] <= i < hi[mu]."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(i) for i in np.atleast_1d(self.lo))
        hi = tuple(int(i) for i in np.atleast_1d(self.hi))
        if len(lo) != len(hi):
            raise DimensionError("region bounds have mismatched dimensions")
        if any(a >= b for a, b in zip(lo, hi)):
            raise RegionError("region is empty")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def npoints(self) -> int:
        return int(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, b) for a, b in zip(self.lo, self.hi))


class Points:
    """The points of a region of a patch, a grid of the region's shape for the closed-form
    samplers.  Coordinates are cut from the patch's, so they round as the patch's do."""

    def __init__(self, patch: Patch, region: Region):
        self.patch, self.region, self.dim, self.npoints = patch, region, patch.dim, region.npoints
        self.extent = tuple(b - a for a, b in zip(region.lo, region.hi))

    def coords(self) -> np.ndarray:
        return self.patch.coords()[self.region.slices()]


@dataclass(eq=False)
class Field:
    """A fiber value sampled over every grid point of a patch, or of ``Points``.

    ``value`` is either a fiber object from lie_core/jets whose batch shape
    equals the grid shape, or a raw ndarray (grid axes leading) for scalar
    densities and intermediate component data.
    """

    patch: Patch
    value: Any
    margin: int = 0

    def __post_init__(self):
        batch = getattr(self.value, "batch_shape", None)
        if batch is None:
            arr = np.asarray(self.value)
            batch = arr.shape[: self.patch.dim]
            object.__setattr__(self, "value", arr)
        else:
            batch = batch[: self.patch.dim]
        if tuple(batch) != self.patch.extent:
            raise DimensionError(
                f"field value batch shape {batch} does not match patch extent {self.patch.extent}"
            )


def central_diff(arr: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Second-order central difference along a grid axis, written into the
    interior layers along ``axis`` of ``out`` (the shape of ``arr``), which is
    returned; its boundary layer stays as the caller allocated it (zeros, in
    the jet builders), and callers track validity through the field margin.
    """
    mid, plus, minus = ([slice(None)] * arr.ndim for _ in range(3))
    mid[axis], plus[axis], minus[axis] = slice(1, -1), slice(2, None), slice(None, -2)
    inner = np.subtract(arr[tuple(plus)], arr[tuple(minus)], out=out[tuple(mid)])
    inner /= 2.0 * h
    return out


def point_blocks(npoints: int, point_bytes: int) -> list[slice]:
    """The points 0 .. npoints - 1 cut into consecutive blocks of at most
    ``BLOCK_BYTES`` at ``point_bytes`` a point (one point where that is larger);
    the first block is the largest."""
    step = max(1, BLOCK_BYTES // max(point_bytes, 1))
    return [slice(lo, min(lo + step, npoints)) for lo in range(0, npoints, step)]


def integrate(vals: np.ndarray, points: Points) -> float:
    """Riemann sum, times h^n, of a real scalar density ``vals`` sampled on ``points``.

    Accumulation walks the region in lexicographic index order through an
    exact (compensated) sum with a single final rounding, so the result is
    bit-reproducible and independent of any worker partitioning.
    """
    if not isinstance(points, Points):
        raise RegionError(f"integrate takes the points of a region, got {type(points).__name__}")
    if np.shape(vals) != points.extent:
        raise DimensionError("integrate expects a real scalar density field")
    block = np.ascontiguousarray(vals, dtype=np.float64)
    if not np.all(np.isfinite(block)):
        raise ValueError("density contains non-finite values on the region")
    return math.fsum(block.ravel(order="C").tolist()) * points.patch.cell_volume


def default_patch(dim: int) -> Patch:
    """Desk-scale default grids at spacing 0.05: 257 / 64^2 / 16^3 / 12^4 points."""
    extent = {1: (257,), 2: (64, 64), 3: (16, 16, 16), 4: (12, 12, 12, 12)}[dim]
    return Patch(extent)


__all__ = [
    "Patch",
    "Region",
    "Points",
    "RegionError",
    "Field",
    "central_diff",
    "point_blocks",
    "integrate",
    "default_patch",
]
