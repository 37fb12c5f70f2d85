"""Discretized rectangular coordinate patch with sampled fields.

A Patch is an n-dimensional grid (1 <= n <= 4) with per-axis spacing.  A
Field ties a batched fiber value (grid axes leading) to a patch together
with a ``margin``: the number of boundary layers whose values are invalid,
as produced by interior-only central differences.  The spacing a
finite-difference value was computed at is the patch's own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any

import numpy as np

from .lie_core import AlgebraElement, DimensionError, GroupElement, RepTangent, RepVector, _trusted

MAX_DIM = 4


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
        spacing = _tuple_of(self.spacing, n, float)
        if not all(0 < h < math.inf for h in spacing):
            raise RegionError(f"spacing must be positive and finite, got {spacing}")
        origin = _tuple_of(self.origin, n, float)
        if not all(map(math.isfinite, origin)):
            raise RegionError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

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

    def refined(self, h: float) -> "Patch":
        """Same physical box resampled at spacing h (used by convergence studies)."""
        extent = tuple(
            int(round((e - 1) * s / h)) + 1 for e, s in zip(self.extent, self.spacing)
        )
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

    def validate(self, patch: Patch, margin: int = 1) -> None:
        """Regions must sit strictly inside the interior (margin >= 1)."""
        margin = max(1, margin)
        if len(self.lo) != patch.dim:
            raise DimensionError("region dimension does not match patch")
        for a, b, e in zip(self.lo, self.hi, patch.extent):
            if a < margin or b > e - margin:
                raise RegionError(
                    f"region [{a},{b}) leaves the valid interior (margin {margin})"
                )


@dataclass(eq=False)
class Field:
    """A fiber value sampled over every grid point of a patch.

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

    def with_value(self, value) -> "Field":
        return Field(self.patch, value, self.margin)

    def interior(self, extra: int = 0) -> Region:
        return self.patch.interior(max(1, self.margin + extra))


def central_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central difference along a grid axis.

    The boundary layer along ``axis`` is zero-filled; callers track validity
    through the field margin.
    """
    out = np.zeros_like(arr)
    mid = [slice(None)] * arr.ndim
    plus = [slice(None)] * arr.ndim
    minus = [slice(None)] * arr.ndim
    mid[axis] = slice(1, -1)
    plus[axis] = slice(2, None)
    minus[axis] = slice(None, -2)
    out[tuple(mid)] = (arr[tuple(plus)] - arr[tuple(minus)]) / (2.0 * h)
    return out


def partial(f: Field, mu: int) -> Field:
    """Interior central difference of a sampled field along axis mu.

    Raw arrays and linear-space fibers (scalars, algebra elements,
    representation vectors) differentiate componentwise.  Group-valued
    fields return raw matrix data, since difference quotients of unitary
    matrices leave the group.
    """
    p = f.patch
    if not 0 <= mu < p.dim:
        raise DimensionError(f"axis {mu} out of range for a {p.dim}-dimensional patch")
    if p.extent[mu] < 3:
        raise RegionError("need at least 3 points along the differenced axis")
    h = p.spacing[mu]
    v = f.value
    if isinstance(v, np.ndarray):
        out = central_diff(v, mu, h)
    elif isinstance(v, AlgebraElement):
        out = _trusted(AlgebraElement, v.spec, central_diff(v.entries, mu, h))
    elif isinstance(v, RepVector):
        out = RepTangent(v.spec, central_diff(v.entries, mu, h))
    elif isinstance(v, RepTangent):
        out = RepTangent(v.spec, central_diff(v.entries, mu, h))
    elif isinstance(v, GroupElement):
        out = central_diff(v.entries, mu, h)
    else:
        raise TypeError(f"cannot differentiate a field of {type(v).__name__}")
    return Field(p, out, margin=f.margin + 1)


def integrate(density: Field, region: Region) -> float:
    """Riemann sum of a real scalar density over a region, times h^n.

    Accumulation walks the region in lexicographic index order through an
    exact (compensated) sum with a single final rounding, so the result is
    bit-reproducible and independent of any worker partitioning.
    """
    vals = np.asarray(density.value)
    if vals.shape != density.patch.extent:
        raise DimensionError("integrate expects a real scalar density field")
    region.validate(density.patch, density.margin)
    block = np.ascontiguousarray(vals[region.slices()], dtype=np.float64)
    if not np.all(np.isfinite(block)):
        raise ValueError("density contains non-finite values on the region")
    return math.fsum(block.ravel(order="C").tolist()) * density.patch.cell_volume


def default_patch(dim: int, spacing: float = 0.05, origin=0.0) -> Patch:
    """Desk-scale default grids: 257 / 64^2 / 16^3 / 12^4 points."""
    extent = {1: (257,), 2: (64, 64), 3: (16, 16, 16), 4: (12, 12, 12, 12)}[dim]
    return Patch(extent, spacing, origin)


__all__ = [
    "Patch",
    "Region",
    "RegionError",
    "Field",
    "central_diff",
    "partial",
    "integrate",
    "default_patch",
]
