"""JGF1 field file format: bit-exact serialization of sampled fields.

Layout (documented contract):

* ASCII header, one item per line, in this order::

      JGF1
      family <u1|su2|su3|sun> [N]
      rep_dim <k>
      dim <n>
      extent <e1> ... <en>
      spacing <h1> ... <hn>
      value_kind <kind>

  Spacings are written with ``repr`` (shortest round-trip form), so
  read-write cycles are bit-exact.  A header line, newline included, is
  at most ``HEADER_LINE_LIMIT`` (108) bytes; the reader rejects a longer
  one without reading past it.

* Binary payload: little-endian float64 pairs (re, im) for every complex
  entry, in lexicographic grid order (C order), row-major within each
  matrix.  Real scalar fields store (value, 0.0) pairs.

Per-point entry order: a ``Fiber`` value stores its arrays in ``LAYOUT``
order, each row-major over its trailing axes (``KINDS`` gives each kind's
fiber type).  ``connection`` is one ``AlgebraElement`` with a leading axis
for mu, A_1 .. A_n.  The symmetric ``s`` of ``jet2-gauge`` is stored
packed: s_munu for mu <= nu, in lexicographic order (n(n+1)/2 matrices).
``curvature`` holds F_munu for mu < nu, and ``scalar`` one pair per point.

The writer rejects any value the reader cannot rebuild: an unknown type,
a batch shape other than the patch extent (plus (n,) for ``connection``),
a jet whose n is not the patch dimension, and a complex or non-finite
scalar array.  ``gaugejets sample --fd`` needs a jet kind.

The header carries no margin or origin: files describe whole-grid-valid
data on an origin-zero patch, which is what the analytic samplers emit.
"""

from __future__ import annotations

import io
import os
from functools import partial
from pathlib import Path

import numpy as np

from .jets import Curvature, Jet1Gauge, Jet2Gauge, JetConnection, JetMatter
from .lie_core import AlgebraElement, GroupElement, GroupFamily, GroupSpec, RepVector, _trusted
from .patch import Field, Patch


class FormatError(ValueError):
    """Malformed JGF1 header or payload, or a value JGF1 cannot store."""


# value kind -> (fiber type, stack axes ahead of the type's LAYOUT axes)
KINDS = {
    "group": (GroupElement, ()),
    "algebra": (AlgebraElement, ()),
    "connection": (AlgebraElement, ("n",)),
    "matter": (RepVector, ()),
    "jet1-gauge": (Jet1Gauge, ()),
    "jet2-gauge": (Jet2Gauge, ()),
    "jet-connection": (JetConnection, ()),
    "jet-matter": (JetMatter, ()),
    "curvature": (Curvature, ()),
}
# read back without invariant checks: finite-difference jets sit off the
# group and algebra by O(h^2)
_UNCHECKED = (Jet1Gauge, Jet2Gauge, JetConnection, Curvature)


def _head(cls, spec: GroupSpec, n: int) -> tuple:
    """The fields of ``cls`` ahead of its arrays: the spec, and n for Curvature."""
    return (spec, n) if cls is Curvature else (spec,)


def _shapes(kind: str, spec: GroupSpec, n: int) -> dict[str, tuple[int, ...]]:
    """Per-point shape of each array of ``kind`` on an n-D patch, in LAYOUT order,
    from the axis sizes the type's constructor binds (``Fiber._sizes``)."""
    cls, stack = KINDS[kind]
    sizes = {**_trusted(cls, *_head(cls, spec, n))._sizes(), "n": n}
    return {name: tuple(sizes[a] for a in stack + axes) for name, (axes, _) in cls.LAYOUT.items()}


def value_kind(field: Field) -> str:
    """The kind a field is stored as; FormatError if the reader could not rebuild it."""
    v, p = field.value, field.patch
    if isinstance(v, np.ndarray):
        if v.shape != p.extent or np.iscomplexobj(v) or not np.all(np.isfinite(v)):
            raise FormatError(f"a raw array must be a finite real scalar field of shape {p.extent}")
        return "scalar"
    for kind, (cls, _) in KINDS.items():
        if type(v) is cls and all(
            getattr(v, name).shape == p.extent + shape
            for name, shape in _shapes(kind, v.spec, p.dim).items()
        ):
            return kind
    raise FormatError(f"cannot store {type(v).__name__} on a {p.dim}-D patch of extent {p.extent}")


def _flatten(field: Field, kind: str) -> np.ndarray:
    """Per-point complex payload, shape (npoints, entries_per_point)."""
    v, npts = field.value, field.patch.npoints
    if kind == "scalar":
        return np.asarray(v, dtype=np.complex128).reshape(npts, 1)
    parts = [getattr(v, name) for name in v.LAYOUT]
    if kind == "jet2-gauge":  # s is stored packed, mu <= nu only
        n = field.patch.dim
        # np.take along the flat (mu, nu) axis returns a contiguous array, so
        # the reshape below copies nothing; indexing s[..., mu, nu, :, :] would not
        upper = np.ravel_multi_index(np.triu_indices(n), (n, n))
        parts[-1] = np.take(v.s.reshape(npts, n * n, -1), upper, axis=1)
    payload = np.concatenate([x.reshape(npts, -1) for x in parts], axis=1)
    return np.ascontiguousarray(payload, dtype=np.complex128)


def write_field(field: Field, path: str | Path) -> None:
    """Write a field as JGF1; FormatError, before the file is opened, for a
    value the reader could not rebuild."""
    kind = value_kind(field)
    payload = _flatten(field, kind)
    p = field.patch
    spec = GroupSpec(GroupFamily.U1) if kind == "scalar" else field.value.spec
    family = spec.family.value
    family_line = f"family {family} {spec.n}" if spec.family is GroupFamily.SUN else f"family {family}"
    header = "\n".join(
        [
            "JGF1",
            family_line,
            f"rep_dim {spec.rep_dim}",
            f"dim {p.dim}",
            "extent " + " ".join(str(e) for e in p.extent),
            "spacing " + " ".join(repr(h) for h in p.spacing),
            f"value_kind {kind}",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        # through the buffer protocol: no bytes copy of the payload, and an
        # empty payload (1-D curvature) writes nothing
        fh.write(np.ascontiguousarray(payload, dtype="<c16"))


# longest legal header line: "spacing" and four repr floats, each after a
# space; a float's repr is at most 24 characters (-1.2345678901234567e-308)
HEADER_LINE_LIMIT = len("spacing") + 4 * (1 + 24) + len("\n")


def _read_header(fh: io.BufferedReader) -> dict:
    lines = []
    for _ in range(7):
        line = fh.readline(HEADER_LINE_LIMIT)
        if not line.endswith(b"\n"):
            cut = len(line) == HEADER_LINE_LIMIT
            raise FormatError(f"header line over {HEADER_LINE_LIMIT} bytes" if cut else "truncated header")
        lines.append(line[:-1].decode("ascii"))
    if lines[0] != "JGF1":
        raise FormatError(f"bad magic {lines[0]!r}")
    fields = {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    for key in ("family", "rep_dim", "dim", "extent", "spacing", "value_kind"):
        if key not in fields:
            raise FormatError(f"missing header field {key!r}")
    return fields


def read_field(path: str | Path) -> Field:
    """Reconstruct a field from a JGF1 file on an origin-zero patch.

    Any malformed header value or payload raises FormatError.  The payload
    is checked for finiteness once; the group, algebra, connection, matter
    and jet-matter kinds then go through their strict public constructors,
    while the gauge and connection jets and curvature are taken as stored
    (finite-difference jets sit off the algebra by O(h^2)).  The payload is
    read into one writable buffer, and the stored arrays are views of it.
    """
    with open(path, "rb") as fh:
        try:
            hdr = _read_header(fh)
            payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
            if fh.readinto(payload) != len(payload):
                raise FormatError("payload shorter than the file size")
            return _decode(hdr, payload)
        except FormatError:
            raise
        except ValueError as exc:  # bad header values, or payloads off the group or algebra
            raise FormatError(f"invalid JGF1 field: {exc}") from exc


def _decode(hdr: dict, payload: bytearray) -> Field:
    family_tokens = hdr["family"].split()
    family = GroupFamily(family_tokens[0])
    n_mat = int(family_tokens[1]) if len(family_tokens) > 1 else 0
    rep_dim = int(hdr["rep_dim"])
    dim = int(hdr["dim"])
    extent = tuple(int(t) for t in hdr["extent"].split())
    spacing = tuple(float(t) for t in hdr["spacing"].split())
    kind = hdr["value_kind"]
    if len(extent) != dim or len(spacing) != dim:
        raise FormatError("extent/spacing do not match dim")
    if kind != "scalar" and kind not in KINDS:
        raise FormatError(f"unknown value kind {kind!r}")
    spec = GroupSpec(family, n_mat, rep_dim)
    patch = Patch(extent, spacing)
    data = np.frombuffer(payload, dtype="<c16")
    if not np.all(np.isfinite(data)):
        raise FormatError("payload contains non-finite entries")
    shapes = {"value": ()} if kind == "scalar" else _shapes(kind, spec, dim)
    upper = np.triu_indices(dim)
    if kind == "jet2-gauge":  # s is stored packed, mu <= nu only
        shapes["s"] = (len(upper[0]),) + shapes["s"][2:]
    sizes = [int(np.prod(shape)) for shape in shapes.values()]
    expected = patch.npoints * sum(sizes)
    if data.size != expected:
        raise FormatError(f"payload holds {data.size} entries, expected {expected}")
    flat = data.reshape(extent + (sum(sizes),))
    parts = np.split(flat, np.cumsum(sizes)[:-1], axis=-1)
    arrays = [part.reshape(extent + shape) for part, shape in zip(parts, shapes.values())]
    if kind == "scalar":
        return Field(patch, arrays[0].real.copy())
    if kind == "jet2-gauge":
        s = np.empty(extent + (dim, dim, spec.n, spec.n), dtype=np.complex128)
        s[..., upper[0], upper[1], :, :] = arrays[-1]
        s[..., upper[1], upper[0], :, :] = arrays[-1]
        arrays[-1] = s
    cls, _ = KINDS[kind]
    build = partial(_trusted, cls) if cls in _UNCHECKED else cls
    return Field(patch, build(*_head(cls, spec, dim), *arrays))


def describe(path: str | Path) -> str:
    """Human-readable summary of a JGF1 file, for the inspect subcommand."""
    field = read_field(path)
    kind = value_kind(field)
    p = field.patch
    lines = [
        f"JGF1 {kind}",
        f"  patch: dim {p.dim}, extent {'x'.join(str(e) for e in p.extent)}, "
        f"spacing {', '.join(repr(h) for h in p.spacing)}",
    ]
    v = field.value
    if isinstance(v, np.ndarray):
        lines.append(f"  scalar range: [{v.min():.6g}, {v.max():.6g}], mean {v.mean():.6g}")
    else:
        lines.append(f"  group: {v.spec.label()}, rep_dim {v.spec.rep_dim}")
        for name in v.LAYOUT:
            arr = getattr(v, name)
            mag = np.abs(arr)
            if mag.size == 0:
                lines.append(f"  {name}: empty")
                continue
            lines.append(
                f"  {name}: shape {arr.shape}, |entry| max {mag.max():.6g}, mean {mag.mean():.6g}"
            )
    return "\n".join(lines)


__all__ = ["FormatError", "value_kind", "write_field", "read_field", "describe"]
