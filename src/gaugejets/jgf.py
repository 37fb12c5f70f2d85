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
  read-write cycles are bit-exact.  The reader takes each line only in
  this order and form, so a header it accepts is written back byte for
  byte.  A header line, newline included, is at most
  ``HEADER_LINE_LIMIT`` (108) bytes; the reader rejects a longer one
  without reading past it.

* Binary payload: little-endian float64 pairs (re, im) for every complex
  entry, in lexicographic grid order (C order), row-major within each
  matrix.  Both directions stream it through one buffer of whole points,
  at most ``patch.BLOCK_BYTES`` (256 KiB, or one point where that is
  larger): a write holds that block, a read the arrays it returns plus the
  block.  Each block is checked for non-finite entries on either side.

Per-point entry order: a ``Fiber`` value stores its arrays in ``LAYOUT``
order, each row-major over its trailing axes (``KINDS`` gives each kind's
fiber type).  ``connection`` is one ``AlgebraElement`` with a leading axis
for mu, A_1 .. A_n.  The symmetric ``s`` of ``jet2-gauge`` is stored
packed: s_munu for mu <= nu, in lexicographic order (n(n+1)/2 matrices).
``curvature`` holds F_munu for mu < nu.

The writer rejects any value the reader cannot rebuild: a type without a
kind (a raw array among them), a batch shape other than the patch extent
(plus (n,) for ``connection``), a jet whose n is not the patch dimension,
and a non-finite entry.  ``gaugejets sample --fd`` needs a jet kind.

The header carries no margin or origin: files describe whole-grid-valid
data on an origin-zero patch, which is what the analytic samplers emit.
"""

from __future__ import annotations

import io
import math
import os
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .jets import Curvature, Jet1Gauge, Jet2Gauge, JetConnection, JetMatter
from .lie_core import AlgebraElement, GroupElement, GroupFamily, GroupSpec, RepVector, _trusted
from .patch import Field, Patch, point_blocks


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
    for kind, (cls, _) in KINDS.items():
        if type(v) is cls and all(
            getattr(v, name).shape == p.extent + shape
            for name, shape in _shapes(kind, v.spec, p.dim).items()
        ):
            return kind
    raise FormatError(f"cannot store {type(v).__name__} on a {p.dim}-D patch of extent {p.extent}")


def _columns(arrays: list, kind: str, n: int, npts: int) -> list[np.ndarray]:
    """The payload's columns, in order, as (npoints, entries) views of a value's
    LAYOUT arrays: one per array, and for the packed s of ``jet2-gauge`` one
    per row mu, whose slots nu >= mu lie side by side in s as in the file."""
    columns = [x.reshape(npts, -1) for x in arrays]
    if kind == "jet2-gauge":  # s is stored packed, mu <= nu only
        s = arrays[-1].reshape(npts, n, -1)
        columns[-1:] = [s[:, mu, mu * s.shape[-1] // n :] for mu in range(n)]
    return columns


def _blocks(columns: list[np.ndarray], npts: int):
    """Walk the payload in blocks of whole points through one reused buffer:
    yield each block's rows, the block, and its (block column, array column) pairs."""
    widths = [column.shape[1] for column in columns]
    blocks = point_blocks(npts, 16 * sum(widths))  # 1-D curvature has no entries
    buf = np.empty((blocks[0].stop, sum(widths)), dtype="<c16")
    edges = np.cumsum([0] + widths).tolist()
    for rows in blocks:
        block = buf[: rows.stop - rows.start]
        spans = zip(edges, edges[1:], columns)
        yield rows, block, [(block[:, lo:hi], column[rows]) for lo, hi, column in spans]


def write_field(field: Field, path: str | Path) -> None:
    """Write a field as JGF1; FormatError for a value the reader could not
    rebuild: before the file is opened, or, for a non-finite entry, once its
    block is gathered, after removing the partly written file."""
    kind = value_kind(field)
    p, spec = field.patch, field.value.spec
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
    columns = _columns([getattr(field.value, name) for name in field.value.LAYOUT], kind, p.dim, p.npoints)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for _, block, parts in _blocks(columns, p.npoints):
            for dst, src in parts:
                dst[...] = src
            if not np.isfinite(block.view("<f8")).all():  # as the reader checks it
                break
            fh.write(block)  # through the buffer protocol: no bytes copy
        else:
            return
    os.remove(path)
    raise FormatError(f"cannot store non-finite entries; {path} is removed")


# longest legal header line: "spacing" and four repr floats, each after a
# space; a float's repr is at most 24 characters (-1.2345678901234567e-308)
HEADER_LINE_LIMIT = len("spacing") + 4 * (1 + 24) + len("\n")


def _read_header(fh: io.BufferedReader) -> list[tuple]:
    """The values of the seven header lines, in their documented order: each
    line is its key, then its tokens in the form the writer gives them (``str``
    of an int or a name, ``repr`` of a float; N after ``sun`` alone, one extent
    and one spacing per axis).  Any other line is a FormatError naming its field."""
    values = []
    for key in ("JGF1", "family", "rep_dim", "dim", "extent", "spacing", "value_kind"):
        line = fh.readline(HEADER_LINE_LIMIT)
        if not line.endswith(b"\n"):
            cut = len(line) == HEADER_LINE_LIMIT
            raise FormatError(f"header line over {HEADER_LINE_LIMIT} bytes" if cut else "truncated header")
        name, *tokens = line[:-1].decode("ascii", "replace").split(" ")
        dim = values[3][0] if len(values) > 3 else 0
        count, casts = {
            "JGF1": (0, ()),
            "family": (1 + (tokens[:1] == ["sun"]), (str, int)),
            "extent": (dim, repeat(int)),
            "spacing": (dim, repeat(float)),
            "value_kind": (1, (str,)),
        }.get(key, (1, (int,)))
        try:
            read = tuple(cast(t) for cast, t in zip(casts, tokens))
            canonical = [repr(x) if isinstance(x, float) else str(x) for x in read] == tokens
        except ValueError:
            canonical = False
        if name != key or len(tokens) != count or not canonical:
            raise FormatError(f"header field {key!r} is missing or not in its canonical form")
        values.append(read)
    return values


def read_field(path: str | Path) -> Field:
    """Reconstruct a field from a JGF1 file on an origin-zero patch.

    Any malformed header value or payload raises FormatError.  The payload
    size is compared with the header before anything is allocated; each
    returned array is allocated once, writable, and filled block by block,
    every block checked for finiteness.  The group, algebra, connection,
    matter and jet-matter kinds then go through their strict public
    constructors, while the gauge and connection jets and curvature are
    taken as stored (finite-difference jets sit off the algebra by O(h^2)).
    """
    with open(path, "rb") as fh:
        try:
            hdr = _read_header(fh)
            return _decode(hdr, fh, os.fstat(fh.fileno()).st_size - fh.tell())
        except FormatError:
            raise
        except ValueError as exc:  # bad header values, or payloads off the group or algebra
            raise FormatError(f"invalid JGF1 field: {exc}") from exc


def _decode(hdr: list[tuple], fh: io.BufferedReader, nbytes: int) -> Field:
    _, (family, *n_mat), (rep_dim,), (dim,), extent, spacing, (kind,) = hdr
    if kind not in KINDS:
        raise FormatError(f"unknown value kind {kind!r}")
    spec = GroupSpec(family, *n_mat, rep_dim=rep_dim)
    if spec.rep_dim != rep_dim:  # 0 would select the fundamental, written back as N
        raise FormatError(f"rep_dim {rep_dim} is not a representation dimension")
    shapes = _shapes(kind, spec, dim)
    packed = dict(shapes)
    if kind == "jet2-gauge":  # s is stored packed, mu <= nu only
        packed["s"] = (dim * (dim + 1) // 2,) + shapes["s"][2:]
    # compared before the Patch is built: the header's extent is not yet known to fit memory
    expected = 16 * math.prod(extent) * sum(math.prod(shape) for shape in packed.values())
    if nbytes != expected:
        raise FormatError(f"payload holds {nbytes} bytes, expected {expected}")
    patch = Patch(extent, spacing)
    arrays = [np.empty(extent + shape, dtype=np.complex128) for shape in shapes.values()]
    mirror = []  # (s_numu for nu > mu, the stored s_munu) of jet2-gauge, row by row
    if kind == "jet2-gauge":
        s = arrays[-1].reshape(patch.npoints, dim, dim, -1)
        mirror = [(s[:, mu + 1 :, mu], s[:, mu, mu + 1 :]) for mu in range(dim)]
    for rows, block, parts in _blocks(_columns(arrays, kind, dim, patch.npoints), patch.npoints):
        if fh.readinto(block) != block.nbytes:
            raise FormatError("payload shorter than the file size")
        if not np.isfinite(block.view("<f8")).all():
            raise FormatError("payload contains non-finite entries")
        for src, dst in parts:
            dst[...] = src
        for dst, src in mirror:  # from the block just written, still in cache
            dst[rows] = src[rows]
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
