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
  read-write cycles are bit-exact.

* Binary payload: little-endian float64 pairs (re, im) for every complex
  entry, in lexicographic grid order (C order), row-major within each
  matrix.  Real scalar fields store (value, 0.0) pairs.

Per-point entry order for composite kinds:

* ``group`` / ``algebra``: the N x N matrix.
* ``connection``: A_1 .. A_n.
* ``jet1-gauge``: g, a_1 .. a_n.
* ``jet2-gauge``: g, a_1 .. a_n, then s_munu for mu <= nu in
  lexicographic order (n(n+1)/2 matrices).
* ``jet-connection``: A_1 .. A_n, then dA_munu row-major (n^2 matrices).
* ``matter``: the k-vector;  ``jet-matter``: phi, then d_1 phi .. d_n phi.
* ``curvature``: F_munu for mu < nu in lexicographic order.
* ``scalar``: one pair per point.

The header carries no margin or origin: files describe whole-grid-valid
data on an origin-zero patch, which is what the analytic samplers emit.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
)
from .lie_core import AlgebraElement, GroupElement, GroupFamily, GroupSpec, RepVector, _trusted
from .patch import Field, Patch


class FormatError(ValueError):
    """Malformed JGF1 header or payload."""


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(mu, nu) for mu in range(n) for nu in range(mu, n)]


def value_kind(field: Field) -> str:
    v = field.value
    if isinstance(v, np.ndarray):
        if v.shape == field.patch.extent:
            return "scalar"
        raise FormatError("only scalar raw arrays are serializable")
    if isinstance(v, AlgebraElement):
        return "algebra" if v.entries.ndim == field.patch.dim + 2 else "connection"
    kinds = {
        GroupElement: "group",
        RepVector: "matter",
        Jet1Gauge: "jet1-gauge",
        Jet2Gauge: "jet2-gauge",
        JetConnection: "jet-connection",
        JetMatter: "jet-matter",
        Curvature: "curvature",
    }
    try:
        return kinds[type(v)]
    except KeyError:
        raise FormatError(f"unserializable field value {type(v).__name__}") from None


def _flatten(field: Field) -> tuple[np.ndarray, GroupSpec | None]:
    """Per-point complex payload, shape (*extent, entries_per_point)."""
    ext = field.patch.extent
    npts = int(np.prod(ext))
    v = field.value
    kind = value_kind(field)
    if kind == "scalar":
        return np.asarray(v, dtype=np.complex128).reshape(npts, 1), None
    parts = {name: getattr(v, name) for name in v.LAYOUT}
    if kind == "jet2-gauge":  # s is stored packed, mu <= nu only
        pairs = _sym_pairs(field.patch.dim)
        parts["s"] = np.stack([v.s[..., mu, nu, :, :] for mu, nu in pairs], axis=-3)
    payload = np.concatenate([x.reshape(npts, -1) for x in parts.values()], axis=1)
    return np.ascontiguousarray(payload, dtype=np.complex128), v.spec


def write_field(field: Field, path: str | Path) -> None:
    payload, spec = _flatten(field)
    p = field.patch
    if spec is None:
        spec = GroupSpec(GroupFamily.U1)
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
            f"value_kind {value_kind(field)}",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(payload, dtype="<c16").tobytes())


def _read_header(fh: io.BufferedReader) -> dict:
    lines = []
    for _ in range(7):
        raw = bytearray()
        while True:
            ch = fh.read(1)
            if not ch:
                raise FormatError("truncated header")
            if ch == b"\n":
                break
            raw += ch
        lines.append(raw.decode("ascii"))
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


_MATRIX_COUNT = {
    "group": lambda n: 1,
    "algebra": lambda n: 1,
    "connection": lambda n: n,
    "jet1-gauge": lambda n: 1 + n,
    "jet2-gauge": lambda n: 1 + n + n * (n + 1) // 2,
    "jet-connection": lambda n: n + n * n,
    "curvature": lambda n: n * (n - 1) // 2,
}


def read_field(path: str | Path) -> Field:
    """Reconstruct a field from a JGF1 file on an origin-zero patch.

    Any malformed header value or payload raises FormatError.  The payload
    is checked for finiteness once; the group, algebra and connection
    kinds then go through their strict public constructors, while jet
    kinds and curvature are taken as stored (finite-difference jets sit
    off the algebra by O(h^2)).
    """
    with open(path, "rb") as fh:
        try:
            return _decode(_read_header(fh), fh.read())
        except FormatError:
            raise
        except ValueError as exc:  # bad header values, or payloads off the group or algebra
            raise FormatError(f"invalid JGF1 field: {exc}") from exc


def _decode(hdr: dict, payload: bytes) -> Field:
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
    spec = GroupSpec(family, n_mat, rep_dim)
    patch = Patch(extent, spacing)
    npts = patch.npoints
    data = np.frombuffer(payload, dtype="<c16")
    if not np.all(np.isfinite(data)):
        raise FormatError("payload contains non-finite entries")

    def reshape(entries_per_point: int) -> np.ndarray:
        if data.size != npts * entries_per_point:
            raise FormatError(
                f"payload holds {data.size} entries, expected {npts * entries_per_point}"
            )
        return data.reshape(extent + (entries_per_point,))

    nn = spec.n
    n = dim
    if kind == "scalar":
        return Field(patch, reshape(1)[..., 0].real.copy())
    if kind == "matter":
        return Field(patch, RepVector(spec, reshape(rep_dim).copy()))
    if kind == "jet-matter":
        flat = reshape((1 + n) * rep_dim).reshape(extent + (1 + n, rep_dim))
        return Field(patch, JetMatter(spec, flat[..., 0, :].copy(), flat[..., 1:, :].copy()))
    if kind not in _MATRIX_COUNT:
        raise FormatError(f"unknown value kind {kind!r}")
    count = _MATRIX_COUNT[kind](n)
    flat = reshape(count * nn * nn).reshape(extent + (count, nn, nn)).copy()
    if kind == "group":
        return Field(patch, GroupElement(spec, flat[..., 0, :, :]))
    if kind == "algebra":
        return Field(patch, AlgebraElement(spec, flat[..., 0, :, :]))
    if kind == "connection":
        return Field(patch, AlgebraElement(spec, flat))
    if kind == "jet1-gauge":
        return Field(patch, _trusted(Jet1Gauge, spec, flat[..., 0, :, :], flat[..., 1:, :, :]))
    if kind == "jet2-gauge":
        g = flat[..., 0, :, :]
        a = flat[..., 1 : 1 + n, :, :]
        s = np.zeros(extent + (n, n, nn, nn), dtype=np.complex128)
        for idx, (mu, nu) in enumerate(_sym_pairs(n)):
            s[..., mu, nu, :, :] = flat[..., 1 + n + idx, :, :]
            s[..., nu, mu, :, :] = flat[..., 1 + n + idx, :, :]
        return Field(patch, _trusted(Jet2Gauge, spec, g, a, s))
    if kind == "jet-connection":
        A = flat[..., :n, :, :]
        dA = flat[..., n:, :, :].reshape(extent + (n, n, nn, nn))
        return Field(patch, _trusted(JetConnection, spec, A, dA))
    # curvature: the only kind left in _MATRIX_COUNT
    return Field(patch, _trusted(Curvature, spec, n, flat))


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
