"""JGF1 field file round trips and header handling."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets import jgf, patch as patch_module
from gaugejets.analytic import (
    random_connection_family,
    random_gauge_family,
    random_matter_family,
    sample_connection,
    sample_gauge,
    sample_matter,
)
from gaugejets.cli import SAMPLES, main as cli_main
from gaugejets.jets import Curvature, Jet1Gauge, Jet2Gauge, curvature, jet2_of
from gaugejets.jgf import (
    HEADER_LINE_LIMIT,
    KINDS,
    FormatError,
    _read_header,
    describe,
    read_field,
    value_kind,
    write_field,
)
from gaugejets.lie_core import (
    AlgebraElement,
    RepVector,
    _trusted,
    exp,
    group_spec,
    random_algebra_entries,
    seeded_rng,
)
from gaugejets.patch import Field, Patch

SU2 = group_spec("su2")
SU3 = group_spec("su3")


@pytest.fixture
def patch():
    return Patch((8, 8), spacing=0.1)


def gauge_sample(patch, spec=SU2, seed=0):
    rng = seeded_rng(seed, "jgf-gauge")
    return sample_gauge(patch, spec, random_gauge_family(rng, spec, patch.dim))


def arrays_of(value):
    for name in value.LAYOUT:
        yield name, getattr(value, name)


@pytest.mark.parametrize("kind", ["group", "jet1-gauge", "jet2-gauge"])
def test_gauge_kind_round_trip(tmp_path, patch, kind):
    sample = gauge_sample(patch)
    field = {"group": sample.values, "jet1-gauge": sample.jet1, "jet2-gauge": sample.jet2}[kind]
    path = tmp_path / "field.jgf1"
    write_field(field, path)
    back = read_field(path)
    assert value_kind(back) == kind
    assert back.patch.extent == patch.extent
    assert back.patch.spacing == patch.spacing
    for name, arr in arrays_of(field.value):
        assert np.array_equal(arr, getattr(back.value, name)), name


def test_connection_and_jet_connection_round_trip(tmp_path, patch):
    rng = seeded_rng(3, "jgf-conn")
    cs = sample_connection(patch, SU3, random_connection_family(rng, SU3, patch.dim))
    for field, kind in ((cs.values, "connection"), (cs.jet, "jet-connection")):
        path = tmp_path / f"{kind}.jgf1"
        write_field(field, path)
        back = read_field(path)
        assert value_kind(back) == kind
        for name, arr in arrays_of(field.value):
            assert np.array_equal(arr, getattr(back.value, name)), (kind, name)


def test_matter_round_trip(tmp_path, patch):
    rng = seeded_rng(4, "jgf-matter")
    ms = sample_matter(patch, SU2, random_matter_family(rng, SU2, patch.dim))
    for field, kind in ((ms.values, "matter"), (ms.jet, "jet-matter")):
        path = tmp_path / f"{kind}.jgf1"
        write_field(field, path)
        back = read_field(path)
        assert value_kind(back) == kind
        for name, arr in arrays_of(field.value):
            assert np.array_equal(arr, getattr(back.value, name))


def test_curvature_round_trip(tmp_path, patch):
    rng = seeded_rng(5, "jgf-curv")
    cs = sample_connection(patch, SU2, random_connection_family(rng, SU2, patch.dim))
    f = Field(patch, curvature(cs.jet.value))
    path = tmp_path / "curv.jgf1"
    write_field(f, path)
    back = read_field(path)
    assert np.array_equal(back.value.comps, f.value.comps)


def traced(fn):
    """``fn()``, and the ``tracemalloc`` peak of that call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_peak_memory(tmp_path):
    """A su3 4-D jet2-gauge read, at 5^4 and 10^4, holds the arrays it returns,
    each allocated once (189 entries per point with the whole s, against 135
    stored), plus one block.  The arrays are writable, equal the written ones
    bit for bit, and lie in disjoint memory: none is a view into a buffer that
    holds the others."""
    for side in (5, 10):
        field = gauge_sample(Patch((side,) * 4, spacing=0.1), SU3, seed=6).jet2
        path = tmp_path / "jet2.jgf1"
        write_field(field, path)
        read_field(path)
        back, peak = traced(lambda: read_field(path))
        arrays = [getattr(back.value, name) for name in field.value.LAYOUT]
        assert peak <= sum(x.nbytes for x in arrays) + 2 * patch_module.BLOCK_BYTES, side
        assert not any(np.may_share_memory(x, y) for x, y in itertools.combinations(arrays, 2))
        for (name, arr), got in zip(arrays_of(field.value), arrays):
            assert got.flags.writeable, name
            assert got.tobytes() == arr.tobytes(), name


def test_write_peak_memory(tmp_path):
    """A write holds one block, at 5^4 as at 10^4."""
    for side in (5, 10):
        field = gauge_sample(Patch((side,) * 4, spacing=0.1), SU3, seed=6).jet2
        path = tmp_path / "jet2.jgf1"
        write_field(field, path)
        assert traced(lambda: write_field(field, path))[1] <= 2 * patch_module.BLOCK_BYTES, side


def test_fd_jets_round_trip(tmp_path, patch):
    # finite-difference jets sit off the algebra; reading must not reject them
    sample = gauge_sample(patch, seed=6)
    fd = jet2_of(sample.values)
    path = tmp_path / "fd.jgf1"
    write_field(fd, path)
    back = read_field(path)
    assert np.array_equal(back.value.g, fd.value.g)
    assert np.array_equal(back.value.a, fd.value.a)
    assert np.array_equal(back.value.s, fd.value.s)


def test_write_is_deterministic(tmp_path, patch):
    sample = gauge_sample(patch, seed=7)
    p1, p2 = tmp_path / "a.jgf1", tmp_path / "b.jgf1"
    write_field(sample.jet1, p1)
    write_field(sample.jet1, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path, patch):
    sample = gauge_sample(patch, seed=8)
    path = tmp_path / "hdr.jgf1"
    write_field(sample.values, path)
    raw = path.read_bytes()
    header = raw.split(b"\n", 7)[:7]
    assert header[0] == b"JGF1"
    assert header[1] == b"family su2"
    assert header[2] == b"rep_dim 2"
    assert header[3] == b"dim 2"
    assert header[4] == b"extent 8 8"
    assert header[6] == b"value_kind group"
    # payload: 8*8 points x 4 complex entries x 16 bytes
    body = raw.split(b"\n", 7)[7]
    assert len(body) == 64 * 4 * 16


def test_sun_family_header(tmp_path):
    p = Patch((6, 6))
    spec = group_spec("sun", n=4)
    sample = gauge_sample(p, spec=spec, seed=9)
    path = tmp_path / "sun.jgf1"
    write_field(sample.values, path)
    assert b"family sun 4" in path.read_bytes()
    back = read_field(path)
    assert back.value.spec.n == 4


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.jgf1"
    path.write_bytes(b"NOPE\nfamily su2\nrep_dim 2\ndim 1\nextent 5\nspacing 0.05\nvalue_kind group\n")
    with pytest.raises(FormatError):
        read_field(path)


def test_truncated_payload_rejected(tmp_path, patch):
    sample = gauge_sample(patch, seed=10)
    path = tmp_path / "trunc.jgf1"
    write_field(sample.values, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        read_field(path)


def _set_first_entry(raw: bytes, value: complex) -> bytes:
    start = raw.index(b"value_kind group\n") + len(b"value_kind group\n")
    return raw[:start] + np.array([value], dtype="<c16").tobytes() + raw[start + 16 :]


def _as_scalar(raw: bytes) -> bytes:
    """The su2 group file as one (value, 0.0) pair per point under ``value_kind scalar``,
    a kind JGF1 does not have."""
    start = raw.index(b"value_kind group\n") + len(b"value_kind group\n")
    values = np.frombuffer(raw[start:], dtype="<c16")[: (len(raw) - start) // 64].real
    return raw[:start].replace(b"value_kind group", b"value_kind scalar") + values.astype("<c16").tobytes()


def _as_large_algebra(raw: bytes) -> bytes:
    """The su2 group file as an algebra field of entries up to 1e6, whose first
    matrix is off the algebra by 2e-3, above 1e-12 of its norm."""
    start = raw.index(b"value_kind group\n") + len(b"value_kind group\n")
    x = 1e6 * random_algebra_entries(seeded_rng(13, "jgf-large"), SU2, ((len(raw) - start) // 64,))
    x[0, 0, 0] += 1e-3
    return raw[:start].replace(b"value_kind group", b"value_kind algebra") + x.astype("<c16").tobytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: _set_first_entry(raw, 2.0),
        _as_large_algebra,
        lambda raw: _set_first_entry(raw, complex("nan")),
        lambda raw: raw.replace(b"family su2", b"family xyz", 1),
        lambda raw: raw.replace(b"dim 2", b"dim x", 1),
        lambda raw: raw.replace(b"spacing 0.1 0.1", b"spacing nan 0.1", 1),
        lambda raw: raw.replace(b"spacing 0.1 0.1", b"spacing 1e308 0.1", 1),
        lambda raw: raw[: raw.index(b"spacing")],
        # numpy refuses a 10^15-point grid without touching memory; the reader must
        # refuse it from the payload size before it builds the patch
        lambda raw: raw.replace(b"extent 8 8", b"extent 1000000000000000 8", 1),
        _as_scalar,
    ],
    ids=[
        "non-unitary", "large-not-antihermitian", "nan", "family", "dim", "spacing-nan",
        "points-overflow", "header-cut", "extent-huge", "scalar-kind",
    ],
)
def test_corrupt_file_is_format_error(tmp_path, patch, capsys, corrupt):
    path = tmp_path / "bad.jgf1"
    write_field(gauge_sample(patch, seed=12).values, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError):
        read_field(path)
    assert cli_main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_far_origin_connection_round_trips(tmp_path, capsys):
    """su3 at origin 300 has potentials with entries ~1e4, whose rounded trace
    (3.6e-12) is far below 1e-12 of their norm: the file ``sample`` writes,
    ``inspect`` and ``read_field`` read back."""
    patch = {"extent": [16, 16], "spacing": 0.2, "origin": [300, 0]}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "far.jgf1"
    cfg_path.write_text(json.dumps({"group": {"family": "su3"}, "patch": patch}))
    sample = ["sample", "--config", str(cfg_path), "--kind", "connection", "--out", str(out)]
    assert cli_main(sample) == 0
    assert cli_main(["inspect", str(out)]) == 0
    assert capsys.readouterr().err == ""
    back = read_field(out).value
    assert back.spec == SU3 and np.max(np.abs(back.entries)) > 1e3


def test_longest_legal_header_line_fits(tmp_path):
    # four 23-character spacings: the longest spacing line a patch allows, at the
    # smallest spacing it allows
    spacing = (2.2250738585072014e-308,) * 4
    p = Patch((5, 5, 5, 5), spacing=spacing)
    path = tmp_path / "long.jgf1"
    write_field(gauge_sample(p).values, path)
    assert max(map(len, path.read_bytes().split(b"\n")[:7])) < HEADER_LINE_LIMIT
    assert read_field(path).patch == p


def test_header_without_newline_is_not_read_whole(tmp_path, capsys):
    """A 30 MB file with no newline is refused after one bounded header line."""
    path = tmp_path / "flat.jgf1"
    path.write_bytes(b"J" * (30 << 20))
    with open(path, "rb") as fh:
        with pytest.raises(FormatError, match="header line over"):
            _read_header(fh)
        assert fh.tell() == HEADER_LINE_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read_field(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an unbounded readline holds the whole 30 MB line, twice
    assert cli_main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_describe_mentions_kind_and_extent(tmp_path, patch):
    sample = gauge_sample(patch, seed=11)
    path = tmp_path / "d.jgf1"
    write_field(sample.jet2, path)
    text = describe(path)
    assert "jet2-gauge" in text
    assert "8x8" in text


SPECS = [
    group_spec("u1"),
    SU2,
    SU3,
    group_spec("sun", n=4),
    group_spec("su2", rep_dim=3),
    group_spec("su3", rep_dim=8),
    group_spec("sun", n=4, rep_dim=15),
]
# (value kind, finite-difference jet): every CLI sample kind, with --fd where
# it has one, and the kinds only write_field stores
ROUND_TRIP_KINDS = [(kind, False) for kind in SAMPLES] + [
    (kind, True) for kind, (*_, fd) in SAMPLES.items() if fd is not None
] + [("algebra", False), ("matter", False), ("curvature", False)]


def field_of(kind, fd, spec, patch, seed):
    rng = seeded_rng(seed, "jgf-kinds", kind)
    if kind in SAMPLES:
        family, sampler, exact, fd_jet = SAMPLES[kind]
        sample = sampler(patch, spec, family(rng, spec, patch.dim))
        return fd_jet(sample.values) if fd else getattr(sample, exact)
    if kind == "algebra":
        return Field(patch, AlgebraElement(spec, random_algebra_entries(rng, spec, patch.extent)))
    if kind == "matter":
        return sample_matter(patch, spec, random_matter_family(rng, spec, patch.dim)).values
    cs = sample_connection(patch, spec, random_connection_family(rng, spec, patch.dim))
    return Field(patch, curvature(cs.jet.value))


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def payload_of(path) -> bytes:
    return path.read_bytes().split(b"\n", 7)[7]


def encoding(field) -> bytes:
    """The JGF1 payload of ``field``, built from the format's description alone:
    per point, each LAYOUT array row-major, s packed to mu <= nu."""
    v, npts, n = field.value, field.patch.npoints, field.patch.dim
    parts = {name: getattr(v, name).reshape(npts, -1) for name in v.LAYOUT}
    if isinstance(v, Jet2Gauge):
        mu, nu = np.triu_indices(n)
        parts["s"] = v.s.reshape(npts, n, n, -1)[:, mu, nu].reshape(npts, -1)
    return np.concatenate(list(parts.values()), axis=1).astype("<c16").tobytes()


@pytest.mark.parametrize("kind, fd", ROUND_TRIP_KINDS)
@given(
    st.sampled_from(SPECS),
    st.lists(st.integers(5, 6), min_size=1, max_size=4),
    st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_every_kind_round_trips_bit_exactly(tmp_path_factory, kind, fd, spec, extent, seed):
    patch = Patch(tuple(extent), spacing=0.1)
    field = field_of(kind, fd, spec, patch, seed)
    assert value_kind(field) == kind
    tmp = tmp_path_factory.mktemp("kinds")
    first, second = tmp / "a.jgf1", tmp / "b.jgf1"
    write_field(field, first)
    assert payload_of(first) == encoding(field)
    back = read_field(first)
    assert value_kind(back) == kind
    assert back.patch.extent == patch.extent and back.patch.spacing == patch.spacing
    assert type(back.value) is type(field.value)
    for name, arr in arrays_of(field.value):
        assert same_bits(arr, getattr(back.value, name)), name
    write_field(back, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind, fd", ROUND_TRIP_KINDS)
@pytest.mark.parametrize("points_per_block", [0, 7], ids=["16-bytes", "7-points"])
def test_block_size_moves_no_bit(tmp_path, monkeypatch, kind, fd, points_per_block):
    """Below one point (a 16-byte block) and at 7 points per block, which divides
    no point count here, files equal the encoding and read back bit for bit."""
    field = field_of(kind, fd, SU3, Patch((5, 6, 5), spacing=0.1), 17)
    point_bytes = len(encoding(field)) // field.patch.npoints
    monkeypatch.setattr(patch_module, "BLOCK_BYTES", max(16, points_per_block * point_bytes + 8))
    path = tmp_path / "f.jgf1"
    write_field(field, path)
    assert payload_of(path) == encoding(field)
    back = read_field(path)
    for name, arr in arrays_of(field.value):
        assert same_bits(arr, getattr(back.value, name)), name


@pytest.mark.parametrize("points_per_block", [None, 7], ids=["default", "7-points"])
def test_non_finite_entry_in_last_block_refused(tmp_path, monkeypatch, points_per_block):
    """The last entry of the last block, a partial one at 7 points per block, is
    checked like the first; a jet1-gauge is read without invariant checks, so
    the block check is all that refuses it."""
    field = gauge_sample(Patch((5, 6, 5), spacing=0.1), SU3, seed=14).jet1
    if points_per_block:
        point_bytes = len(encoding(field)) // field.patch.npoints
        monkeypatch.setattr(patch_module, "BLOCK_BYTES", points_per_block * point_bytes + 8)
    path = tmp_path / "last.jgf1"
    write_field(field, path)
    path.write_bytes(path.read_bytes()[:-16] + np.array([complex("nan")], dtype="<c16").tobytes())
    with pytest.raises(FormatError, match="payload contains non-finite entries"):
        read_field(path)


def _jet1_on_axes(spec, extent, n):
    g = np.broadcast_to(np.eye(spec.n), extent + (spec.n, spec.n))
    return Jet1Gauge(spec, g, np.zeros(extent + (n, spec.n, spec.n)))


def _jet2_on_axes(spec, extent, n):
    j = _jet1_on_axes(spec, extent, n)
    return Jet2Gauge(spec, j.g, j.a, np.zeros(extent + (n, n, spec.n, spec.n)))


UNREADABLE = {
    "algebra-3-components": lambda e: AlgebraElement(
        SU2, random_algebra_entries(seeded_rng(0, "alg"), SU2, e + (3,))
    ),
    "group-extra-axis": lambda e: exp(
        AlgebraElement(SU2, random_algebra_entries(seeded_rng(0, "grp"), SU2, e + (2,)))
    ),
    "matter-extra-axis": lambda e: RepVector(SU2, np.ones(e + (2, 2))),
    "jet1-n3": lambda e: _jet1_on_axes(SU2, e, 3),
    "jet2-n1": lambda e: _jet2_on_axes(SU2, e, 1),
    "jet2-n3": lambda e: _jet2_on_axes(SU2, e, 3),
    "curvature-n3": lambda e: Curvature(SU2, 3, np.zeros(e + (3, 2, 2))),
    "real-scalar": lambda e: np.ones(e),
    "complex-scalar": lambda e: np.full(e, 1.0 + 1.0j),
    "nan-scalar": lambda e: np.full(e, np.nan),
    "scalar-extra-axis": lambda e: np.zeros(e + (2,)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_writer_refuses_what_the_reader_cannot_rebuild(tmp_path, patch, case):
    path = tmp_path / "refused.jgf1"
    with pytest.raises(FormatError):
        write_field(Field(patch, UNREADABLE[case](patch.extent)), path)
    assert not path.exists()


@pytest.mark.parametrize("points_per_block", [None, 7], ids=["default", "7-points"])
@pytest.mark.parametrize("where", [0, -1], ids=["first-entry", "last-entry"])
def test_writer_refuses_non_finite_entries(tmp_path, monkeypatch, points_per_block, where):
    """The writer checks each gathered block as the reader does: a NaN in the
    first or the last block (at 7 points per block, after the others were
    written) refuses the value and leaves no file, not even one that was
    there before."""
    field = gauge_sample(Patch((5, 6, 5), spacing=0.1), SU3, seed=14).jet1
    if points_per_block:
        point_bytes = len(encoding(field)) // field.patch.npoints
        monkeypatch.setattr(patch_module, "BLOCK_BYTES", points_per_block * point_bytes + 8)
    a = field.value.a.copy()
    a.reshape(-1)[where] = np.nan
    path = tmp_path / "nan.jgf1"
    path.write_bytes(b"an older file")
    with pytest.raises(FormatError, match="non-finite"):
        write_field(Field(field.patch, _trusted(Jet1Gauge, SU3, field.value.g, a)), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "spec, extent, line, bad",
    [
        (SU2, (64, 64), b"family su2\n", b"family\n"),
        (group_spec("sun", n=4), (6, 6), b"family sun 4\n", b"family sun 4 5\n"),
        (SU2, (64, 64), b"family su2\n", b"family su2 2\n"),
        (SU2, (64, 64), b"extent 64 64\n", b"extent 064 64\n"),
        (SU2, (64, 64), b"spacing 0.05 0.05\n", b"spacing 0.050 5e-2\n"),
        (SU2, (64, 64), b"rep_dim 2\n", b"rep_dim 0\n"),
    ],
    ids=["family-no-value", "sun-two-n", "su2-with-n", "extent-leading-zero", "spacing-not-repr", "rep-dim-0"],
)
def test_header_not_as_written_exits_2(tmp_path, capsys, spec, extent, line, bad):
    """A header line that the writer would not write is refused, naming its
    field, with exit 2 and one line: one without its value once raised
    IndexError, and the others were read and then written back as other bytes."""
    path = tmp_path / "bad.jgf1"
    write_field(gauge_sample(Patch(extent), spec=spec).values, path)
    raw = path.read_bytes()
    assert line in raw
    path.write_bytes(raw.replace(line, bad, 1))
    with pytest.raises(FormatError, match=line.split()[0].decode()):
        read_field(path)
    assert cli_main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# one valid file of every kind, su2 on a plane and su(4) adjoint on a line
MUTATION_BASES = [(kind, SU2, (5, 6)) for kind in KINDS] + [
    (kind, group_spec("sun", n=4, rep_dim=15), (5,)) for kind in ("group", "jet2-gauge", "matter")
]
# digits, separators and letters of the header's values, or any 1-3 bytes
HEADER_BYTES = st.one_of(
    st.sampled_from([bytes([b]) for b in b"0159 \n-.+enau\t\x80"]), st.binary(min_size=1, max_size=3)
)


@pytest.fixture(scope="module")
def mutation_files(tmp_path_factory):
    """(bytes, header length) of each base file, and a scratch path for the mutants."""
    tmp = tmp_path_factory.mktemp("mutation")
    bases = []
    for i, (kind, spec, extent) in enumerate(MUTATION_BASES):
        write_field(field_of(kind, False, spec, Patch(extent, spacing=0.1), i), tmp / "base.jgf1")
        raw = (tmp / "base.jgf1").read_bytes()
        bases.append((raw, len(raw) - len(payload_of(tmp / "base.jgf1"))))
    return bases, tmp


@st.composite
def mutants(draw, bases):
    """A base file with its header bytes replaced, deleted or inserted, or its
    payload cut, extended or poisoned with a NaN or an infinity."""
    raw, head = draw(st.sampled_from(bases))
    how = draw(st.sampled_from(["replace", "delete", "insert", "cut", "extend", "poison"]))
    if how in ("replace", "delete", "insert"):
        at = draw(st.integers(0, head - 1))
        cut = {"replace": 1, "delete": draw(st.integers(1, 4)), "insert": 0}[how]
        return raw[:at] + (b"" if how == "delete" else draw(HEADER_BYTES)) + raw[at + cut :]
    if how == "cut":
        return raw[: draw(st.integers(head, len(raw) - 1))]
    if how == "extend":
        return raw + draw(st.binary(min_size=1, max_size=40))
    at = head + 8 * draw(st.integers(0, (len(raw) - head) // 8 - 1))
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return raw[:at] + np.array([value], dtype="<f8").tobytes() + raw[at + 8 :]


def _inspect_exits_0_or_2_and_writes_back(tmp, raw):
    path, back = tmp / "mutant.jgf1", tmp / "back.jgf1"
    path.write_bytes(raw)
    code = cli_main(["inspect", str(path)])
    assert code in (0, 2)
    if code == 0:
        write_field(read_field(path), back)
        assert back.read_bytes() == raw


@given(st.data())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_mutated_files_exit_0_or_2(mutation_files, data):
    """``inspect`` of a mutated file never raises: it exits 2, or 0 for a file
    that then writes back to the same bytes."""
    bases, tmp = mutation_files
    _inspect_exits_0_or_2_and_writes_back(tmp, data.draw(mutants(bases)))


@pytest.mark.slow
@given(st.data())
@settings(max_examples=3000, deadline=None)
def test_mutated_files_exit_0_or_2_many(mutation_files, data):
    bases, tmp = mutation_files
    _inspect_exits_0_or_2_and_writes_back(tmp, data.draw(mutants(bases)))
