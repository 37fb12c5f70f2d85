"""JGF1 field file round trips and header handling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_scalar_round_trip(tmp_path, patch):
    rng = np.random.default_rng(9)
    f = Field(patch, rng.normal(size=patch.extent))
    path = tmp_path / "scalar.jgf1"
    write_field(f, path)
    back = read_field(path)
    assert np.array_equal(back.value, f.value)


def test_read_peak_memory(tmp_path):
    """A su3 4-D jet2-gauge read holds the payload once, plus the unpacked s
    (144 entries per point, against 135 stored), and returns writable arrays
    equal bit for bit to the written ones."""
    field = gauge_sample(Patch((5, 5, 5, 5), spacing=0.1), SU3, seed=6).jet2
    path = tmp_path / "jet2.jgf1"
    write_field(field, path)
    read_field(path)
    tracemalloc.start()
    try:
        back = read_field(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * path.stat().st_size
    for name, arr in arrays_of(field.value):
        got = getattr(back.value, name)
        assert got.flags.writeable, name
        assert got.tobytes() == arr.tobytes(), name


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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: _set_first_entry(raw, 2.0),
        lambda raw: _set_first_entry(raw, complex("nan")),
        lambda raw: raw.replace(b"family su2", b"family xyz", 1),
        lambda raw: raw.replace(b"dim 2", b"dim x", 1),
        lambda raw: raw.replace(b"spacing 0.1 0.1", b"spacing nan 0.1", 1),
        lambda raw: raw[: raw.index(b"spacing")],
    ],
    ids=["non-unitary", "nan", "family", "dim", "spacing-nan", "header-cut"],
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


def test_longest_legal_header_line_fits(tmp_path):
    # four 23-character spacings: the longest spacing line a patch allows
    spacing = (2.2250738585072014e-308,) * 4
    p = Patch((5, 5, 5, 5), spacing=spacing)
    path = tmp_path / "long.jgf1"
    write_field(Field(p, np.ones(p.extent)), path)
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
] + [("algebra", False), ("matter", False), ("curvature", False), ("scalar", False)]


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
    if kind == "curvature":
        cs = sample_connection(patch, spec, random_connection_family(rng, spec, patch.dim))
        return Field(patch, curvature(cs.jet.value))
    return Field(patch, rng.normal(size=patch.extent))


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


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
    back = read_field(first)
    assert value_kind(back) == kind
    assert back.patch.extent == patch.extent and back.patch.spacing == patch.spacing
    if kind == "scalar":
        assert same_bits(back.value, field.value)
    else:
        assert type(back.value) is type(field.value)
        for name, arr in arrays_of(field.value):
            assert same_bits(arr, getattr(back.value, name)), name
    write_field(back, second)
    assert second.read_bytes() == first.read_bytes()


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
