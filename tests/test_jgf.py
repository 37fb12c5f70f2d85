"""JGF1 field file round trips and header handling."""

import numpy as np
import pytest

from gaugejets.analytic import (
    random_connection_family,
    random_gauge_family,
    random_matter_family,
    sample_connection,
    sample_gauge,
    sample_matter,
)
from gaugejets.cli import main as cli_main
from gaugejets.jets import curvature, jet2_of
from gaugejets.jgf import FormatError, describe, read_field, value_kind, write_field
from gaugejets.lie_core import group_spec, seeded_rng
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
    for name in ("entries", "g", "a", "s", "A", "dA", "phi", "dphi", "comps"):
        arr = getattr(value, name, None)
        if arr is not None:
            yield name, arr


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
    ],
    ids=["non-unitary", "nan", "family", "dim", "spacing-nan"],
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


def test_describe_mentions_kind_and_extent(tmp_path, patch):
    sample = gauge_sample(patch, seed=11)
    path = tmp_path / "d.jgf1"
    write_field(sample.jet2, path)
    text = describe(path)
    assert "jet2-gauge" in text
    assert "8x8" in text
