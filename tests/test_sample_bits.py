"""Every sampled bit is pinned.

The closed-form samplers sum their jets in blocks of points on the float64
view of the result, and the finite-difference jets write each stencil into
its slot of one stacked derivative.  The whole-grid formulas they replace
are kept here as references, and every grid must equal its reference bit
for bit (compared as bytes, so signed zeros and NaN payloads count too).
The bytes ``gaugejets sample`` writes are pinned by sha256 for every kind,
so a change that moves a sampled bit fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from gaugejets import analytic, jets, patch as patch_module
from gaugejets.analytic import (
    random_connection_family,
    random_gauge_family,
    random_matter_family,
    sample_connection,
    sample_gauge,
    sample_matter,
)
from gaugejets.cli import SAMPLES, main as cli_main
from gaugejets.lie_core import group_spec, seeded_rng
from gaugejets.patch import Patch, Points

SPECS = {
    "u1": group_spec("u1"),
    "su2": group_spec("su2"),
    "su3": group_spec("su3"),
    "su3-adjoint": group_spec("su3", rep_dim=8),
    "su4": group_spec("sun", n=4),
}


def combine_reference(shape, stack, terms):
    """The whole-grid sum: one complex temporary per term and row, the real
    coefficient promoted to complex."""
    out = np.zeros(shape, dtype=np.complex128)
    for c, y in terms:
        ys = y.entries.reshape(y.entries.shape[:-2] + (1,) * (stack - 1) + y.entries.shape[-2:])
        for row, crow in zip(np.moveaxis(out, -2 - stack, 0), np.moveaxis(c, -stack, 0)):
            row += crow[..., None, None] * ys
    return out


def central_diff_reference(arr, axis, h):
    """The stencil into a fresh zeroed array, one temporary for the difference."""
    out = np.zeros_like(arr)
    mid, plus, minus = ([slice(None)] * arr.ndim for _ in range(3))
    mid[axis], plus[axis], minus[axis] = slice(1, -1), slice(2, None), slice(None, -2)
    out[tuple(mid)] = (arr[tuple(plus)] - arr[tuple(minus)]) / (2.0 * h)
    return out


def derivative_reference(arr, p, axis):
    """Each axis's stencil as its own array, then ``np.stack``ed."""
    return np.stack([central_diff_reference(arr, mu, p.spacing[mu]) for mu in range(p.dim)], axis=axis)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def point_bytes(spec, n):
    """Scratch bytes per point of the second-order sum, whose block is the larger."""
    return n * n * spec.n * 2 * spec.n * 8


@pytest.mark.parametrize("where", ["grid", "points"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("label", SPECS)
def test_closed_form_jets_match_the_whole_grid_sum(monkeypatch, label, n, where):
    """a and s of three-factor products (two brackets, one unbatched generator)
    equal the whole-grid sum for the default block, a block of 7 points for s
    (7n for a), which divides no point count here, and a block smaller than one
    point."""
    spec = SPECS[label]
    patch = Patch((5 if where == "grid" else 6,) * n, spacing=0.2, origin=0.3)
    points = patch if where == "grid" else Points(patch, patch.interior(1))
    fam = random_gauge_family(seeded_rng(29, "bits", label), spec, n, factors=3)
    with monkeypatch.context() as m:
        m.setattr(analytic, "_combine", combine_reference)
        want = sample_gauge(points, spec, fam).jet2.value
    for block in (patch_module.BLOCK_BYTES, 7 * point_bytes(spec, n), 1):
        monkeypatch.setattr(patch_module, "BLOCK_BYTES", block)
        got = sample_gauge(points, spec, fam)
        for slot in ("g", "a", "s"):
            assert same_bits(getattr(got.jet2.value, slot), getattr(want, slot)), (block, slot)
        assert same_bits(got.jet1.value.a, want.a)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_forms_only_the_orders_asked_for(n):
    """Each order is the prefix of the second-order evaluation, to the bit."""
    x = Patch((5,) * n, spacing=0.2, origin=-0.4).coords()
    fns = [fn for row in random_connection_family(seeded_rng(29, "orders"), SPECS["su2"], n).fns for fn in row]
    assert {type(fn).__name__ for fn in fns} == {"Polynomial", "Sinusoid"}
    for fn in fns:
        full = fn.evaluate(x, 2)
        for order in (0, 1):
            got = fn.evaluate(x, order)
            assert len(got) == order + 1 and all(map(same_bits, got, full)), (fn, order)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("label", SPECS)
def test_fd_jets_match_the_stacked_stencils(monkeypatch, label, n):
    """Every finite-difference jet equals the one built from per-axis stencils
    stacked afterwards."""
    spec, patch = SPECS[label], Patch((5,) * n, spacing=0.07, origin=0.2)
    rng = seeded_rng(29, "fd-bits", label)
    gauge = sample_gauge(patch, spec, random_gauge_family(rng, spec, n)).values
    conn = sample_connection(patch, spec, random_connection_family(rng, spec, n)).values
    matter = sample_matter(patch, spec, random_matter_family(rng, spec, n)).values
    builds = [(jets.jet2_of, gauge), (jets.jet1_of, gauge), (jets.jet_connection_of, conn), (jets.jet_matter_of, matter)]
    got = [build(field).value for build, field in builds]
    monkeypatch.setattr(jets, "_derivative", derivative_reference)
    for (build, field), value in zip(builds, got):
        want = build(field).value
        for slot in type(value).LAYOUT:
            assert same_bits(getattr(value, slot), getattr(want, slot)), (build.__name__, slot)


SAMPLE_CONFIG = {"group": {"family": "su3"}, "patch": {"extent": [5, 5, 5, 5], "spacing": 0.07}, "seed": 29}
# sha256 of the file bytes ``gaugejets sample --kind <kind> [--fd]`` writes for SAMPLE_CONFIG
SAMPLE_SHA256 = {
    ("group", False): "3c51a1ed5db07c17dd5327de7dad8e67e3b5f32fe872035a3db02b44b4f3426d",
    ("jet1-gauge", False): "fc20cbb0dcbbcd590edb7451ac8dceb1c0a03b48906b13f593d58fc21c3effd1",
    ("jet1-gauge", True): "e76e4853843ffff665d02a42895a31b8d08cfd05b9e7f3840356a7ddcf6cb456",
    ("jet2-gauge", False): "392398f5f106385a7a6cdf595299e687e784b06cb2bd76b3ee6a66a493e73d09",
    ("jet2-gauge", True): "e647b9e2c14137032ab4508d0351e9eac128291c7e81b16b1f8ccc41c0101a14",
    ("connection", False): "1b15ee8ca42f6aa5a0cb550d2f75f11458b50f6af696967890c2fef83bdbeacd",
    ("jet-connection", False): "55c3b2321898ab474f24b6421ac5c858affa8b4cb65ffe7651aa2f1914a90bfa",
    ("jet-connection", True): "027e71104c96c20d650577c782e76958b2d547ba651252112b3491aba3b76b95",
    ("jet-matter", False): "5b827f1e6859694d54196e9cbd0c5ad950233aa0dbb2adfe673cac0debe8d06c",
    ("jet-matter", True): "fbf60835a9a9004bdbbaa82fad22bcbda7c95f48ab7347d8f412b22efcf7ce14",
}


@pytest.mark.parametrize("kind, fd", sorted(SAMPLE_SHA256))
def test_sampled_files_keep_their_bytes(tmp_path, kind, fd):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SAMPLE_CONFIG))
    out = tmp_path / "field.jgf1"
    assert cli_main(["sample", "--config", str(cfg), "--kind", kind, *(["--fd"] if fd else []), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_SHA256[kind, fd]


def test_every_sample_kind_is_pinned():
    runs = {(kind, False) for kind in SAMPLES} | {(kind, True) for kind, (*_, fd) in SAMPLES.items() if fd}
    assert set(SAMPLE_SHA256) == runs
