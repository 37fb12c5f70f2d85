"""The fiber layout: constructor checks and ``distance`` for all nine fiber types."""

import numpy as np
import pytest

from gaugejets.jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    sym_pairs,
)
from gaugejets.lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    InvariantError,
    RepVector,
    distance,
    exp,
    group_spec,
    random_algebra_entries,
    seeded_rng,
)

SPEC = group_spec("su2")
N_AXES = 3
BATCH = (4,)


def cases(seed=0):
    """name -> (type, non-array arguments, valid array fields, field invariants)."""
    rng = seeded_rng(seed, "fiber-cases")

    def vec(shape):
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    g = exp(AlgebraElement(SPEC, random_algebra_entries(rng, SPEC, BATCH))).entries
    a = random_algebra_entries(rng, SPEC, BATCH + (N_AXES,))
    s = sym_pairs(random_algebra_entries(rng, SPEC, BATCH + (N_AXES, N_AXES)))
    dA = random_algebra_entries(rng, SPEC, BATCH + (N_AXES, N_AXES))
    comps = random_algebra_entries(rng, SPEC, BATCH + (N_AXES * (N_AXES - 1) // 2,))
    k = SPEC.rep_dim
    phi, dphi = vec(BATCH + (k,)), vec(BATCH + (N_AXES, k))
    return {
        "GroupElement": (GroupElement, {}, {"entries": g}, {"entries": "group"}),
        "AlgebraElement": (AlgebraElement, {}, {"entries": a[:, 0]}, {"entries": "algebra"}),
        "RepVector": (RepVector, {}, {"entries": phi}, {}),
        "Jet1Gauge": (Jet1Gauge, {}, {"g": g, "a": a}, {"g": "group", "a": "algebra"}),
        "Jet2Gauge": (
            Jet2Gauge,
            {},
            {"g": g, "a": a, "s": s},
            {"g": "group", "a": "algebra", "s": "algebra"},
        ),
        "JetMatter": (JetMatter, {}, {"phi": phi, "dphi": dphi}, {}),
        "JetConnection": (JetConnection, {}, {"A": a, "dA": dA}, {"A": "algebra", "dA": "algebra"}),
        "Curvature": (Curvature, {"n_axes": N_AXES}, {"comps": comps}, {"comps": "algebra"}),
    }


def build(name, seed=0, **replace):
    cls, extra, arrays, _ = cases(seed)[name]
    return cls(SPEC, **{**extra, **arrays, **replace})


def _off(arr, invariant):
    """Move every matrix off the group (scaled) or off the algebra (plus a hermitian part)."""
    return arr * 1.5 if invariant == "group" else arr + np.eye(SPEC.n)


@pytest.mark.parametrize("name", sorted(cases()))
def test_constructor_checks(name):
    _, _, arrays, invariants = cases()[name]
    assert build(name).batch_shape == BATCH
    for field, arr in arrays.items():
        with pytest.raises(DimensionError):
            build(name, **{field: np.concatenate([arr, arr[..., :1]], axis=-1)})
        if len(arrays) > 1:
            with pytest.raises(DimensionError):
                build(name, **{field: arr[1:]})
        bad = arr.copy()
        bad[(0,) * bad.ndim] = np.nan
        with pytest.raises(InvariantError):
            build(name, **{field: bad})
        if field in invariants:
            with pytest.raises(InvariantError):
                build(name, **{field: _off(arr, invariants[field])})


def test_base_axes_must_agree():
    """``n`` is bound by its first use; ``S`` follows from it, ``P`` from ``Curvature.n_axes``."""
    s, dA = cases()["Jet2Gauge"][2]["s"], cases()["JetConnection"][2]["dA"]
    with pytest.raises(DimensionError):
        build("Jet2Gauge", s=s[..., :3, :, :])
    with pytest.raises(DimensionError):
        build("JetConnection", dA=dA[..., :2, :, :, :])
    with pytest.raises(DimensionError):
        build("Curvature", n_axes=N_AXES + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_s_rejected(n):
    """s holds one slot per pair mu <= nu; a full (n, n) stack, whose two
    halves could disagree, is a stack of n^2 slots and is refused."""
    g = cases()["Jet2Gauge"][2]["g"]
    a = random_algebra_entries(seeded_rng(n, "full-s"), SPEC, BATCH + (n,))
    full = random_algebra_entries(seeded_rng(n, "full-s"), SPEC, BATCH + (n * n,))
    assert Jet2Gauge(SPEC, g, a, full[..., : n * (n + 1) // 2, :, :]).s.shape[-3] == n * (n + 1) // 2
    with pytest.raises(DimensionError, match=r"Jet2Gauge\.s must end in"):
        Jet2Gauge(SPEC, g, a, full)
    with pytest.raises(DimensionError):
        Jet2Gauge(SPEC, g, a, full.reshape(BATCH + (n, n, SPEC.n, SPEC.n)))


@pytest.mark.parametrize("name", sorted(cases()))
def test_distance_zero_on_equal_values(name):
    x = build(name)
    assert np.array_equal(distance(x, build(name)), np.zeros(BATCH))


def test_distance_of_empty_curvature_is_zero():
    f = Curvature(SPEC, 1, np.zeros(BATCH + (0, SPEC.n, SPEC.n)))
    assert np.array_equal(distance(f, f), np.zeros(BATCH))


def test_distance_matches_hand_written_norms():
    x, y = build("JetMatter", seed=1), build("JetMatter", seed=2)
    expected = np.maximum(
        np.abs(x.phi - y.phi).max(axis=-1), np.abs(x.dphi - y.dphi).max(axis=(-2, -1))
    )
    np.testing.assert_allclose(distance(x, y), expected, rtol=1e-15)

    x, y = build("JetConnection", seed=1), build("JetConnection", seed=2)
    frob_A = np.linalg.norm(x.A - y.A, axis=(-2, -1))
    frob_dA = np.linalg.norm(x.dA - y.dA, axis=(-2, -1))
    expected = np.maximum(frob_A.max(axis=-1), frob_dA.max(axis=(-2, -1)))
    np.testing.assert_allclose(distance(x, y), expected, rtol=1e-14)
