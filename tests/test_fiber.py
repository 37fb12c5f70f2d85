"""The fiber layout: constructor checks and ``distance`` for all nine fiber types."""

import numpy as np
import pytest

from gaugejets.jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
)
from gaugejets.lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    InvariantError,
    RepTangent,
    RepVector,
    algebra_basis,
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
    s = random_algebra_entries(rng, SPEC, BATCH + (N_AXES, N_AXES))
    s = 0.5 * (s + np.swapaxes(s, -4, -3))
    dA = random_algebra_entries(rng, SPEC, BATCH + (N_AXES, N_AXES))
    comps = random_algebra_entries(rng, SPEC, BATCH + (N_AXES * (N_AXES - 1) // 2,))
    k = SPEC.rep_dim
    phi, dphi = vec(BATCH + (k,)), vec(BATCH + (N_AXES, k))
    return {
        "GroupElement": (GroupElement, {}, {"entries": g}, {"entries": "group"}),
        "AlgebraElement": (AlgebraElement, {}, {"entries": a[:, 0]}, {"entries": "algebra"}),
        "RepVector": (RepVector, {}, {"entries": phi}, {}),
        "RepTangent": (RepTangent, {}, {"entries": phi}, {}),
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
    """``n`` is bound by its first use; ``P`` follows from ``Curvature.n_axes``."""
    s = cases()["Jet2Gauge"][2]["s"]
    with pytest.raises(DimensionError):
        build("Jet2Gauge", s=s[..., :2, :2, :, :])
    with pytest.raises(DimensionError):
        build("JetConnection", dA=s[..., :2, :, :, :])
    with pytest.raises(DimensionError):
        build("Curvature", n_axes=N_AXES + 1)


def test_asymmetric_s_rejected():
    s = cases()["Jet2Gauge"][2]["s"].copy()
    s[..., 0, 1, :, :] += 1e-3 * algebra_basis(SPEC)[0]  # stays in the algebra
    with pytest.raises(InvariantError, match="symmetric"):
        build("Jet2Gauge", s=s)


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
