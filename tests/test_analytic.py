"""The analytic samplers build each order on first read, in closed form.

Whatever order ``values``, ``jet1`` and ``jet2`` are read in, each one is
the truncation of the eagerly built second jet to the bit, and reading a
low order never pays for a higher one.  The closed-form gauge jets are
checked against the jet products of the factors' jets, and the connection
jet against its sum over the algebra basis.
"""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugejets import analytic
from gaugejets.analytic import (
    ConstantGauge,
    ProductGauge,
    random_connection_family,
    random_gauge_family,
    sample_connection,
    sample_gauge,
)
from gaugejets.cli import main as cli_main
from gaugejets.harness import SuiteConfig
from gaugejets.jgf import write_field
from gaugejets.jets import Jet2Gauge, jet1_mul, jet2_mul
from gaugejets.lie_core import (
    AlgebraElement,
    algebra_basis,
    distance,
    exp,
    frobenius,
    group_spec,
    multiply,
    seeded_rng,
)
from gaugejets.patch import Field, Patch
from sampling import random_group_element

U1 = group_spec("u1")
SU2 = group_spec("su2")
SU3 = group_spec("su3")
SU4 = group_spec("sun", n=4)
ORDERS = ("values", "jet1", "jet2")


def family(spec, n, seed, constant):
    """A product of 1-3 factors; ``constant`` marks the factors that are ConstantGauge."""
    rng = seeded_rng(seed, "lazy", spec.label())
    factors = list(random_gauge_family(rng, spec, n, factors=len(constant)).factors)
    for i, const in enumerate(constant):
        if const:
            factors[i] = ConstantGauge(random_group_element(seed + i, spec).entries)
    return ProductGauge(tuple(factors))


def truncations(jet2):
    """The three orders cut from an eagerly read second jet, as arrays by slot."""
    return {
        "values": {"entries": jet2.g},
        "jet1": {"g": jet2.g, "a": jet2.a},
        "jet2": {"g": jet2.g, "a": jet2.a, "s": jet2.s},
    }


@given(
    st.sampled_from([U1, SU2, SU3, SU4]),
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.lists(st.booleans(), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_every_read_order_matches_eager_truncation(spec, n, seed, constant):
    patch = Patch((5,) * n, spacing=0.2)
    fam = family(spec, n, seed, constant)
    expected = truncations(sample_gauge(patch, spec, fam).jet2.value)
    for order in itertools.permutations(ORDERS):
        sample = sample_gauge(patch, spec, fam)
        for name in order:
            value = getattr(sample, name).value
            for slot, want in expected[name].items():
                assert np.array_equal(getattr(value, slot), want), (order, name, slot)


EPS = np.finfo(np.float64).eps


def factor_jets(patch, spec, fam):
    """Each factor's second jet, built by hand: (exp(f X), df X, ddf X), or
    (g0, 0, 0) for a constant factor."""
    n, nn = patch.dim, spec.n
    out = []
    for factor in fam.factors:
        if isinstance(factor, ConstantGauge):
            g = np.broadcast_to(factor.g0, patch.extent + (nn, nn)).copy()
            zeros = np.zeros(patch.extent + (n, n, nn, nn), dtype=np.complex128)
            out.append(Jet2Gauge(spec, g, zeros[..., 0, :, :], zeros))
            continue
        f, grad, hess = factor.fn.evaluate(patch.coords())
        g = exp(AlgebraElement(spec, f[..., None, None] * factor.generator)).entries
        x = factor.generator
        a, s = grad[..., :, None, None] * x, hess[..., :, :, None, None] * x
        out.append(Jet2Gauge(spec, g, a, s))
    return out


def closed_form_tol(spec, factors):
    """Roundoff budget between the closed-form jets and the jet-product fold.

    Both sides share the bits of every partial product g_1 ... g_i (the same
    ``mm`` fold), so they differ only by the roundoff of their own steps.
    Let M = max(1, largest ||a_mu||_F or ||s_munu||_F of the factors).  An
    N x N product through ``mm`` errs by at most (N + 2) eps ||A||_F ||B||_F
    (as for ``jet_tol`` in ``test_jets``).  With ||g||_F = sqrt(N) and
    unitary g keeping Frobenius norms, every product on either side, scaled
    by its scalar coefficients, errs by at most 2 sqrt(N) (N + 2) eps M^2:
    Ad of a factor's a or s, a bracket of terms of size 2M and M, or a
    bracket of conjugated generators carrying their Ad errors.  Three
    factors take 14 products in two ``jet2_mul`` and 10 in the closed form
    (two Ad of X_i, brackets of three pairs).  The results reach 3M in a and
    9M^2 in s, so the at most 12 additions on both sides add 108 eps M^2.
    """
    m = max(1.0, *(float(np.max(frobenius(x), initial=0.0)) for j in factors for x in (j.a, j.s)))
    return (24 * 2 * np.sqrt(spec.n) * (spec.n + 2) + 108) * m**2 * EPS


@given(
    st.sampled_from([U1, SU2, SU3, SU4]),
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.lists(st.booleans(), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_the_jet_product(spec, n, seed, constant):
    """The closed-form jets are the jet products of the factors' jets, s is
    exactly symmetric, and g is the ``multiply`` fold of the factors' values
    to the bit (each factor's ``exp`` taken per point)."""
    patch = Patch((5,) * n, spacing=0.2)
    fam = family(spec, n, seed, constant)
    factors = factor_jets(patch, spec, fam)
    values, jet1, jet2 = (getattr(sample_gauge(patch, spec, fam), o).value for o in ORDERS)
    tol = closed_form_tol(spec, factors)
    want1 = functools.reduce(jet1_mul, [j.truncate() for j in factors])
    want2 = functools.reduce(jet2_mul, factors)
    assert np.max(distance(jet1, want1)) <= tol
    assert np.max(distance(jet2, want2)) <= tol
    assert np.array_equal(jet2.s, np.swapaxes(jet2.s, -4, -3))
    want0 = functools.reduce(multiply, [j.group_element() for j in factors])
    assert np.array_equal(values.entries, want0.entries)


def test_low_orders_never_build_the_second_jet(monkeypatch):
    """Reading ``values`` or ``jet1`` forms no bracket and never holds an
    array the size of s; ``jet2`` brackets each pair of factors once."""
    calls = []
    bracket = analytic.bracket

    def counting(x, y):
        calls.append(x.entries.shape)
        return bracket(x, y)

    monkeypatch.setattr(analytic, "bracket", counting)
    patch = Patch((6,) * 4, spacing=0.1)
    fam = family(SU3, 4, 7, [False, True, False])
    s_nbytes = patch.npoints * 4 * 4 * SU3.n * SU3.n * 16
    for names in (["values"], ["jet1", "values"]):
        sample = sample_gauge(patch, SU3, fam)
        peak = traced_peak(lambda: [getattr(sample, name) for name in names])
        assert calls == [] and peak < s_nbytes, names
    sample.jet2
    assert len(calls) == 1  # two generator factors around a constant one


def test_lower_orders_reuse_a_cached_higher_one(monkeypatch):
    calls = []
    exp = analytic.exp

    def counting(x):
        calls.append(x.entries.shape)
        return exp(x)

    monkeypatch.setattr(analytic, "exp", counting)
    patch = Patch((5, 5), spacing=0.1)
    fam = family(SU2, 2, 8, [False, False, True])
    generators = 2  # the constant factor needs no exp

    sample = sample_gauge(patch, SU2, fam)
    sample.jet1
    assert len(calls) == generators
    sample.values
    assert len(calls) == generators

    calls.clear()
    sample = sample_gauge(patch, SU2, fam)
    sample.jet2
    sample.jet1, sample.values
    assert len(calls) == generators


@pytest.fixture(scope="module")
def su3_4d():
    patch = Patch((6,) * 4, spacing=0.1)
    fam = random_gauge_family(seeded_rng(5, "peak"), SU3, 4, factors=2)
    for name in ORDERS:  # warm caches outside the measurement
        getattr(sample_gauge(patch, SU3, fam), name)
    return patch, fam


def traced_peak(build):
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "name, ratio",
    [
        # the values alone never hold an array the size of s
        ("values", 1.0),
        # the closed-form jets read 0.691 (jet1) and 2.052 (jet2) s.nbytes
        # on this patch and family, against 1.590 and 6.339 for the products
        # of per-factor jets they replace
        ("jet1", 0.72),
        ("jet2", 2.1),
    ],
)
def test_peak_memory_per_order(su3_4d, name, ratio):
    patch, fam = su3_4d
    s_nbytes = patch.npoints * 4 * 4 * SU3.n * SU3.n * 16
    peak = traced_peak(lambda: getattr(sample_gauge(patch, SU3, fam), name))
    assert peak < ratio * s_nbytes


def test_connection_jet_peak_memory():
    """The connection jet peaks at 1.671 dA.nbytes here: A and dA, and one
    component's contraction at a time.  The public constructor's structural
    checks of dA add arrays of batch shape only."""
    patch = Patch((6,) * 4, spacing=0.1)
    fam = random_connection_family(seeded_rng(9, "peak-conn"), SU3, 4)
    sample_connection(patch, SU3, fam).jet  # warm caches outside the measurement
    dA_nbytes = patch.npoints * 4 * 4 * SU3.n * SU3.n * 16
    assert traced_peak(lambda: sample_connection(patch, SU3, fam).jet) < 1.75 * dA_nbytes


def test_connection_values_match_eager_jet():
    patch = Patch((5, 5, 5), spacing=0.1)
    fam = random_connection_family(seeded_rng(9, "lazy-conn"), SU3, 3)
    jet = sample_connection(patch, SU3, fam).jet.value
    assert np.array_equal(sample_connection(patch, SU3, fam).values.value.entries, jet.A)
    sample = sample_connection(patch, SU3, fam)
    sample.values
    assert np.array_equal(sample.jet.value.A, jet.A)
    assert np.array_equal(sample.jet.value.dA, jet.dA)


@pytest.mark.parametrize("spec", [U1, SU2, SU3, SU4], ids=lambda s: s.label())
def test_connection_jet_is_the_basis_sum(spec):
    """A_nu = sum_a c_nu,a T_a and d_mu A_nu = sum_a d_mu c_nu,a T_a, summed
    one basis matrix at a time as the reference.  Each entry is a sum of at
    most d = algebra_dim products with |T_a| entries <= 1, so either side
    errs by at most d eps sum_a |c_a| (Higham's gamma_d)."""
    patch = Patch((5, 5), spacing=0.2)
    fam = random_connection_family(seeded_rng(4, "basis-sum"), spec, 2)
    jet = sample_connection(patch, spec, fam).jet.value
    basis, x, d = algebra_basis(spec), patch.coords(), spec.algebra_dim
    for nu, row in enumerate(fam.fns):
        vals = [fn.evaluate(x) for fn in row]
        want = sum(v[..., None, None] * t for (v, _, _), t in zip(vals, basis))
        dwant = sum(g[..., :, None, None] * t for (_, g, _), t in zip(vals, basis))
        tol = 2 * d * EPS * sum(np.abs(v) for v, _, _ in vals)
        dtol = 2 * d * EPS * sum(np.abs(g) for _, g, _ in vals)
        assert np.all(np.abs(jet.A[..., nu, :, :] - want) <= tol[..., None, None])
        assert np.all(np.abs(jet.dA[..., :, nu, :, :] - dwant) <= dtol[..., None, None])


@pytest.mark.parametrize("kind", ["group", "jet1-gauge", "jet2-gauge"])
def test_cli_sample_writes_the_eager_truncation(tmp_path, kind):
    cfg = {"group": {"family": "su3"}, "patch": {"extent": [5, 5, 5]}, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "cli.jgf1"
    assert cli_main(["sample", "--config", str(cfg_path), "--kind", kind, "--out", str(out)]) == 0

    patch = SuiteConfig.from_dict(cfg).patch
    fam = random_gauge_family(seeded_rng(3, "sample", kind), SU3, 3, factors=2)
    jet2 = sample_gauge(patch, SU3, fam).jet2.value
    value = {"group": jet2.group_element(), "jet1-gauge": jet2.truncate(), "jet2-gauge": jet2}
    ref = tmp_path / "eager.jgf1"
    write_field(Field(patch, value[kind]), ref)
    assert out.read_bytes() == ref.read_bytes()
