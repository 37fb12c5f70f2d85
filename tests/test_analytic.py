"""The analytic samplers build each order on first read.

Whatever order ``values``, ``jet1`` and ``jet2`` are read in, each one is
the truncation of the eagerly built second jet to the bit, and reading a
low order never pays for a higher one.
"""

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
from gaugejets.lie_core import group_spec, random_group_element, seeded_rng
from gaugejets.patch import Field, Patch

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


def test_low_orders_never_build_the_second_jet(monkeypatch):
    def forbidden(*args):
        raise AssertionError("jet2_mul called")

    monkeypatch.setattr(analytic, "jet2_mul", forbidden)
    patch = Patch((5, 5, 5), spacing=0.1)
    fam = family(SU3, 3, 7, [False, True, False])
    sample_gauge(patch, SU3, fam).values
    sample = sample_gauge(patch, SU3, fam)
    sample.jet1, sample.values
    with pytest.raises(AssertionError, match="jet2_mul called"):
        sample.jet2


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
        # the eager sampler, which built every order at once, peaked at
        # 6.339 s.nbytes on this patch and family; the second jet alone
        # may not peak higher
        ("jet2", 6.34),
    ],
)
def test_peak_memory_per_order(su3_4d, name, ratio):
    patch, fam = su3_4d
    s_nbytes = patch.npoints * 4 * 4 * SU3.n * SU3.n * 16
    peak = traced_peak(lambda: getattr(sample_gauge(patch, SU3, fam), name))
    assert peak < ratio * s_nbytes


def test_connection_values_match_eager_jet():
    patch = Patch((5, 5, 5), spacing=0.1)
    fam = random_connection_family(seeded_rng(9, "lazy-conn"), SU3, 3)
    jet = sample_connection(patch, SU3, fam).jet.value
    assert np.array_equal(sample_connection(patch, SU3, fam).values.value.entries, jet.A)
    sample = sample_connection(patch, SU3, fam)
    sample.values
    assert np.array_equal(sample.jet.value.A, jet.A)
    assert np.array_equal(sample.jet.value.dA, jet.dA)


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
