"""Where structural checks run.

Public constructors and the gauge sampler's family descriptors check
finiteness, unitarity and algebra membership; operations on checked values
do not re-check their results, which keep the invariants by construction.
The second half of this module checks those invariants here, in the tests,
instead of at run time.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from gaugejets import lie_core
from gaugejets.actions import act_jet_connection
from gaugejets.analytic import (
    Polynomial,
    ProductGauge,
    SingleGenerator,
    random_connection_family,
    random_gauge_family,
    random_matter_family,
    sample_connection,
    sample_gauge,
    sample_matter,
)
from gaugejets.jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    curvature,
    jet1_of,
    jet2_mul,
)
from gaugejets.lie_core import (
    ATOL,
    AlgebraElement,
    GroupElement,
    RepVector,
    assert_antihermitian,
    assert_unitary,
    exp,
    group_spec,
    random_algebra_entries,
    rep_act,
    seeded_rng,
)
from gaugejets.patch import Field, Patch

SPECS = {
    "u1": group_spec("u1"),
    "su2": group_spec("su2"),
    "su3": group_spec("su3"),
    "su4": group_spec("sun", n=4),
    "su3-adjoint": group_spec("su3", rep_dim=8),
}
N_AXES = 3
BATCH = 32


@pytest.fixture
def checked(monkeypatch):
    """Record the shape of every array a structural check is run on."""
    seen = []
    for name in ("assert_finite", "assert_unitary", "assert_antihermitian"):
        original = getattr(lie_core, name)

        def recording(m, *args, _original=original):
            seen.append(m.shape)
            return _original(m, *args)

        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "gaugejets" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording)
    return seen


def make_inputs(spec, seed=0):
    """Checked random fiber values plus a sampled group field and a family."""
    rng = seeded_rng(seed, "checks", spec.label())

    def group(shape):
        return exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape)))

    def jet2():
        s = random_algebra_entries(rng, spec, (BATCH, N_AXES, N_AXES))
        return Jet2Gauge(
            spec,
            group((BATCH,)).entries,
            random_algebra_entries(rng, spec, (BATCH, N_AXES)),
            0.5 * (s + np.swapaxes(s, -4, -3)),
        )

    patch = Patch((5,) * N_AXES, spacing=0.1)
    family = random_gauge_family(rng, spec, N_AXES, factors=2)
    return SimpleNamespace(
        j=jet2(),
        k=jet2(),
        jc=JetConnection(
            spec,
            random_algebra_entries(rng, spec, (BATCH, N_AXES)),
            random_algebra_entries(rng, spec, (BATCH, N_AXES, N_AXES)),
        ),
        x=AlgebraElement(spec, random_algebra_entries(rng, spec, (BATCH,))),
        gfield=Field(patch, group(patch.extent)),
        patch=patch,
        family=ProductGauge(
            (SingleGenerator(Polynomial(1.0), random_algebra_entries(rng, spec)), *family.factors)
        ),
        g=group((BATCH,)),
        var=RepVector(spec, rng.uniform(-1, 1, (BATCH, spec.rep_dim)) + 0j),
        connection=random_connection_family(rng, spec, N_AXES),
    )


def read_orders(sample, names=("values", "jet1", "jet2")):
    """Read every order of a sample, highest last, and return it."""
    for name in names:
        getattr(sample, name)
    return sample


# name -> (operation on the inputs, (unitary arrays, algebra arrays) of its result)
OPS = {
    "jet2_mul": (
        lambda i: jet2_mul(i.j, i.k),
        lambda r: ([r.g], [r.a, r.s]),
    ),
    "act_jet_connection": (
        lambda i: act_jet_connection(i.j, i.jc),
        lambda r: ([], [r.A, r.dA]),
    ),
    "curvature": (lambda i: curvature(i.jc), lambda r: ([], [r.comps])),
    "exp": (lambda i: exp(i.x), lambda r: ([r.entries], [])),
    # the derivative slot of a finite-difference jet is off the algebra by O(h^2)
    "jet1_of": (lambda i: jet1_of(i.gfield), lambda r: ([r.value.g], [])),
    "sample_gauge": (
        lambda i: read_orders(sample_gauge(i.patch, i.gfield.value.spec, i.family)),
        lambda r: ([r.values.value.entries, r.jet2.value.g], [r.jet2.value.a, r.jet2.value.s]),
    ),
    # a real combination of the checked basis is anti-hermitian entry by entry
    "sample_connection": (
        lambda i: read_orders(
            sample_connection(i.patch, i.gfield.value.spec, i.connection), ("values", "jet")
        ),
        lambda r: ([], [r.values.value.entries, r.jet.value.A, r.jet.value.dA]),
    ),
    # a variation is a vertical vector: matter's linear action moves it
    "act_variation": (lambda i: rep_act(i.g, i.var), lambda r: ([], [])),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_operations_run_no_per_point_checks(checked, op):
    spec = SPECS["su3"]
    inputs = make_inputs(spec)
    checked.clear()
    OPS[op][0](inputs)
    if op == "sample_gauge":
        # finiteness and structure of each family descriptor's (N, N)
        # matrix, when sampled; none on the grid of any order
        assert checked == [(spec.n, spec.n)] * 2 * len(inputs.family.factors)
    else:
        assert checked == []


def test_public_constructors_check(checked):
    spec = SPECS["su2"]
    rng = seeded_rng(1, "constructors")
    g = exp(AlgebraElement(spec, random_algebra_entries(rng, spec, (BATCH,)))).entries
    a = random_algebra_entries(rng, spec, (BATCH, N_AXES))
    s = random_algebra_entries(rng, spec, (BATCH, N_AXES, N_AXES))
    s = 0.5 * (s + np.swapaxes(s, -4, -3))
    comps = random_algebra_entries(rng, spec, (BATCH, N_AXES))
    v = rng.uniform(-1, 1, (BATCH, N_AXES, spec.rep_dim)) + 0j
    # (constructor, invariant checks): each field is also checked finite
    constructors = [
        (lambda: GroupElement(spec, g), 1),
        (lambda: AlgebraElement(spec, a), 1),
        (lambda: Jet1Gauge(spec, g, a), 2),
        (lambda: Jet2Gauge(spec, g, a, s), 3),
        (lambda: JetConnection(spec, a, s), 2),
        (lambda: Curvature(spec, N_AXES, comps), 1),
        (lambda: RepVector(spec, v[:, 0]), 0),
        (lambda: JetMatter(spec, v[:, 0], v), 0),
    ]
    for build, expected in constructors:
        checked.clear()
        value = build()
        assert len(checked) == len(value.LAYOUT) + expected


def test_matter_sampler_checks_each_slot_once(checked):
    spec = SPECS["su3"]
    patch = Patch((5,) * N_AXES, spacing=0.1)
    family = random_matter_family(seeded_rng(4, "checks"), spec, N_AXES)
    checked.clear()
    sample = sample_matter(patch, spec, family)
    # like every sampled grid, phi and dphi are built unchecked; the values share the jet's phi
    assert checked == []
    assert np.array_equal(sample.values.value.entries, sample.jet.value.phi)


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_results_keep_structure(spec_name, op):
    spec = SPECS[spec_name]
    run, invariants = OPS[op]
    unitary, algebra = invariants(run(make_inputs(spec, seed=2)))
    for m in unitary:
        assert_unitary(m, ATOL, spec.is_special)
    for m in algebra:
        assert_antihermitian(m, ATOL, spec.is_special)
