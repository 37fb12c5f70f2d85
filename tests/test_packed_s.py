"""The packed s keeps the bits of the full (n, n) stack.

``Jet2Gauge.s`` holds one slot per pair mu <= nu.  The full-stack formulas
it replaces are kept here as references: each held s_munu and s_numu on
both sides of the diagonal, exactly symmetric.  Every packed result must
equal the reference's slots mu <= nu byte for byte, at two batch sizes,
wherever both conjugate matrix by matrix (``ad``: n <= 2, or N = 1).  From
``GEMM_MIN_STACK`` on (n >= 3, N >= 2) the inverse and the product conjugate
s by a GEMM of n(n+1)/2 rows per point where the reference took n^2, and a
GEMM row may round differently at another height, so there their s is held
to the reference within the ``_ad_kron`` bound; every other field keeps its
bits.  That ``harness._random`` draws the same s as before is checked in
``test_harness``.
"""

import numpy as np
import pytest

from gaugejets import harness
from gaugejets.actions import act_jet_connection, gauge_to_zero_jet2
from gaugejets.analytic import random_gauge_family, sample_gauge
from gaugejets.jets import (
    Jet2Gauge,
    JetConnection,
    _derivative,
    jet1_of,
    jet2_inv,
    jet2_mul,
    jet2_of,
    sym,
)
from gaugejets.lie_core import (
    GEMM_MIN_STACK,
    ad,
    ad_stacks,
    dagger,
    group_spec,
    mm,
    pair_products,
    seeded_rng,
)
from gaugejets.patch import Patch
from test_lie_core import EPS, gamma

SPECS = {
    "u1": group_spec("u1"),
    "su2": group_spec("su2"),
    "su3-adjoint": group_spec("su3", rep_dim=8),
    "su4-adjoint": group_spec("sun", 4, rep_dim=15),
}
NS = [1, 2, 3, 4]
BATCHES = [7, 1000]


def unpack(s, n):
    """The full (..., n, n, N, N) stack of a packed s, s_numu = s_munu."""
    full = np.empty(s.shape[:-3] + (n, n) + s.shape[-2:], s.dtype)
    for i, (mu, nu) in enumerate(zip(*np.triu_indices(n))):
        full[..., mu, nu, :, :] = full[..., nu, mu, :, :] = s[..., i, :, :]
    return full


def packed(full):
    """The slots mu <= nu of a full stack."""
    mu, nu = np.triu_indices(full.shape[-3])
    return full[..., mu, nu, :, :]


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# --- the full-stack formulas: (g, a, s) with s (..., n, n, N, N) ---

def ad_jet_reference(g, a, s):
    n = s.shape[-3]
    if g.shape[-1] >= 2 and n + n * n >= GEMM_MIN_STACK:
        ada, out = ad_stacks(g, a, s)
        mu, nu = np.triu_indices(n, 1)
        out[..., nu, mu, :, :] = out[..., mu, nu, :, :]
        return ada, out
    rows = [ad(g, s[..., mu, mu:, :, :]) for mu in range(n)]
    out = np.empty(rows[0].shape[:-3] + s.shape[-4:], np.complex128)
    for mu, row in enumerate(rows):
        out[..., mu, mu:, :, :] = row
        out[..., mu + 1 :, mu, :, :] = row[..., 1:, :, :]
    return ad(g, a), out


def jet2_mul_reference(left, right):
    (g, a, s), (h, b, t) = left, right
    adb, out = ad_jet_reference(g, b, t)
    out += s
    out += pair_products(a, adb)
    out -= pair_products(a, adb, reverse=True)
    return mm(g, h), a + adb, sym(out)


def jet2_inv_reference(jet):
    g, a, s = jet
    ginv = dagger(g)
    a, s = ad_jet_reference(ginv, a, s)
    return ginv, -a, -s


def act_jet_connection_reference(jet, A, dA):
    g, a, s = jet
    adA, dA_out = ad_stacks(g, A, dA)
    half = adA - 0.5 * a
    dA_out += pair_products(a, half)
    dA_out -= pair_products(a, half, reverse=True)
    dA_out -= s
    return adA - a, dA_out


def assert_jet_bits(jet, reference):
    g, a, s = reference
    assert same_bits(jet.g, g) and same_bits(jet.a, a)
    assert same_bits(jet.s, packed(s))


def conjugation_tol(g, x):
    """Twice the ``_ad_kron`` bound on Ad(g) x, entry by entry: two GEMMs by
    one K(g) are each within it of the exact conjugation.  The magnitude is
    scaled by 1 + gamma_(2N+6) for its own rounding, as in ``test_lie_core``."""
    big = g.shape[-1]
    c = np.sqrt(2) * (gamma(2 * big * big + 3) + gamma(4 * big + 1)) * (1 + gamma(2 * big + 6))
    absg = np.abs(g).reshape(g.shape[:-2] + (1,) * (x.ndim - g.ndim) + g.shape[-2:])
    return 2 * c * mm(mm(absg, np.abs(x)), np.swapaxes(absg, -1, -2))


def assert_jet_close(jet, reference, tol):
    """g and a with their bits, s within ``tol`` of the reference's slots mu <= nu."""
    g, a, s = reference
    assert same_bits(jet.g, g) and same_bits(jet.a, a)
    assert jet.s.shape == packed(s).shape
    assert np.all(np.abs(jet.s - packed(s)) <= packed(tol))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("label", SPECS)
def test_jet_laws_keep_their_bits(label, n, batch):
    """``jet2_mul``, ``jet2_inv`` and ``act_jet_connection`` give the bits of
    the full-stack formulas on the unpacked jets.  On the GEMM path the s of
    ``jet2_mul`` and ``jet2_inv`` is held within the bound of its conjugation,
    plus, for the product, 2 eps of the summands' size for each of the four
    roundings that follow it: three additions and the symmetrization."""
    spec = SPECS[label]
    rng = seeded_rng(33, "packed", label, n, batch)
    x, y = (harness._random(Jet2Gauge, rng, spec, n, batch) for _ in range(2))
    xf, yf = ((j.g, j.a, unpack(j.s, n)) for j in (x, y))
    prod, prod_ref = jet2_mul(x, y), jet2_mul_reference(xf, yf)
    inv, inv_ref = jet2_inv(x), jet2_inv_reference(xf)
    if spec.n < 2 or n + n * (n + 1) // 2 < GEMM_MIN_STACK:
        assert_jet_bits(prod, prod_ref)
        assert_jet_bits(inv, inv_ref)
    else:
        adb, ads, xs = ad(x.g, y.a), ad(x.g, yf[2]), xf[2]
        mag = np.abs(ads) + np.abs(xs) + np.abs(pair_products(x.a, adb))
        mag += np.abs(pair_products(x.a, adb, reverse=True))
        tol = conjugation_tol(x.g, yf[2]) + 8 * EPS * mag
        assert_jet_close(prod, prod_ref, sym(tol))
        assert_jet_close(inv, inv_ref, conjugation_tol(inv_ref[0], xs))
    jc = harness._random(JetConnection, rng, spec, n, batch)
    got = act_jet_connection(x, jc)
    A, dA = act_jet_connection_reference(xf, jc.A, jc.dA)
    assert same_bits(got.A, A) and same_bits(got.dA, dA)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("label", SPECS)
def test_fd_jet_and_witness_keep_their_bits(label, n):
    """``jet2_of`` packs the symmetrized derivative of a, and the second-order
    witness the symmetric part of dA, with the bits of the full ``sym``."""
    spec = SPECS[label]
    rng = seeded_rng(33, "packed-fd", label, n)
    values = sample_gauge(Patch((5,) * n, spacing=0.07), spec, random_gauge_family(rng, spec, n)).values
    jet1 = jet1_of(values).value
    full = sym(_derivative(jet1.a, values.patch, -4))
    assert_jet_bits(jet2_of(values).value, (jet1.g, jet1.a, full))
    jc = harness._random(JetConnection, rng, spec, n, 7)
    w = gauge_to_zero_jet2(jc)
    assert same_bits(w.jet.s, packed(sym(jc.dA)))
    A, dA = act_jet_connection_reference((w.jet.g, w.jet.a, sym(jc.dA)), jc.A, jc.dA)
    assert same_bits(w.transformed.A, A) and same_bits(w.transformed.dA, dA)


@pytest.mark.parametrize("n", NS)
def test_unpack_inverts_the_packing(n):
    s = harness._random(Jet2Gauge, seeded_rng(33, "unpack"), SPECS["su2"], n, 3).s
    full = unpack(s, n)
    assert same_bits(packed(full), s)
    assert np.array_equal(full, np.swapaxes(full, -4, -3))
