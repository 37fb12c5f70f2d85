"""Seeded random fiber values for the tests, drawn from ``lie_core.seeded_rng``."""

from gaugejets.lie_core import (
    AlgebraElement,
    GroupElement,
    GroupSpec,
    RepVector,
    exp,
    random_algebra_entries,
    seeded_rng,
)


def random_algebra_element(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> AlgebraElement:
    rng = seeded_rng(seed, "algebra", spec.label())
    return AlgebraElement(spec, random_algebra_entries(rng, spec, shape))


def random_group_element(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> GroupElement:
    """exp of a bounded random algebra element; unitary by construction."""
    rng = seeded_rng(seed, "group", spec.label())
    return exp(AlgebraElement(spec, random_algebra_entries(rng, spec, shape)))


def random_rep_vector(seed: int, spec: GroupSpec, shape: tuple[int, ...] = ()) -> RepVector:
    rng = seeded_rng(seed, "repvec", spec.label(), spec.rep_dim)
    k = spec.rep_dim
    entries = rng.uniform(-1, 1, (*shape, k)) + 1j * rng.uniform(-1, 1, (*shape, k))
    return RepVector(spec, entries)
