"""Generators: the block draws give the scalar loop's bytes, pinned per seed, in bounded memory."""

import hashlib
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from robust_summary import format_instance, generate_instance, generators

from helpers import literal_generate_instance

# sizes that put block edges between a hit coin and its weight, and the default
BLOCKS = [2, 7, generators._BLOCK]

_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_seed = st.integers(0, 2**32 - 1)


def _same_bytes(spec, matroid, seed, block):
    with mock.patch.object(generators, "_BLOCK", block):
        blocked = format_instance(generate_instance(spec, matroid=matroid, seed=seed))
    assert blocked == format_instance(literal_generate_instance(spec, matroid, seed))


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 30),
    p=_probability,
    wmin=st.floats(0.0, 10.0),
    width=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    seed=_seed,
)
@example(n=1, p=1.0, wmin=0.5, width=1.0, seed=0)
@example(n=2, p=1.0, wmin=1.0, width=0.0, seed=4)
@example(n=2, p=0.0, wmin=0.5, width=1.0, seed=4)
@example(n=30, p=1.0, wmin=0.5, width=1.0, seed=9)
def test_cut_generator_draws_as_the_scalar_loop(block, n, p, wmin, width, seed):
    spec = f"cut n={n} p={p!r} wmin={wmin!r} wmax={wmin + width!r}"
    _same_bytes(spec, "uniform k=1", seed, block)


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12), universe=st.integers(0, 25), density=_probability, seed=_seed)
@example(n=1, universe=0, density=0.5, seed=0)
@example(n=2, universe=9, density=0.0, seed=1)
@example(n=12, universe=25, density=1.0, seed=2)
def test_coverage_generator_draws_as_the_scalar_loop(block, n, universe, density, seed):
    spec = f"coverage n={n} universe={universe} density={density!r}"
    _same_bytes(spec, "uniform k=1", seed, block)


# sha256 of format_instance, computed with one scalar draw per pair or cover
# row; a numpy that draws another stream changes them too
PINNED = [
    ("cut n=12 p=0.4", "uniform k=3", 0,
     "d286a5619e4dace15baedaa14bdf60b7762df049545b53a77ca20c6a1813a43f"),
    ("cut n=2 p=1 wmin=1 wmax=1", "uniform k=1", 4,
     "6b1e05da7cc08e465545efa9eee8db10e8f021ed742a9f57b0a8dfb1e8a15d8a"),
    ("cut n=600 p=0.025", "partition nblocks=6 cap=5", 11,
     "d2f056ae93508deb9160f8c79c3b9c3870f8b43497dc89c53826ce4aecf8fab1"),
    ("cut n=90 p=0.3 wmin=0.2 wmax=3", "uniform k=4", 7,
     "8fabebb1828395fe5b4221071df0403760f963c5345481bdea6e242c38fd846e"),
    ("coverage n=14 universe=20 density=0.25", "uniform k=3", 3,
     "2bf126518080dbb74d87e2f32372f02f0a5014ed38b7ae8e61cee44db17c0e1b"),
    ("coverage n=300 universe=200 density=0.04", "partition nblocks=10 cap=2", 1,
     "b65c4450fcc0ddf8e43a124faaee9ac616183baebd93c402e4638329ad5b812f"),
    ("facility n=12 clients=8", "uniform k=2", 5,
     "dd6fd3dae3321263962baa0c176b891b4999d34e7a9794690d9421efc9b5583d"),
    ("lowerbound k=4 d=3 nzero=10", None, 0,
     "6c79b11a203933c66494282967740ac359070e865e7bab3e3b72ba00a23b2c06"),
]


@pytest.mark.parametrize(
    "spec, matroid, seed, digest", PINNED, ids=[spec.replace(" ", "-") for spec, *_ in PINNED]
)
def test_generated_bytes_are_pinned(spec, matroid, seed, digest):
    text = format_instance(generate_instance(spec, matroid=matroid, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cut_generator_memory_is_bounded():
    # about two million vertex pairs; an array per pair would take over 100 MB
    tracemalloc.start()
    try:
        generate_instance("cut n=2000 p=0.01", matroid="uniform k=3", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
