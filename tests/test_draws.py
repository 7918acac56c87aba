"""The builders' draw kernel (``summary.Draws``) against the generator's own calls.

``index(m)`` must give ``int(rng.integers(m))`` and ``coin()`` must give
``rng.random()``, bit for bit, and leave the generator's state where those
calls leave it, for every numpy bit generator.  The bucket lengths of a run
are small and almost never reach the rejection loop of the bounded draw, so
the ranges here include 2**31 + 1, where about half of all draws are
rejected, and 3 * 2**30, where a rejection threshold of m instead of
(2**32 - m) % m rejects three draws in four instead of one.
"""

import numpy as np
import pytest

from robust_summary import StreamingConfig, StreamState, ingest, make_modular, make_uniform
from robust_summary.summary import Draws

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
RANGES = [1, 2, 3, 15, 16, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40]


def _pair(bit_generator, seed=5):
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def _assert_same_state(a, b):
    np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
    assert a.bit_generator.random_raw() == b.bit_generator.random_raw()


@pytest.mark.parametrize("m", RANGES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_draws_give_the_bits_and_state_of_the_generator_calls(bit_generator, m):
    drawn, reference = _pair(bit_generator)
    draws = Draws(drawn)
    got, want = [], []
    for i in range(300):
        # index draws and coins interleaved, in runs of one and two, so a
        # buffered half of a 64-bit word is read across a coin
        if i % 3 == 2:
            got.append(draws.coin().hex())
            want.append(reference.random().hex())
        else:
            got.append(draws.index(m))
            want.append(int(reference.integers(m)))
    assert got == want
    assert all(type(x) is int for x in got[::3])
    _assert_same_state(drawn, reference)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_an_index_over_one_element_takes_no_bits(bit_generator):
    drawn, untouched = _pair(bit_generator)
    draws = Draws(drawn)
    assert [draws.index(1) for _ in range(50)] == [0] * 50
    _assert_same_state(drawn, untouched)


def test_the_kernel_draws_from_the_state_as_it_stands():
    # setting a state writes into the same bit generator, which the kernel keeps
    drawn, reference = _pair(np.random.PCG64)
    draws = Draws(drawn)
    reference.random()
    drawn.bit_generator.state = reference.bit_generator.state
    assert (draws.index(7), draws.coin()) == (int(reference.integers(7)), reference.random())
    _assert_same_state(drawn, reference)


def test_a_range_numpy_refuses_is_refused_alike():
    draws = Draws(np.random.default_rng(1))
    for m in (0, -3):
        with pytest.raises(ValueError) as got:
            draws.index(m)
        with pytest.raises(ValueError) as want:
            np.random.default_rng(1).integers(m)
        assert str(got.value) == str(want.value)


class _Recording:
    """An rng stand-in that is no numpy Generator: it records each call."""

    def __init__(self):
        self.calls = []

    def integers(self, m):
        self.calls.append(("integers", m))
        return np.int64(m - 1)

    def random(self):
        self.calls.append(("random",))
        return 0.25


class _Generator(np.random.Generator):
    """A subclass may redefine the draws, so it is not drawn through the bit generator."""

    def integers(self, *args, **kwargs):
        return 0

    def random(self, *args, **kwargs):
        return 0.5


def test_any_other_rng_is_drawn_by_its_own_calls():
    rng = _Recording()
    draws = Draws(rng)
    assert (draws.index(1), draws.index(4), draws.coin()) == (0, 3, 0.25)
    assert type(draws.index(2)) is int
    assert rng.calls == [("integers", 1), ("integers", 4), ("random",), ("integers", 2)]
    sub = Draws(_Generator(np.random.PCG64(1)))
    assert (sub.index(9), sub.coin()) == (0, 0.5)


def test_a_stream_builds_one_kernel_per_generator_it_is_handed():
    objective, matroid = make_modular([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]), make_uniform(8, 4)
    config = StreamingConfig(epsilon=0.9, d=1, monotone_mode=True, seed=3)
    state, rng = StreamState(config, matroid.k), np.random.default_rng(3)
    kernels = set()
    for e in range(4):
        ingest(state, e, objective, matroid, rng)
        if state.draws is not None:
            kernels.add(id(state.draws))
            assert state.draws.rng is rng
    assert len(kernels) == 1
    other = np.random.default_rng(3)
    for e in range(4, 8):
        ingest(state, e, objective, matroid, other)
    assert state.draws.rng is other
