"""Pinned output bytes of three seeded streams.

Each stream's audited summary text plus its query count is hashed, and the
digest must not move: a change to the stream's inner loop that keeps every
filing, draw, swap and query gives the same bytes.  The three streams have
the shapes the benchmark streams: a monotone modular objective over a
graphic matroid, a non-monotone cut over a partition matroid, and a
monotone weighted coverage.
"""

import hashlib

import numpy as np
import pytest

from robust_summary import (
    StreamingConfig,
    format_summary,
    generate_instance,
    make_graphic,
    make_modular,
    stream_summary,
)


def _modular_graphic():
    rng = np.random.default_rng(31)
    pairs = [(u, v) for u in range(36) for v in range(u + 1, 36)]
    edges = [pairs[i] for i in rng.choice(len(pairs), size=400, replace=False)]
    objective = make_modular(rng.lognormal(0.0, 1.0, size=400))
    return objective, make_graphic(36, edges), StreamingConfig(
        epsilon=0.2, d=3, monotone_mode=True, seed=7
    )


def _cut_partition():
    instance = generate_instance("cut n=300 p=0.03", matroid="partition nblocks=10 cap=1", seed=17)
    config = StreamingConfig(epsilon=0.2, d=3, monotone_mode=False, seed=8)
    return instance.objective, instance.matroid, config


def _coverage_partition():
    instance = generate_instance(
        "coverage n=300 universe=150 density=0.03", matroid="partition nblocks=6 cap=2", seed=23
    )
    config = StreamingConfig(epsilon=0.2, d=2, monotone_mode=True, seed=9)
    return instance.objective, instance.matroid, config


STREAMS = {
    "modular/graphic": (
        _modular_graphic,
        "379b84a8655af5ee424a66115c924ccaa9a905f2182de61068b98b5c5c0ad5f0",
    ),
    "cut/partition": (
        _cut_partition,
        "e0b9e528d5b7415469050e528e6da8362b5c44b0b2b26d2b5f50abbe33cc8bdd",
    ),
    "coverage/partition": (
        _coverage_partition,
        "c96dc3f8c160fdb28421cede877355c585439ff74ac3c501392c492649d31d40",
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_a_seeded_stream_keeps_its_summary_bytes_and_query_count(name):
    make, digest = STREAMS[name]
    objective, matroid, config = make()
    order = [int(e) for e in np.random.default_rng(config.seed + 100).permutation(objective.n)]
    summary = stream_summary(objective, matroid, config, order)
    text = format_summary(summary, include_audit=True) + f"queries={objective.queries}\n"
    # the stream drained, swapped and refiled, so its inner loop ran in full
    assert summary.counters["drained"] and summary.counters["low_value"]
    assert summary.counters["swapped_out"] + summary.counters["swap_failed"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
