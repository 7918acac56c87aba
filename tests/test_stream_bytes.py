"""Pinned output bytes of three seeded streams.

Each stream's audited summary text plus its query count is hashed, and the
digest must not move: a change to the stream's inner loop that keeps every
filing, draw, swap and query gives the same bytes.  The three streams have
the shapes the benchmark streams: a monotone modular objective over a
graphic matroid, a non-monotone cut over a partition matroid, and a
monotone weighted coverage.  The same streams run without audit must keep
everything but the trail, and the weight checks must still read them.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from robust_summary import (
    Instance,
    StreamingConfig,
    format_summary,
    generate_instance,
    make_graphic,
    make_modular,
    stream_summary,
    verify_summary,
)
from robust_summary.summary import StreamAudit
from helpers import literal_stream_summary


def _modular_graphic():
    rng = np.random.default_rng(31)
    pairs = [(u, v) for u in range(36) for v in range(u + 1, 36)]
    edges = [pairs[i] for i in rng.choice(len(pairs), size=400, replace=False)]
    objective = make_modular(rng.lognormal(0.0, 1.0, size=400))
    return objective, make_graphic(36, edges), StreamingConfig(
        epsilon=0.2, d=3, monotone_mode=True, seed=7, audit=True
    )


def _cut_partition():
    instance = generate_instance("cut n=300 p=0.03", matroid="partition nblocks=10 cap=1", seed=17)
    config = StreamingConfig(epsilon=0.2, d=3, monotone_mode=False, seed=8, audit=True)
    return instance.objective, instance.matroid, config


def _coverage_partition():
    instance = generate_instance(
        "coverage n=300 universe=150 density=0.03", matroid="partition nblocks=6 cap=2", seed=23
    )
    config = StreamingConfig(epsilon=0.2, d=2, monotone_mode=True, seed=9, audit=True)
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


def _order(objective, config):
    return [int(e) for e in np.random.default_rng(config.seed + 100).permutation(objective.n)]


def _trailless(text):
    """A summary text without its audit trail lines."""
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(("audit_", "weight_log=")))


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_a_seeded_stream_keeps_its_summary_bytes_and_query_count(name):
    make, digest = STREAMS[name]
    objective, matroid, config = make()
    order = _order(objective, config)
    summary = stream_summary(objective, matroid, config, order)
    text = format_summary(summary, include_audit=True) + f"queries={objective.queries}\n"
    # the stream drained, swapped and refiled, so its inner loop ran in full
    assert summary.counters["drained"] and summary.counters["low_value"]
    assert summary.counters["swapped_out"] + summary.counters["swap_failed"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_audit_on_and_off_run_the_same_stream(name):
    runs = {}
    for audit in (False, True):
        objective, matroid, config = STREAMS[name][0]()
        config = dataclasses.replace(config, audit=audit)
        order = _order(objective, config)
        summary = stream_summary(objective, matroid, config, order)
        runs[audit] = summary, objective.queries
    (plain, plain_queries), (audited, audited_queries) = runs[False], runs[True]
    plain_text = format_summary(plain, include_audit=True)
    audited_text = format_summary(audited, include_audit=True)
    assert _trailless(plain_text) == _trailless(audited_text)
    assert format_summary(plain) == format_summary(audited)
    assert plain.counters == audited.counters
    assert plain.entries == audited.entries and plain.buckets == audited.buckets
    assert plain_queries == audited_queries
    # with audit each trail list is as long as its counter; without it only
    # the swapped-out pairs are kept
    trail = audited.audit
    assert len(trail.weight_log) == audited.counters["drained"]
    for field in ("swapped_out", "sample_rejected", "swap_failed", "low_value"):
        assert len(getattr(trail, field)) == audited.counters[field]
    assert plain.audit == StreamAudit(swapped_out=trail.swapped_out)
    # the plain reference counts its own lists, and agrees with both runs
    objective, matroid, config = STREAMS[name][0]()
    expected = literal_stream_summary(objective, matroid, config, _order(objective, config))
    assert format_summary(expected, include_audit=True) == audited_text
    assert expected.counters == plain.counters


def test_a_summary_without_its_trail_still_feeds_the_weight_checks():
    objective, matroid, config = _modular_graphic()
    config = dataclasses.replace(config, audit=False)
    summary = stream_summary(objective.clone(), matroid, config, _order(objective, config))
    assert summary.audit.swapped_out and not summary.audit.weight_log
    instance = Instance(objective, matroid)
    report = verify_summary(summary, instance)
    assert report.all_ok and "weights_all" in [check.name for check in report.checks]
    inflated = copy.deepcopy(summary)
    victim, weight = inflated.audit.swapped_out[0]
    inflated.audit.swapped_out[0] = (victim, weight + 1e6)
    failures = verify_summary(inflated, instance).failures()
    assert failures and all(check.name.startswith("weights_") for check in failures)
