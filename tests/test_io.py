"""Instance and summary files: round trips, grammar rejection, generators."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_summary import (
    CentralizedConfig,
    Instance,
    StreamingConfig,
    build_summary,
    format_instance,
    format_summary,
    generate_instance,
    make_cut_function,
    make_facility_location,
    make_graphic,
    make_modular,
    make_partition,
    make_uniform,
    make_weighted_coverage,
    parse_instance_text,
    parse_matroid_spec,
    parse_strategy,
    parse_summary,
    read_instance,
    stream_summary,
    write_instance,
)
from robust_summary.grammar import read_ids


def _roundtrip(instance):
    text = format_instance(instance)
    again = parse_instance_text(text)
    assert format_instance(again) == text
    return again


def test_modular_instance_roundtrip():
    inst = Instance(make_modular([1.0, 0.25, 3.5]), make_uniform(3, 2))
    again = _roundtrip(inst)
    assert again.objective.value([0, 2]) == 4.5
    assert again.matroid.k == 2


def test_coverage_instance_roundtrip():
    obj = make_weighted_coverage([0.5, 1.5, 2.0], [[0, 2], [], [1]])
    inst = Instance(obj, make_partition([[0, 1], [2]], [1, 1]))
    again = _roundtrip(inst)
    assert again.objective.value([0, 2]) == 4.0
    assert not again.matroid.is_independent([0, 1])


def test_facility_instance_roundtrip():
    inst = Instance(make_facility_location([[0.2, 0.9], [0.4, 0.1]]), make_uniform(2, 1))
    again = _roundtrip(inst)
    assert again.objective.value([1]) == 1.0


def test_cut_instance_roundtrip_with_tags():
    obj = make_cut_function(3, [(0, 1, 1.25), (1, 2, 0.75)])
    inst = Instance(obj, make_uniform(3, 2), tags={0: "left", 2: "right"})
    again = _roundtrip(inst)
    assert again.tags == {0: "left", 2: "right"}
    assert again.objective.value([1]) == 2.0


def test_graphic_matroid_roundtrip():
    matroid = make_graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    inst = Instance(make_modular([1.0] * 5), matroid)
    again = _roundtrip(inst)
    assert again.matroid.k == 3
    assert not again.matroid.is_independent([0, 1, 4])


def test_float_precision_survives_roundtrip():
    weights = [1 / 3, 0.1, 2 / 7]
    inst = Instance(make_modular(weights), make_uniform(3, 1))
    again = _roundtrip(inst)
    assert list(again.objective.weights) == weights


def test_unknown_keys_rejected():
    text = "n=2\nobjective=modular\nweights=1,2\nmatroid=uniform k=1\nflavour=mango\n"
    with pytest.raises(ValueError, match="unknown instance key"):
        parse_instance_text(text)


def test_malformed_instances_rejected():
    with pytest.raises(ValueError):
        parse_instance_text("objective=modular\nweights=1\nmatroid=uniform k=1\n")  # no n
    with pytest.raises(ValueError):
        parse_instance_text("n=2\nobjective=modular\nweights=1\nmatroid=uniform k=1\n")
    with pytest.raises(ValueError):
        parse_instance_text("n=1\nobjective=modular\nweights=1\n")  # no matroid
    with pytest.raises(ValueError):
        parse_instance_text(
            "n=2\nobjective=weighted-coverage\nuniverse=1\ncover 0=0\nmatroid=uniform k=1\n"
        )  # missing cover line


def test_matroid_spec_shorthand():
    m = parse_matroid_spec("partition nblocks=3 cap=1", 7)
    assert m.kind == "partition"
    assert m.blocks == ((0, 3, 6), (1, 4), (2, 5))
    assert m.k == 3


def test_generators_are_seeded_and_stable(tmp_path):
    spec = "cut n=8 p=0.5"
    a = generate_instance(spec, matroid="uniform k=3", seed=7)
    b = generate_instance(spec, matroid="uniform k=3", seed=7)
    assert format_instance(a) == format_instance(b)
    c = generate_instance(spec, matroid="uniform k=3", seed=8)
    assert format_instance(c) != format_instance(a)
    path = tmp_path / "inst.txt"
    write_instance(a, path)
    assert format_instance(read_instance(path)) == format_instance(a)


def test_lowerbound_generator_shape():
    inst = generate_instance("lowerbound k=2 d=1 nzero=3")
    assert inst.n == 6
    assert list(inst.objective.weights) == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert inst.matroid.kind == "uniform" and inst.matroid.k == 2


def test_zero_density_coverage_is_null():
    inst = generate_instance("coverage n=5 universe=4 density=0.0", matroid="uniform k=2", seed=1)
    assert all(inst.objective.value([e]) == 0.0 for e in range(5))


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_instance("mystery n=4")
    for spec in ("coverage n=0 universe=3 density=0.5", "facility n=0 clients=2", "cut n=0 p=0.5"):
        with pytest.raises(ValueError, match="needs a positive n, got n=0"):
            generate_instance(spec, "uniform k=1")
    with pytest.raises(ValueError, match="needs a positive n = k"):
        generate_instance("lowerbound k=0 d=0 nzero=0")
    with pytest.raises(ValueError, match="built a matroid of rank 0"):
        generate_instance("lowerbound k=0 d=0 nzero=3")
    with pytest.raises(ValueError, match="built a matroid of rank 0"):
        generate_instance("cut n=4 p=0.5", "partition nblocks=2 cap=0")
    with pytest.raises(ValueError):
        generate_instance("coverage n=4 universe=3 density=0.5")  # matroid missing


def test_centralized_summary_roundtrip():
    obj = make_modular([1.0] * 12 + [0.0] * 2)
    matroid = make_uniform(14, 3)
    summary = build_summary(
        obj, matroid, CentralizedConfig(epsilon=0.3, d=2, monotone_mode=True, seed=5)
    )
    text = format_summary(summary)
    again = parse_summary(text)
    assert format_summary(again) == text
    assert again.solution == summary.solution
    assert again.delta == summary.delta
    assert again.buckets == summary.buckets


OLD_CENTRALIZED_SUMMARY = """\
# robust-summary summary v1
mode=centralized
n=8
k=2
d=1
epsilon=0.3
monotone=1
seed=5
bucket_mode=literal
delta=1.0
exponents=0,-1,-2,-3,-4,-5,-6,-7,-8
a=4,0,1.0
a=5,0,1.0
vd=0
b=0
counters=low_value:5
"""


def test_old_summary_with_bucket_mode_parses():
    # older versions recorded the centralized scan mode; it is read and dropped
    summary = parse_summary(OLD_CENTRALIZED_SUMMARY)
    assert summary.solution == [4, 5] and summary.top_buffer == [0]
    assert format_summary(summary) == OLD_CENTRALIZED_SUMMARY.replace("bucket_mode=literal\n", "")
    rebuilt = build_summary(
        make_modular([1.0] * 6 + [0.5] * 2),
        make_uniform(8, 2),
        CentralizedConfig(epsilon=0.3, d=1, monotone_mode=True, seed=5),
    )
    assert format_summary(rebuilt) == format_summary(summary)


def test_old_streaming_summary_with_drain_order_parses():
    # older versions recorded the streaming drain order; it is read and dropped
    summary = stream_summary(
        make_modular([3.0, 1.0, 2.0, 5.0, 4.0]),
        make_uniform(5, 2),
        StreamingConfig(epsilon=0.5, d=1, monotone_mode=True, seed=2),
        range(5),
    )
    text = format_summary(summary)
    assert "drain_order" not in text
    old = text.replace("delta=", "drain_order=highest\ndelta=", 1)
    assert format_summary(parse_summary(old)) == text


def test_streaming_summary_roundtrip_with_audit():
    rng = np.random.default_rng(6)
    obj = make_modular(rng.uniform(0.0, 4.0, size=12))
    matroid = make_uniform(12, 2)
    summary = stream_summary(
        obj, matroid, StreamingConfig(epsilon=0.4, d=1, monotone_mode=True, seed=2),
        range(12),
    )
    text = format_summary(summary, include_audit=True)
    again = parse_summary(text)
    assert format_summary(again, include_audit=True) == text
    assert again.audit.swapped_out == summary.audit.swapped_out
    assert again.audit.weight_log == summary.audit.weight_log
    assert again.peak_memory == summary.peak_memory
    # without the audit flag the trace stays out of the file
    lean = format_summary(summary)
    assert "audit_" not in lean and parse_summary(lean).audit is None


def test_summary_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown summary key"):
        parse_summary("mode=centralized\nwhatever=1\n")


SMALL_CENTRALIZED_SUMMARY = """\
mode=centralized
n=5
k=2
d=1
epsilon=0.3
monotone=1
seed=5
delta=1.0
exponents=0,-1
a=4,0,1.0
bucket=-1:2,3
vd=0
b=0,2,3
counters=low_value:1
"""


def _with_line(text, line):
    """text plus line, which replaces the line of the same single key or bucket exponent."""
    head = line.partition("=")[0] + "="
    if head == "bucket=":
        head = line[: line.find(":") + 1]
    if head != "a=":
        text = "".join(old for old in text.splitlines(True) if not old.startswith(head))
    return text + line + "\n"


@pytest.mark.parametrize(
    "line, key, bad",
    [
        ("a=9,0,1.0", "a", "9 outside range"),
        ("a=-1,0,1.0", "a", "-1 outside range"),
        ("bucket=0:-3,7", "bucket", "-3 outside range"),
        ("bucket=0:1,5", "bucket", "5 outside range"),
        ("vd=12", "vd", "12 outside range"),
        ("b=0,-2", "b", "-2 outside range"),
    ],
)
def test_centralized_summary_ids_must_lie_in_the_ground_set(line, key, bad):
    assert parse_summary(SMALL_CENTRALIZED_SUMMARY).solution == [4]
    text = _with_line(SMALL_CENTRALIZED_SUMMARY, line)
    with pytest.raises(ValueError, match=rf"summary key '{key}': element id {bad} \[0, 5\)"):
        parse_summary(text)


def _streaming_text(include_audit=True):
    rng = np.random.default_rng(6)
    summary = stream_summary(
        make_modular(rng.uniform(0.0, 4.0, size=12)),
        make_uniform(12, 2),
        StreamingConfig(epsilon=0.4, d=1, monotone_mode=True, seed=2),
        range(12),
    )
    return format_summary(summary, include_audit=include_audit)


@pytest.mark.parametrize(
    "line",
    [
        "a=-4,0,1.0",
        "bucket=0:-3",
        "vd=-1",
        "b=-1",
        "audit_drained=1,-2",
        "audit_swapped_out=-2:0.5",
        "audit_sample_rejected=-2",
        "audit_swap_failed=-2",
        "audit_low_value=-2",
        "weight_log=3:1.0,-2:0.5",
    ],
)
def test_streaming_summary_rejects_negative_ids(line):
    key = line.partition("=")[0]
    with pytest.raises(ValueError, match=rf"summary key '{key}': element id -\d+ is negative"):
        parse_summary(_with_line(_streaming_text(), line))


def test_streaming_summary_ids_are_not_bounded_by_arrivals():
    # a streaming n counts arrivals, and an order may cover part of the ground set
    text = _streaming_text().replace("n=12\n", "n=3\n")
    assert parse_summary(text).n == 3
    assert parse_summary(_with_line(text, "audit_low_value=40")).audit.low_value == [40]


@pytest.mark.parametrize(
    "spec, key",
    [
        ("uniform kk=2", "k"),
        ("partition nblock=2 cap=1", "nblocks"),
        ("partition blocks=0,1|2", "caps"),
        ("graphic vertices=3", "edgemap"),
        ("graphic edgemap=0-1,1-2,0-2", "vertices"),
    ],
)
def test_matroid_spec_missing_key_names_it(spec, key):
    with pytest.raises(ValueError, match=f"matroid spec is missing key '{key}'"):
        parse_matroid_spec(spec, 3)
    text = f"n=3\nobjective=modular\nweights=1,2,3\nmatroid={spec}\n"
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        parse_instance_text(text)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("uniform k=2 kk=3", "uniform matroid spec has no key 'kk'; expected ('k',)"),
        (
            "partition nblocks=2 cap=1 capp=3",
            "partition matroid spec has no key 'capp'; expected ('nblocks', 'cap')",
        ),
        (
            "partition nblocks=2 caps=1,1",
            "partition matroid spec has no key 'caps'; expected ('nblocks', 'cap')",
        ),
        (
            "partition blocks=0,1|2 caps=1,1 cap=2",
            "partition matroid spec has no key 'cap'; expected ('blocks', 'caps')",
        ),
        (
            "partition blocks=0,1|2 caps=1,1 nblocks=2",
            "partition matroid spec takes blocks= or nblocks=, not both",
        ),
        (
            "graphic vertices=3 edgemap=0-1,1-2,0-2 k=1",
            "graphic matroid spec has no key 'k'; expected ('vertices', 'edgemap')",
        ),
    ],
)
def test_matroid_spec_key_it_does_not_read_is_rejected(spec, message):
    with pytest.raises(ValueError) as info:
        parse_matroid_spec(spec, 3)
    assert str(info.value) == message
    text = f"n=3\nobjective=modular\nweights=1,2,3\nmatroid={spec}\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_instance_text(text)


def test_matroid_spec_reports_a_missing_key_before_an_unread_one():
    with pytest.raises(ValueError, match="is missing key 'k'"):
        parse_matroid_spec("uniform kk=2", 3)
    with pytest.raises(ValueError, match="is missing key 'nblocks'"):
        parse_matroid_spec("partition nblock=2 capp=1", 3)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("uniform k=2 k=3", "uniform matroid spec: key 'k' given twice"),
        ("partition nblocks=2 cap=1 cap=2", "partition matroid spec: key 'cap' given twice"),
        (
            "graphic vertices=3 edgemap=0-1,1-2,0-2 vertices=4",
            "graphic matroid spec: key 'vertices' given twice",
        ),
        ("uniform k", "uniform matroid spec: 'k' is not key=value"),
        ("  ", "empty matroid spec"),
    ],
)
def test_matroid_spec_grammar_errors(spec, message):
    with pytest.raises(ValueError) as info:
        parse_matroid_spec(spec, 3)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cut n=6 p=0.5 p=0.9", "cut generator spec: key 'p' given twice"),
        ("lowerbound k=2 d=1 k=3", "lowerbound generator spec: key 'k' given twice"),
        ("cut n=6 p", "cut generator spec: 'p' is not key=value"),
        ("", "empty generator spec"),
        ("cut n=6 p=0.5 wmax=inf", "cut generator needs finite wmin <= wmax, got 0.5 and inf"),
        ("cut n=6 p=0.5 wmin=nan", "cut generator needs finite wmin <= wmax, got nan and 1.5"),
        ("cut n=6 p=0.5 wmin=2", "cut generator needs finite wmin <= wmax, got 2.0 and 1.5"),
    ],
)
def test_generator_spec_grammar_errors(spec, message):
    with pytest.raises(ValueError) as info:
        generate_instance(spec, "uniform k=2")
    assert str(info.value) == message


COVERAGE_TEXT = (
    "n=2\nobjective=weighted-coverage\nuniverse=1,2\ncover 0=0\ncover 1=1\n"
    "matroid=uniform k=1\ntag 0=x\n"
)
MODULAR_TEXT = "n=2\nobjective=modular\nweights=1,2\nmatroid=uniform k=1\n"


@pytest.mark.parametrize(
    "base, line, message",
    [
        ("coverage", "n=2", "instance file: key 'n' given twice"),
        ("coverage", "objective=modular", "instance file: key 'objective' given twice"),
        ("coverage", "universe=3,4", "instance file: key 'universe' given twice"),
        ("modular", "weights=1,2", "instance file: key 'weights' given twice"),
        ("coverage", "matroid=uniform k=2", "instance file: key 'matroid' given twice"),
        ("coverage", "cover 1=0", "instance file: key 'cover 1' given twice"),
        ("coverage", "cover 01=0", "instance file: cover 1 given twice"),
        ("coverage", "tag 0=y", "instance file: key 'tag 0' given twice"),
        ("coverage", "tag 00=y", "instance file: tag 0 given twice"),
        ("coverage", "garbage", "instance file: line 'garbage' has no '='"),
    ],
)
def test_instance_file_refuses_a_repeated_key(base, line, message):
    base = {"coverage": COVERAGE_TEXT, "modular": MODULAR_TEXT}[base]
    assert parse_instance_text(base).n == 2
    with pytest.raises(ValueError) as info:
        parse_instance_text(base + line + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "line, message",
    [
        ("mode=centralized", "summary file: key 'mode' given twice"),
        ("vd=1", "summary file: key 'vd' given twice"),
        ("counters=low_value:2", "summary file: key 'counters' given twice"),
        ("audit_drained=1\naudit_drained=2", "summary file: key 'audit_drained' given twice"),
        ("bucket=-1:4", "summary file: bucket exponent -1 given twice"),
        ("garbage", "summary file: line 'garbage' has no '='"),
        ("a=4,-1,0.5", "summary key 'a': element 4 given twice"),
    ],
)
def test_summary_file_refuses_a_repeated_key(line, message):
    with pytest.raises(ValueError) as info:
        parse_summary(SMALL_CENTRALIZED_SUMMARY + line + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "counters, message",
    [
        ("low_value:1,low_value:7", "summary key 'counters': counter 'low_value' given twice"),
        ("drained:0,low_value:1,drained:0", "summary key 'counters': counter 'drained' given twice"),
    ],
)
def test_summary_file_refuses_a_repeated_counter(counters, message):
    assert parse_summary(SMALL_CENTRALIZED_SUMMARY).counters == {"low_value": 1}
    with pytest.raises(ValueError) as info:
        parse_summary(_with_line(SMALL_CENTRALIZED_SUMMARY, f"counters={counters}"))
    assert str(info.value) == message


def test_every_written_matroid_spec_reads_back():
    for matroid in (
        make_uniform(3, 2),
        make_partition([[0, 2], [1]], [1, 1]),
        make_graphic(3, [(0, 1), (1, 2), (0, 2)]),
    ):
        inst = Instance(make_modular([1.0, 2.0, 3.0]), matroid)
        _roundtrip(inst)
    assert parse_matroid_spec("partition nblocks=2", 3).capacities == (1, 1)


def _random_instance(seed, objective_kind, matroid_kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))

    def floats(size):
        return rng.random(size) * 10.0 ** rng.integers(-6, 7, size=size)

    if objective_kind == "modular":
        objective = make_modular(floats(n))
    elif objective_kind == "coverage":
        universe = int(rng.integers(0, 6))
        covers = [np.flatnonzero(rng.random(universe) < 0.4) for _ in range(n)]
        objective = make_weighted_coverage(floats(universe), covers)
    elif objective_kind == "facility":
        objective = make_facility_location(floats(int(rng.integers(1, 4)) * n).reshape(-1, n))
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        objective = make_cut_function(n, [(u, v, w) for (u, v), w in zip(pairs, floats(len(pairs)))])
    if matroid_kind == "uniform":
        matroid = make_uniform(n, int(rng.integers(0, n + 2)))
    elif matroid_kind == "partition":
        labels = rng.integers(0, 3, size=n)
        blocks = [[e for e in range(n) if labels[e] == b] for b in range(3)]
        matroid = make_partition(blocks, rng.integers(0, 3, size=3))
    else:
        vertices = n + 1  # a path on n+1 vertices has n distinct edges
        order = rng.permutation(vertices)
        matroid = make_graphic(vertices, [(int(order[i]), int(order[i + 1])) for i in range(n)])
    tags = {int(e): f"t{e}" for e in range(n) if rng.random() < 0.3}
    return Instance(objective, matroid, tags)


OBJECTIVE_KINDS = ["modular", "coverage", "facility", "cut"]
MATROID_KINDS = ["uniform", "partition", "graphic"]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    objective_kind=st.sampled_from(OBJECTIVE_KINDS),
    matroid_kind=st.sampled_from(MATROID_KINDS),
)
def test_instance_format_parse_format_round_trips(seed, objective_kind, matroid_kind):
    _roundtrip(_random_instance(seed, objective_kind, matroid_kind))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), streaming=st.booleans(), audit=st.booleans())
def test_summary_format_parse_format_round_trips(seed, streaming, audit):
    instance = _random_instance(seed, "coverage", "graphic")  # rank n >= 1
    fields = dict(epsilon=0.3, d=seed % 3, monotone_mode=True, seed=seed)
    if streaming:
        summary = stream_summary(
            instance.objective, instance.matroid, StreamingConfig(**fields), range(instance.n)
        )
    else:
        summary = build_summary(instance.objective, instance.matroid, CentralizedConfig(**fields))
    text = format_summary(summary, include_audit=audit)
    assert format_summary(parse_summary(text), include_audit=audit) == text


# Mutation fuzzing: valid files with a few characters or lines changed.  The
# inserted characters keep every number small, so no mutant asks for a large
# allocation.
FUZZ_ALPHABET = "0123456789-,.=|: \nabcknpe"
_mutations = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "replace", "drop_line", "repeat_line"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(FUZZ_ALPHABET),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(text, mutations):
    for op, i, j, char in mutations:
        lines = text.split("\n")
        at = i % (len(text) + 1)
        if op == "delete":
            text = text[:at] + text[at + 1 :]
        elif op == "insert":
            text = text[:at] + char + text[at:]
        elif op == "replace":
            text = text[:at] + char + text[at + 1 :]
        elif op == "drop_line":
            del lines[i % len(lines)]
            text = "\n".join(lines)
        else:
            lines.insert(i % len(lines), lines[j % len(lines)])
            text = "\n".join(lines)
    return text


def _fuzz_instances():
    texts = [
        format_instance(_random_instance(seed, objective_kind, matroid_kind))
        for seed, (objective_kind, matroid_kind) in enumerate(
            (o, m) for o in OBJECTIVE_KINDS for m in MATROID_KINDS
        )
    ]
    texts.append(
        "n=7\nobjective=modular\nweights=1,2,3,4,5,6,7\nmatroid=partition nblocks=3 cap=2\n"
    )
    return texts


def _fuzz_summaries():
    instance = generate_instance("coverage n=30 universe=20 density=0.2", "uniform k=3", seed=2)
    objective, matroid = instance.objective, instance.matroid
    centralized = build_summary(objective, matroid, CentralizedConfig(epsilon=0.3, d=2, seed=1))
    streaming = stream_summary(
        objective, matroid, StreamingConfig(epsilon=0.3, d=2, seed=1), range(instance.n)
    )
    return [
        format_summary(centralized),
        format_summary(streaming),
        format_summary(streaming, include_audit=True),
    ]


FUZZ_INSTANCES = _fuzz_instances()
FUZZ_SUMMARIES = _fuzz_summaries()


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(FUZZ_INSTANCES), mutations=_mutations)
def test_only_value_errors_escape_the_instance_parser(base, mutations):
    try:
        parse_instance_text(_mutate(base, mutations))
    except ValueError:
        pass


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(FUZZ_SUMMARIES), mutations=_mutations)
def test_only_value_errors_escape_the_summary_parser(base, mutations):
    try:
        parse_summary(_mutate(base, mutations))
    except ValueError:
        pass


# The one-line grammars.  Base numbers stay at one or two digits, so a mutant
# asks for no large allocation.
FUZZ_MATROID_SPECS = [
    "uniform k=2",
    "partition nblocks=2 cap=1",
    "partition blocks=0,2|1 caps=1,1",
    "graphic vertices=3 edgemap=0-1,1-2,0-2",
]
FUZZ_GENERATOR_SPECS = [
    "coverage n=5 universe=4 density=0.5",
    "facility n=4 clients=3",
    "cut n=6 p=0.5 wmin=0.5 wmax=1.5",
    "lowerbound k=2 d=1 nzero=3",
]
FUZZ_STRATEGIES = ["top:2", "rand:2:7", "block:1:0", "maxdmg:1", "list:ids.txt"]


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(FUZZ_MATROID_SPECS), mutations=_mutations)
def test_only_value_errors_escape_the_matroid_spec_parser(base, mutations):
    try:
        parse_matroid_spec(_mutate(base, mutations), 3)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(FUZZ_GENERATOR_SPECS),
    mutations=_mutations,
    token=st.integers(0, 3),
    value=st.sampled_from([None, "inf", "-inf", "nan", "1e308", "-1e308"]),
)
def test_only_value_errors_escape_the_generators(base, mutations, token, value):
    # digits inserted by a mutation could make n large, so none are; a
    # non-finite or huge number may replace one value instead
    tokens = base.split()
    if value is not None:
        i = 1 + token % (len(tokens) - 1)
        tokens[i] = tokens[i].partition("=")[0] + "=" + value
    spec = _mutate(" ".join(tokens), [m for m in mutations if not m[3].isdigit()])
    try:
        instance = generate_instance(spec, "uniform k=2", seed=1)
    except ValueError:
        return
    assert instance.n > 0  # the instance reader refuses n=0


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(FUZZ_STRATEGIES), mutations=_mutations)
def test_only_value_errors_escape_the_strategy_parser(base, mutations):
    spec = _mutate(base, mutations)
    try:
        parse_strategy(spec)
    except ValueError:
        pass
    except OSError:  # a list: spec names a file that may not exist
        assert spec.strip().startswith("list:")


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(["0,1,2\n", "4 3 2\n1 0\n", "7,\n8 ,9\n", ""]), mutations=_mutations
)
def test_only_value_errors_escape_the_id_file_reader(base, mutations):
    text = _mutate(base, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.txt"
        path.write_text(text)
        try:
            ids = read_ids(path)
        except ValueError:
            return
    assert ids == [int(t) for t in re.split(r"[,\s]+", text.strip()) if t]
