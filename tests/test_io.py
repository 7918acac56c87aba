"""Instance and summary files: round trips, grammar rejection, generators."""

import numpy as np
import pytest

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
    parse_summary,
    read_instance,
    stream_summary,
    write_instance,
)


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
    text = SMALL_CENTRALIZED_SUMMARY + line + "\n"
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
        parse_summary(_streaming_text() + line + "\n")


def test_streaming_summary_ids_are_not_bounded_by_arrivals():
    # a streaming n counts arrivals, and an order may cover part of the ground set
    text = _streaming_text().replace("n=12\n", "n=3\n")
    assert parse_summary(text).n == 3
    assert parse_summary(text + "audit_low_value=40\n").audit.low_value == [40]
