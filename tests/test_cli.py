"""End-to-end command-line runs: gen, summarize, solve, verify, bound, experiment."""

from pathlib import Path

import pytest

from robust_summary.adversary import SPEC_FORMS, choose_deletions, parse_strategy
from robust_summary.cli import _parse_deletions, main
from robust_summary import generate_instance, read_summary


def test_full_pipeline_centralized(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    sol = tmp_path / "solution.txt"

    assert main([
        "gen", "--spec", "coverage n=12 universe=10 density=0.3",
        "--matroid", "partition nblocks=3 cap=1", "--seed", "4", "--out", str(inst),
    ]) == 0
    assert main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.1", "--d", "2", "--monotone", "--seed", "7", "--out", str(summ),
    ]) == 0
    assert main([
        "solve", "--summary", str(summ), "--instance", str(inst),
        "--delete", "top:2", "--solver", "exhaustive", "--out", str(sol),
    ]) == 0
    assert main(["verify", "--summary", str(summ), "--instance", str(inst)]) == 0
    text = sol.read_text()
    assert "value=" in text and "s=" in text
    out = capsys.readouterr().out
    assert "pass" in out


def test_full_pipeline_streaming_with_audit(tmp_path):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    sol = tmp_path / "solution.txt"
    assert main([
        "gen", "--spec", "cut n=10 p=0.4", "--matroid", "uniform k=3",
        "--seed", "2", "--out", str(inst),
    ]) == 0
    assert main([
        "summarize", "--mode", "streaming", "--instance", str(inst),
        "--epsilon", "0.2", "--d", "2", "--seed", "3",
        "--order", "shuffle:11", "--audit", "--out", str(summ),
    ]) == 0
    summary = read_summary(summ)
    assert summary.mode == "streaming" and summary.audit is not None
    assert summary.gamma == 1.746
    assert main(["verify", "--summary", str(summ), "--instance", str(inst)]) == 0
    assert main([
        "solve", "--summary", str(summ), "--instance", str(inst),
        "--delete", "rand:2:5", "--solver", "greedy", "--out", str(sol),
    ]) == 0


def test_solve_names_the_local_search_a_usage_error(capsys):
    with pytest.raises(SystemExit) as raised:
        main([
            "solve", "--summary", "s", "--instance", "i", "--delete", "top:1",
            "--solver", "localsearch", "--out", "o",
        ])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert "argument --solver: invalid choice: 'localsearch'" in err
    # older argparse versions quote the choices (repr), newer ones list them bare
    assert ("(choose from 'greedy', 'exhaustive')" in err
            or "(choose from greedy, exhaustive)" in err)


def test_solve_on_a_modular_instance_claims_beta_one(tmp_path):
    # the greedy is exact on a modular objective, over any matroid
    inst, summ, sol = tmp_path / "inst.txt", tmp_path / "summary.txt", tmp_path / "solution.txt"
    assert main(["gen", "--spec", "lowerbound k=3 d=2 nzero=4", "--out", str(inst)]) == 0
    assert main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.2", "--d", "2", "--monotone", "--seed", "1", "--out", str(summ),
    ]) == 0
    assert main([
        "solve", "--summary", str(summ), "--instance", str(inst),
        "--delete", "top:2", "--solver", "greedy", "--out", str(sol),
    ]) == 0
    assert "\nbeta=1.0\n" in sol.read_text()

def test_streaming_accepts_order_file(tmp_path):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    order = tmp_path / "order.txt"
    main(["gen", "--spec", "lowerbound k=2 d=1 nzero=2", "--out", str(inst)])
    order.write_text("4,3,2,1,0\n")
    assert main([
        "summarize", "--mode", "streaming", "--instance", str(inst),
        "--epsilon", "0.5", "--d", "1", "--monotone", "--seed", "0",
        "--order", str(order), "--out", str(summ),
    ]) == 0
    assert read_summary(summ).counters["arrivals"] == 5


def test_summarize_reruns_are_byte_identical(tmp_path):
    inst = tmp_path / "inst.txt"
    main(["gen", "--spec", "lowerbound k=3 d=2 nzero=6", "--out", str(inst)])
    outs = []
    for name in ("a.txt", "b.txt"):
        target = tmp_path / name
        main([
            "summarize", "--mode", "centralized", "--instance", str(inst),
            "--epsilon", "0.25", "--d", "2", "--monotone", "--seed", "9",
            "--out", str(target),
        ])
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_centralized_audit_keeps_the_summary_bytes(tmp_path):
    inst = tmp_path / "inst.txt"
    main(["gen", "--spec", "coverage n=40 universe=30 density=0.1",
          "--matroid", "partition nblocks=4 cap=2", "--seed", "5", "--out", str(inst)])
    outs = []
    for name, audit in (("plain.txt", []), ("audited.txt", ["--audit"])):
        target = tmp_path / name
        assert main([
            "summarize", "--mode", "centralized", "--instance", str(inst),
            "--epsilon", "0.2", "--d", "2", "--monotone", "--seed", "3",
            "--out", str(target), *audit,
        ]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_centralized_summarize_refuses_an_arrival_order(tmp_path, capsys):
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    main(["gen", "--spec", "lowerbound k=2 d=1 nzero=2", "--out", str(inst)])
    capsys.readouterr()
    _clean_error(capsys, ["summarize", "--mode", "centralized", "--instance", str(inst),
                          "--epsilon", "0.5", "--d", "1", "--order", "shuffle:3",
                          "--out", str(summ)],
                 "--order sets a stream's arrival order; --mode centralized reads none")
    assert not summ.exists()


def test_solve_accepts_deletion_file(tmp_path):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    listing = tmp_path / "delete.txt"
    listing.write_text("0,1\n")
    main(["gen", "--spec", "lowerbound k=2 d=2 nzero=3", "--out", str(inst)])
    main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.25", "--d", "2", "--seed", "1", "--out", str(summ),
    ])
    assert main([
        "solve", "--summary", str(summ), "--instance", str(inst),
        "--delete", str(listing), "--solver", "greedy", "--out", str(tmp_path / "sol.txt"),
    ]) == 0
    deleted_line = [
        line for line in (tmp_path / "sol.txt").read_text().splitlines()
        if line.startswith("deleted=")
    ][0]
    assert deleted_line == "deleted=0,1"


def test_bound_command(capsys):
    assert main(["bound", "--mode", "centralized", "--beta", "1.0", "--epsilon", "0.1"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(4.4583, abs=1e-3)


@pytest.mark.parametrize(
    "beta, epsilon, message",
    [("nan", "0.1", "beta must be at least 1, got nan"),
     ("2", "nan", "epsilon must be non-negative, got nan")],
)
@pytest.mark.parametrize("mode", ["centralized", "streaming"])
def test_bound_refuses_nan_with_exit_2(capsys, mode, beta, epsilon, message):
    _clean_error(capsys, ["bound", "--mode", mode, "--beta", beta, "--epsilon", epsilon], message)


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[instance]\n"
        "generator = lowerbound k=3 d=2 nzero=4\n"
        "[algorithm]\n"
        "mode = centralized\n"
        "epsilon = 0.25\n"
        "d = 2\n"
        "monotone = true\n"
        "[phase2]\n"
        "solver = exhaustive\n"
        "[deletions]\n"
        "strategies = top:2\n"
        "[trials]\n"
        "count = 3\n"
        f"[report]\nout_dir = {tmp_path / 'out'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "csv:" in out
    assert (tmp_path / "out" / "results.csv").exists()


def test_verify_exit_code_on_corruption(tmp_path):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    main(["gen", "--spec", "lowerbound k=3 d=2 nzero=4", "--out", str(inst)])
    main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.25", "--d", "2", "--monotone", "--seed", "1", "--out", str(summ),
    ])
    broken = summ.read_text().replace("vd=", "vd=0,", 1)
    summ.write_text(broken)
    assert main(["verify", "--summary", str(summ), "--instance", str(inst)]) == 1


def test_missing_instance_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code = main([
        "summarize", "--mode", "centralized", "--instance", str(missing),
        "--epsilon", "0.1", "--d", "1", "--out", str(tmp_path / "summary.txt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("robust-summary: error: ") and str(missing) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _experiment_error(tmp_path, capsys, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code = main(["experiment", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("robust-summary: error: ") and str(cfg) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


def test_config_without_section_header_is_a_clean_error(tmp_path, capsys):
    err = _experiment_error(tmp_path, capsys, "epsilon = 0.2\n[algorithm]\nd = 1\n")
    assert "no section headers" in err


_VALID_CONFIG = (
    "[instance]\ngenerator = lowerbound k=3 d=2 nzero=4\n"
    "[deletions]\nstrategies = top:2\n"
)


def test_misspelled_config_key_is_rejected(tmp_path, capsys):
    err = _experiment_error(tmp_path, capsys, _VALID_CONFIG + "[algorithm]\nepsilom = 0.25\n")
    assert "unknown key [algorithm] epsilom" in err


def test_removed_config_key_is_rejected(tmp_path, capsys):
    err = _experiment_error(tmp_path, capsys, _VALID_CONFIG + "[trials]\nthreads = 4\n")
    assert "unknown key [trials] threads" in err


@pytest.mark.parametrize(
    "section, line",
    [("algorithm", "gamma = 5.0"), ("algorithm", "p = 0.9"), ("phase2", "exhaustive_cap = 22")],
)
def test_fixed_parameter_in_config_is_rejected_before_any_output(tmp_path, capsys, section, line):
    # gamma, p and the exhaustive cap are fixed: the bounds hold at those values only
    out_dir = tmp_path / "out"
    text = _VALID_CONFIG + f"[report]\nout_dir = {out_dir}\n[{section}]\n{line}\n"
    err = _experiment_error(tmp_path, capsys, text)
    assert f"unknown key [{section}] {line.split()[0]}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["summarize", "--mode", "streaming", "--instance", "i", "--epsilon", "0.2", "--d", "1",
          "--out", "s"], ["--gamma", "2"]),
        (["summarize", "--mode", "streaming", "--instance", "i", "--epsilon", "0.2", "--d", "1",
          "--out", "s"], ["--p", "0.5"]),
        (["solve", "--summary", "s", "--instance", "i", "--delete", "top:1",
          "--solver", "exhaustive", "--out", "o"], ["--cap", "5"]),
        (["bound", "--mode", "streaming", "--beta", "2", "--epsilon", "0.1"], ["--gamma", "2"]),
    ],
    ids=["summarize-gamma", "summarize-p", "solve-cap", "bound-gamma"],
)
def test_fixed_parameter_flag_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as raised:
        main(command + flag)
    assert raised.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_monotone_streaming_bound_has_no_gamma_warning(capsys):
    # the monotone formula has no gamma term, so no epsilon below 1 degenerates it
    assert main(["bound", "--mode", "streaming", "--monotone", "--beta", "2", "--epsilon", "0.8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(captured.out) == pytest.approx(2 * 1.8 / 0.2**2 + 4 / 0.2)


def test_unknown_config_section_is_rejected(tmp_path, capsys):
    err = _experiment_error(tmp_path, capsys, _VALID_CONFIG + "[phase3]\n")
    assert "unknown section [phase3]" in err


@pytest.mark.parametrize(
    "section, line, named",
    [
        ("algorithm", "epsilon = 0,2", "[algorithm] epsilon: could not convert string to float: '0,2'"),
        ("trials", "count = 3.5", "[trials] count: invalid literal for int()"),
        # a removed key is unknown, whatever its value
        ("report", "bound_check = maybe", "unknown key [report] bound_check"),
    ],
)
def test_malformed_config_number_names_the_key(tmp_path, capsys, section, line, named):
    err = _experiment_error(tmp_path, capsys, _VALID_CONFIG + f"[{section}]\n{line}\n")
    assert named in err


def test_out_of_range_epsilon_is_a_clean_error(capsys):
    code = main(["bound", "--mode", "centralized", "--beta", "1.0", "--epsilon", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("robust-summary: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_out_of_range_summary_id_is_a_clean_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    summ = tmp_path / "summary.txt"
    main(["gen", "--spec", "lowerbound k=3 d=2 nzero=4", "--out", str(inst)])
    main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.25", "--d", "2", "--monotone", "--seed", "1", "--out", str(summ),
    ])
    capsys.readouterr()
    summ.write_text(summ.read_text().replace("vd=", "vd=12,", 1))
    for command in (
        ["verify", "--summary", str(summ), "--instance", str(inst)],
        ["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:2",
         "--solver", "greedy", "--out", str(tmp_path / "solution.txt")],
    ):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == "robust-summary: error: summary key 'vd': element id 12 outside range [0, 9)\n"


def test_matroid_spec_missing_a_key_is_a_clean_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("n=3\nobjective=modular\nweights=1,2,3\nmatroid=uniform kk=2\n")
    code = main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.1", "--d", "1", "--out", str(tmp_path / "summary.txt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "robust-summary: error: uniform matroid spec is missing key 'k'\n"


@pytest.mark.parametrize(
    "matroid, message",
    [
        (
            "partition nblocks=2 cap=1 capp=3",
            "partition matroid spec has no key 'capp'; expected ('nblocks', 'cap')",
        ),
        ("uniform k=2 kk=3", "uniform matroid spec has no key 'kk'; expected ('k',)"),
        (
            "partition blocks=0,1,2|3,4,5 caps=1,1 nblocks=2",
            "partition matroid spec takes blocks= or nblocks=, not both",
        ),
    ],
    ids=["partition-capp", "uniform-kk", "blocks-and-nblocks"],
)
def test_matroid_spec_key_it_does_not_read_exits_2(tmp_path, capsys, matroid, message):
    out = tmp_path / "inst.txt"
    code = main(["gen", "--spec", "cut n=6 p=0.5", "--matroid", matroid, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"robust-summary: error: {message}\n"
    assert not out.exists()


def test_instance_above_the_ground_set_limit_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("n=10000000000\nobjective=graph-cut\nedge=0 1 1.5\nmatroid=uniform k=1\n")
    summary = tmp_path / "summary.txt"
    code = main([
        "summarize", "--mode", "streaming", "--instance", str(inst),
        "--epsilon", "0.1", "--d", "1", "--out", str(summary),
    ])
    assert code == 2
    err = capsys.readouterr().err
    limit = "instance n=10000000000 is above the limit of 10000000 elements"
    assert err == f"robust-summary: error: {limit}\n"
    assert not summary.exists()


def test_non_finite_instance_weight_is_a_clean_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("n=3\nobjective=modular\nweights=1,nan,2\nmatroid=uniform k=2\n")
    code = main([
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.1", "--d", "1", "--out", str(tmp_path / "summary.txt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "robust-summary: error: element weights must be finite and non-negative, got nan\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("coverage universe=3 density=0.1", "generator 'coverage' is missing key 'n'"),
        (
            "coverage n=4 universe=3 densty=0.1",
            "generator 'coverage' has no key 'densty'; expected ('n', 'universe', 'density')",
        ),
        ("cut n=5", "generator 'cut' is missing key 'p'"),
        ("lowerbound d=2", "generator 'lowerbound' is missing key 'k'"),
        # the instance reader refuses n=0, so the generator does too
        ("coverage n=0 universe=3 density=0.5", "generator 'coverage' needs a positive n, got n=0"),
        (
            "lowerbound k=0 d=0",
            "generator 'lowerbound' needs a positive n = k + d + nzero, got k=0 d=0 nzero=0",
        ),
    ],
    ids=[
        "coverage-without-n", "coverage-densty", "cut-without-p", "lowerbound-without-k",
        "coverage-n0", "lowerbound-k0-d0",
    ],
)
def test_generator_spec_key_errors_are_clean(tmp_path, capsys, spec, message):
    out = tmp_path / "inst.txt"
    code = main(["gen", "--spec", spec, "--matroid", "uniform k=1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"robust-summary: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cut n=5 p=nan", "generator 'cut' needs 0 <= p <= 1, got p=nan"),
        ("cut n=5 p=-1", "generator 'cut' needs 0 <= p <= 1, got p=-1"),
        ("cut n=5 p=7", "generator 'cut' needs 0 <= p <= 1, got p=7"),
        ("cut n=5.0 p=0.5", "generator 'cut' needs a positive n, got n=5.0"),
        ("cut n=5 p=0.5 wmin=low", "generator 'cut' needs a number for wmin, got wmin=low"),
        (
            "coverage n=3 universe=4 density=nan",
            "generator 'coverage' needs 0 <= density <= 1, got density=nan",
        ),
        (
            "coverage n=3 universe=4 density=-2",
            "generator 'coverage' needs 0 <= density <= 1, got density=-2",
        ),
        (
            "coverage n=3 universe=-1 density=0.5",
            "generator 'coverage' needs universe >= 0, got universe=-1",
        ),
        ("facility n=3 clients=0", "generator 'facility' needs clients >= 1, got clients=0"),
        ("facility n=3 clients=-2", "generator 'facility' needs clients >= 1, got clients=-2"),
        ("lowerbound k=2 d=1 nzero=-3", "generator 'lowerbound' needs nzero >= 0, got nzero=-3"),
    ],
    ids=[
        "cut-p-nan", "cut-p-negative", "cut-p-above-1", "cut-n-float", "cut-wmin-word",
        "coverage-density-nan", "coverage-density-negative", "coverage-universe-negative",
        "facility-clients-0", "facility-clients-negative", "lowerbound-nzero-negative",
    ],
)
def test_generator_values_out_of_range_exit_2(tmp_path, capsys, spec, message):
    out = tmp_path / "inst.txt"
    _clean_error(capsys, ["gen", "--spec", spec, "--matroid", "uniform k=1", "--out", str(out)], message)
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, matroid",
    [
        ("lowerbound k=0 d=0 nzero=3", "uniform k=1"),  # lowerbound makes its own uniform k
        ("coverage n=3 universe=4 density=0.5", "uniform k=0"),
    ],
    ids=["lowerbound-k0", "coverage-uniform-k0"],
)
def test_generator_of_a_rank_0_matroid_exits_2(tmp_path, capsys, spec, matroid):
    # every summary builder refuses rank 0, so the generator writes no such file
    out = tmp_path / "inst.txt"
    assert main(["gen", "--spec", spec, "--matroid", matroid, "--out", str(out)]) == 2
    kind = spec.split()[0]
    assert capsys.readouterr().err == (
        f"robust-summary: error: generator '{kind}' built a matroid of rank 0; "
        "a summary needs rank >= 1\n"
    )
    assert not out.exists()


def test_monotone_experiment_on_a_cut_instance_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[instance]\n"
        "generator = cut n=30 p=0.2\n"
        "matroid = uniform k=3\n"
        "[algorithm]\n"
        "mode = streaming\n"
        "d = 1\n"
        "monotone = true\n"
        "[deletions]\n"
        "strategies = top:1\n"
        f"[report]\nout_dir = {tmp_path / 'out'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "robust-summary: error: monotone mode needs a monotone objective; graph-cut is not\n"
    )


@pytest.mark.parametrize("mode", ["centralized", "streaming"])
def test_monotone_summarize_on_a_cut_instance_exits_2(tmp_path, capsys, mode):
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    main(["gen", "--spec", "cut n=20 p=0.3", "--matroid", "uniform k=3", "--out", str(inst)])
    capsys.readouterr()
    _clean_error(capsys, ["summarize", "--mode", mode, "--instance", str(inst), "--epsilon",
                          "0.2", "--d", "1", "--monotone", "--out", str(summ)],
                 "monotone mode needs a monotone objective; graph-cut is not")
    assert not summ.exists()


def test_solve_warns_when_more_than_d_elements_are_deleted(tmp_path, capsys):
    inst, summ, sol = tmp_path / "inst.txt", tmp_path / "summary.txt", tmp_path / "sol.txt"
    main(["gen", "--spec", "lowerbound k=3 d=2 nzero=5", "--out", str(inst)])  # n=10
    main(["summarize", "--mode", "centralized", "--instance", str(inst), "--epsilon", "0.25",
          "--d", "1", "--seed", "1", "--out", str(summ)])
    capsys.readouterr()
    assert main(["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:3",
                 "--solver", "greedy", "--out", str(sol)]) == 0
    assert capsys.readouterr().err == (
        "warning: deleted set has 3 elements, summary was built for d=1; guarantee void\n"
    )
    assert "deleted=" in sol.read_text()


def test_greedy_solve_on_a_cut_instance_claims_no_beta(tmp_path):
    inst, summ, sol = tmp_path / "inst.txt", tmp_path / "summary.txt", tmp_path / "sol.txt"
    main(["gen", "--spec", "cut n=20 p=0.3", "--matroid", "uniform k=3", "--seed", "2",
          "--out", str(inst)])
    main(["summarize", "--mode", "streaming", "--instance", str(inst), "--epsilon", "0.2",
          "--d", "1", "--out", str(summ)])
    assert main(["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:1",
                 "--solver", "greedy", "--out", str(sol)]) == 0
    assert "beta=unknown\n" in sol.read_text()


def _clean_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"robust-summary: error: {message}\n"


@pytest.mark.parametrize(
    "spec, matroid, message",
    [
        ("cut n=6 p=0.5", "uniform k", "uniform matroid spec: 'k' is not key=value"),
        ("cut n=6 p", "uniform k=1", "cut generator spec: 'p' is not key=value"),
        ("cut n=6 p=0.5", "uniform k=2 k=3", "uniform matroid spec: key 'k' given twice"),
        ("cut n=6 p=0.5 p=0.9", "uniform k=2", "cut generator spec: key 'p' given twice"),
        (
            "cut n=6 p=0.5 wmax=inf",
            "uniform k=2",
            "cut generator needs finite wmin <= wmax, got 0.5 and inf",
        ),
    ],
    ids=["matroid-token", "generator-token", "matroid-repeat", "generator-repeat", "wmax-inf"],
)
def test_malformed_spec_is_a_clean_error(tmp_path, capsys, spec, matroid, message):
    out = tmp_path / "inst.txt"
    _clean_error(capsys, ["gen", "--spec", spec, "--matroid", matroid, "--out", str(out)], message)
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("garbage", "instance file: line 'garbage' has no '='"),
        ("n=3", "instance file: key 'n' given twice"),
        ("matroid=uniform k=1", "instance file: key 'matroid' given twice"),
        ("tag 02=b", "instance file: tag 2 given twice"),
    ],
)
def test_malformed_instance_file_is_a_clean_error(tmp_path, capsys, line, message):
    inst = tmp_path / "inst.txt"
    inst.write_text("n=3\nobjective=modular\nweights=1,2,3\nmatroid=uniform k=2\ntag 2=a\n" + line)
    _clean_error(capsys, [
        "summarize", "--mode", "centralized", "--instance", str(inst),
        "--epsilon", "0.1", "--d", "1", "--out", str(tmp_path / "summary.txt"),
    ], message)


@pytest.mark.parametrize(
    "line, message",
    [
        ("garbage", "summary file: line 'garbage' has no '='"),
        ("mode=centralized", "summary file: key 'mode' given twice"),
        ("bucket=-1:4", "summary file: bucket exponent -1 given twice"),
        ("a=3,-1,1.0\na=3,-1,1.0", "summary key 'a': element 3 given twice"),
        ("counters=low_value:1,low_value:7", "summary key 'counters': counter 'low_value' given twice"),
        ("bucket=3", "summary key 'bucket': '3' has no ':'"),
        ("a=1,2", "summary key 'a': '1,2' is not element,exponent,gain"),
        ("a=1,0,2.0,5", "summary key 'a': '1,0,2.0,5' is not element,exponent,gain"),
        ("a=1,0,nan", "summary key 'a' must be finite, got 'nan'"),
        ("a=1,0,-inf", "summary key 'a' must be finite, got '-inf'"),
        ("weight_log=1:2:3", "summary key 'weight_log': '1:2:3' is not id:weight"),
        ("weight_log=1", "summary key 'weight_log': '1' is not id:weight"),
        ("audit_swapped_out=1:2:3", "summary key 'audit_swapped_out': '1:2:3' is not id:weight"),
        ("counters=x", "summary key 'counters': 'x' is not name:count"),
    ],
)
def test_malformed_summary_file_is_a_clean_error(tmp_path, capsys, line, message):
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    inst.write_text("n=5\nobjective=modular\nweights=5,1,2,2,4\nmatroid=uniform k=2\n")
    summ.write_text(
        "mode=centralized\nn=5\nk=2\nd=1\nepsilon=0.3\nmonotone=1\nseed=5\ndelta=5.0\n"
        "exponents=-1\nbucket=-1:1,2\nvd=0\nb=0,1,2\n" + line + "\n"
    )
    for command in (
        ["verify", "--summary", str(summ), "--instance", str(inst)],
        ["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:1",
         "--solver", "greedy", "--out", str(tmp_path / "solution.txt")],
    ):
        _clean_error(capsys, command, message)


@pytest.mark.parametrize(
    "line, message",
    [
        ("monotone=7", "summary key 'monotone' must be 0 or 1, got '7'"),
        ("epsilon=nan", "summary key 'epsilon' must be in (0, 1), got 'nan'"),
        ("epsilon=1.0", "summary key 'epsilon' must be in (0, 1), got '1.0'"),
        ("epsilon=0", "summary key 'epsilon' must be in (0, 1), got '0'"),
        ("k=0", "summary key 'k' must be at least 1, got '0'"),
        ("d=-1", "summary key 'd' must be non-negative, got '-1'"),
        ("delta=inf", "summary key 'delta' must be finite, got 'inf'"),
        ("delta=nan", "summary key 'delta' must be finite, got 'nan'"),
        ("gamma=nan", "summary key 'gamma' must be finite and positive, got 'nan'"),
        ("gamma=inf", "summary key 'gamma' must be finite and positive, got 'inf'"),
        ("gamma=0", "summary key 'gamma' must be finite and positive, got '0'"),
        ("p=-2", "summary key 'p' must be in (0, 1], got '-2'"),
        ("p=0", "summary key 'p' must be in (0, 1], got '0'"),
        ("p=inf", "summary key 'p' must be in (0, 1], got 'inf'"),
        ("p=nan", "summary key 'p' must be in (0, 1], got 'nan'"),
        ("n=-3", "summary key 'n' must be non-negative, got '-3'"),
        ("peak_memory=-4", "summary key 'peak_memory' must be non-negative, got '-4'"),
        ("counters=x:-1", "summary key 'counters' must be non-negative, got '-1'"),
        ("seed=-1", "summary key 'seed' must be non-negative, got '-1'"),
        ("weight_log=1:nan", "summary key 'weight_log' must be finite, got 'nan'"),
        ("audit_swapped_out=1:-inf", "summary key 'audit_swapped_out' must be finite, got '-inf'"),
        ("mode=weird", "summary key 'mode' must be centralized or streaming, got 'weird'"),
        ("n=abc", "summary key 'n' must be an integer, got 'abc'"),
        ("seed=x", "summary key 'seed' must be an integer, got 'x'"),
        ("k=2.5", "summary key 'k' must be an integer, got '2.5'"),
        ("d=x", "summary key 'd' must be an integer, got 'x'"),
        ("peak_memory=1e3", "summary key 'peak_memory' must be an integer, got '1e3'"),
        ("epsilon=x", "summary key 'epsilon' must be a number, got 'x'"),
        ("delta=x", "summary key 'delta' must be a number, got 'x'"),
        ("a=x,0,1.0", "summary key 'a' must be an integer, got 'x'"),
        ("a=1,x,1.0", "summary key 'a' must be an integer, got 'x'"),
        ("bucket=x:3", "summary key 'bucket' must be an integer, got 'x'"),
        ("bucket=-2:z", "summary key 'bucket' must be an integer, got 'z'"),
        ("audit_drained=q", "summary key 'audit_drained' must be an integer, got 'q'"),
        ("weight_log=x:1.0", "summary key 'weight_log' must be an integer, got 'x'"),
        ("counters=drained:x", "summary key 'counters' must be an integer, got 'x'"),
    ],
)
def test_summary_value_out_of_its_range_is_a_clean_error(tmp_path, capsys, line, message):
    # the line replaces the summary's own line for its key
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    inst.write_text("n=5\nobjective=modular\nweights=5,1,2,2,4\nmatroid=uniform k=2\n")
    key = line.split("=")[0]
    header = {"mode": "centralized", "n": "5", "k": "2", "d": "1", "epsilon": "0.3",
              "monotone": "1", "seed": "5", "delta": "5.0"}
    header[key] = line.split("=")[1]
    summ.write_text(
        "".join(f"{name}={value}\n" for name, value in header.items())
        + "exponents=-1\nbucket=-1:1,2\nvd=0\nb=0,1,2\n"
    )
    for command in (
        ["verify", "--summary", str(summ), "--instance", str(inst)],
        ["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:1",
         "--solver", "greedy", "--out", str(tmp_path / "solution.txt")],
    ):
        _clean_error(capsys, command, message)


@pytest.mark.parametrize(
    "line, message",
    [
        ("exponents=a", "summary key 'exponents' must be an integer, got 'a'"),
        ("exponents=-1,", "summary key 'exponents' must be an integer, got ''"),
        ("vd=x", "summary key 'vd' must be an integer, got 'x'"),
        ("b=0,1.5", "summary key 'b' must be an integer, got '1.5'"),
    ],
)
def test_summary_list_of_integers_names_its_key(tmp_path, capsys, line, message):
    # the line replaces the summary's own line for its key
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    inst.write_text("n=5\nobjective=modular\nweights=5,1,2,2,4\nmatroid=uniform k=2\n")
    key, _, value = line.partition("=")
    lists = {"exponents": "-1", "vd": "0", "b": "0,1,2"}
    lists[key] = value
    summ.write_text(
        "mode=centralized\nn=5\nk=2\nd=1\nepsilon=0.3\nmonotone=1\nseed=5\ndelta=5.0\n"
        "bucket=-1:1,2\n" + "".join(f"{name}={ids}\n" for name, ids in lists.items())
    )
    for command in (
        ["verify", "--summary", str(summ), "--instance", str(inst)],
        ["solve", "--summary", str(summ), "--instance", str(inst), "--delete", "top:1",
         "--solver", "greedy", "--out", str(tmp_path / "solution.txt")],
    ):
        _clean_error(capsys, command, message)


def _solve_with_deletions(tmp_path, delete):
    inst, summ, sol = tmp_path / "inst.txt", tmp_path / "summary.txt", tmp_path / "sol.txt"
    if not inst.exists():
        main(["gen", "--spec", "lowerbound k=3 d=2 nzero=5", "--out", str(inst)])  # n=10
        main(["summarize", "--mode", "centralized", "--instance", str(inst),
              "--epsilon", "0.25", "--d", "2", "--seed", "1", "--out", str(summ)])
    code = main(["solve", "--summary", str(summ), "--instance", str(inst), "--delete", delete,
                 "--solver", "greedy", "--out", str(sol)])
    return code, sol.read_bytes() if code == 0 else None


@pytest.mark.parametrize(
    "ids, bad", [("3,99,-4", -4), ("3 99\n", 99), ("-1", -1), ("10", 10)]
)
def test_deletion_file_ids_are_range_checked(tmp_path, capsys, ids, bad):
    listing = tmp_path / "del.txt"
    listing.write_text(ids)
    for delete in (str(listing), f"list:{listing}"):
        capsys.readouterr()
        code, _ = _solve_with_deletions(tmp_path, delete)
        assert code == 2
        assert capsys.readouterr().err == (
            f"robust-summary: error: deletion id {bad} outside range [0, 10)\n"
        )


@pytest.mark.parametrize("head", [*SPEC_FORMS, "list"])
def test_every_strategy_head_is_parsed_as_a_strategy_not_a_file(tmp_path, monkeypatch, head):
    instance = generate_instance("coverage n=12 universe=10 density=0.3",
                                 matroid="partition nblocks=3 cap=1", seed=4)
    with pytest.raises(ValueError, match=rf"^deletion strategy '{head}:' needs {head}:<"):
        _parse_deletions(f"{head}:", instance)
    if head != "list":
        spec = ":".join([head] + ["1"] * len(SPEC_FORMS[head][1]))
        # a file named like the spec is read only when the head is not known
        monkeypatch.chdir(tmp_path)
        Path(spec).write_text("0\n")
        expected = choose_deletions(instance, parse_strategy(spec))
        assert _parse_deletions(spec, instance) == expected != [0]


def test_deletion_file_duplicates_keep_the_solution(tmp_path):
    listing = tmp_path / "del.txt"
    solutions = set()
    for ids in ("0,3", "3,0,3", "0 0\n3\n"):
        listing.write_text(ids)
        for delete in (str(listing), f"list:{listing}"):
            code, solution = _solve_with_deletions(tmp_path, delete)
            assert code == 0
            solutions.add(solution)
    (solution,) = solutions
    assert b"deleted=0,3\n" in solution


@pytest.mark.parametrize(
    "spec, needs",
    [
        ("rand:3", "rand:<d>:<seed>, each a non-negative integer"),
        ("block:2", "block:<d>:<block>, each a non-negative integer"),
        ("maxdmg:", "maxdmg:<d>, each a non-negative integer"),
        ("top:3:9", "top:<d>, each a non-negative integer"),
        ("rand:2:-1", "rand:<d>:<seed>, each a non-negative integer"),
        ("top:-1", "top:<d>, each a non-negative integer"),
        ("list:", "list:<path>"),
    ],
)
def test_malformed_strategy_spec_names_its_form(tmp_path, capsys, spec, needs):
    capsys.readouterr()
    code, _ = _solve_with_deletions(tmp_path, spec)
    assert code == 2
    assert capsys.readouterr().err == (
        f"robust-summary: error: deletion strategy {spec!r} needs {needs}\n"
    )


@pytest.mark.parametrize(
    "command, flag",
    [
        (["gen", "--spec", "cut n=6 p=0.5", "--out", "o"], "--seed"),
        (["summarize", "--mode", "centralized", "--instance", "i", "--epsilon", "0.2", "--d", "1",
          "--out", "o"], "--seed"),
        (["verify", "--summary", "s", "--instance", "i"], "--deletion-seed"),
        # a negative count once checked only the empty deletion set and passed
        (["verify", "--summary", "s", "--instance", "i"], "--deletion-trials"),
    ],
    ids=["gen", "summarize", "verify", "verify-trials"],
)
def test_negative_seed_flag_is_a_usage_error_naming_it(tmp_path, monkeypatch, capsys, command, flag):
    # numpy once refused these seeds in its own words, after reading the files
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(command + [flag, "-1"])
    assert raised.value.code == 2
    assert f"argument {flag}: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_shuffle_seed_is_refused_naming_the_order(tmp_path, capsys):
    inst, summ = tmp_path / "inst.txt", tmp_path / "summary.txt"
    inst.write_text("n=5\nobjective=modular\nweights=5,1,2,2,4\nmatroid=uniform k=2\n")
    _clean_error(capsys, [
        "summarize", "--mode", "streaming", "--instance", str(inst), "--epsilon", "0.2",
        "--d", "1", "--order", "shuffle:-1", "--out", str(summ),
    ], "--order shuffle:<seed> must be non-negative, got -1")
    assert not summ.exists()


@pytest.mark.parametrize("key", ["gen_seed", "seed_base"])
def test_negative_seed_in_config_is_refused_naming_its_key(tmp_path, capsys, key):
    out_dir = tmp_path / "out"
    text = _VALID_CONFIG + f"[report]\nout_dir = {out_dir}\n"
    if key == "gen_seed":
        text = text.replace("[instance]\n", "[instance]\ngen_seed = -1\n")
    else:
        text += "[trials]\nseed_base = -1\n"
    err = _experiment_error(tmp_path, capsys, text)
    assert err.endswith(f": {key} must be non-negative, got -1\n")
    assert not out_dir.exists()


def test_nan_slack_in_config_is_refused_naming_it(tmp_path, capsys):
    # with a NaN slack a run within the bound once reported VIOLATED and exited 1
    out_dir = tmp_path / "out"
    text = _VALID_CONFIG + f"[report]\nout_dir = {out_dir}\nslack = nan\n"
    err = _experiment_error(tmp_path, capsys, text)
    assert err.endswith("exp.cfg: slack must be finite and non-negative, got nan\n")
    assert not out_dir.exists()
