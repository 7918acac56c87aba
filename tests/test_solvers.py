"""Post-deletion solvers and the second-phase driver."""

import copy
import itertools
import math

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    SolverKind,
    Summary,
    SummaryEntry,
    build_summary,
    exhaustive_opt,
    generate_instance,
    greedy_matroid,
    make_cut_function,
    make_graphic,
    make_modular,
    make_partition,
    make_uniform,
    make_weighted_coverage,
    opt_value,
    solve_after_deletions,
)
from robust_summary import adversary, solvers

from helpers import brute_force_opt, plain_greedy_matroid


def test_greedy_examples():
    obj = make_modular([3.0, 2.0, 1.0])
    assert greedy_matroid(range(3), obj, make_uniform(3, 2)) == [0, 1]
    assert greedy_matroid([], obj, make_uniform(3, 2)) == []
    part = make_partition([[0, 1], [2]], [1, 1])
    assert greedy_matroid(range(3), make_modular([5.0, 4.0, 1.0]), part) == [0, 2]


def test_greedy_skips_nonpositive_gains():
    cut = make_cut_function(2, [(0, 1, 5.0)])
    # adding the second vertex would close the cut: gain -5, greedy stops
    assert greedy_matroid(range(2), cut, make_uniform(2, 2)) == [0]


def _greedy_corpus():
    """(name, objective, matroid, ground) on which the lazy greedy is checked."""
    # exact ties in true gain whose float gains differ by an ulp between rounds
    for seed in (6, 20, 28, 29):
        inst = generate_instance(
            "coverage n=100 universe=60 density=0.08", matroid="uniform k=12", seed=seed
        )
        ground = sorted(int(e) for e in np.random.default_rng(seed).choice(100, 66, replace=False))
        yield f"coverage-tie-{seed}", inst.objective, inst.matroid, ground
    for seed in range(4):
        for spec in ("partition nblocks=4 cap=2", "uniform k=5"):
            inst = generate_instance("cut n=30 p=0.2", matroid=spec, seed=seed)
            yield f"cut-{spec.split()[0]}-{seed}", inst.objective, inst.matroid, range(30)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.35]
        weights = rng.lognormal(0.0, 1.0, size=len(edges))
        yield f"graphic-{seed}", make_modular(weights), make_graphic(12, edges), range(len(edges))
    for seed in range(4):
        weights = np.random.default_rng(seed).integers(0, 4, size=30).astype(float)
        yield f"integer-{seed}", make_modular(weights), make_uniform(30, 7), range(30)


def test_greedy_matches_plain_reference():
    for name, obj, matroid, ground in _greedy_corpus():
        lazy = greedy_matroid(ground, obj.clone(), matroid)
        assert lazy == plain_greedy_matroid(ground, obj.clone(), matroid), name


def test_greedy_callers_match_plain_reference(monkeypatch):
    cases = list(_greedy_corpus())

    def callers():
        bounds = [
            opt_value(obj, matroid, set(range(obj.n)) - set(ground), method="greedy-bound")
            for _, obj, matroid, ground in cases
        ]
        solves = [SolverKind("greedy").run(ground, obj, matroid) for _, obj, matroid, ground in cases]
        return bounds, solves

    lazy = callers()
    monkeypatch.setattr(solvers, "greedy_matroid", plain_greedy_matroid)
    monkeypatch.setattr(adversary, "greedy_matroid", plain_greedy_matroid)
    assert lazy == callers()


def test_lazy_greedy_saves_queries():
    saved = {}
    for name, obj, matroid, ground in _greedy_corpus():
        lazy_obj, plain_obj = obj.clone(), obj.clone()
        greedy_matroid(ground, lazy_obj, matroid)
        plain_greedy_matroid(ground, plain_obj, matroid)
        assert lazy_obj.queries <= plain_obj.queries, name
        saved[name] = plain_obj.queries - lazy_obj.queries
    assert saved["coverage-tie-6"] > 0


def _fits_logged(matroid):
    """A copy of ``matroid`` and the list of the set sizes its fits calls ask against."""
    asked = []

    class Logged(type(matroid)):
        def fits(self, e, ids):
            asked.append(len(ids))
            return super().fits(e, ids)

        def fits_each(self, candidates, ids):
            asked.append(len(ids))
            return super().fits_each(candidates, ids)

    logged = copy.copy(matroid)
    logged.__class__ = Logged
    return logged, asked


def test_greedy_stops_at_a_basis_with_the_same_picks_and_queries():
    reached = set()
    for name, obj, matroid, ground in _greedy_corpus():
        logged, asked = _fits_logged(matroid)
        stopping = obj.clone()
        picks = greedy_matroid(ground, stopping, logged)
        assert picks == plain_greedy_matroid(ground, obj.clone(), matroid), name
        if len(picks) == matroid.k:
            reached.add(matroid.kind)
            assert max(asked) < matroid.k, name  # no fits call after the k-th pick
        # with the stop out of reach the greedy drains its heap: nothing changes
        draining, unreachable = obj.clone(), copy.copy(matroid)
        unreachable.k = matroid.n + 1
        assert greedy_matroid(ground, draining, unreachable) == picks, name
        assert draining.queries == stopping.queries, name
    assert reached == {"uniform", "partition", "graphic"}


def test_exhaustive_examples():
    assert exhaustive_opt(range(2), make_modular([1.0, 2.0]), make_uniform(2, 1)) == [1]
    cut = make_cut_function(2, [(0, 1, 5.0)])
    # both singletons cut 5; lexicographic tie-break picks {0}
    assert exhaustive_opt(range(2), cut, make_uniform(2, 2)) == [0]


def test_exhaustive_matches_plain_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 8
        universe = rng.uniform(0.1, 1.0, size=6)
        covers = [list(np.flatnonzero(rng.random(6) < 0.4)) for _ in range(n)]
        obj = make_weighted_coverage(universe, covers)
        matroid = make_uniform(n, 3)
        picked = exhaustive_opt(range(n), obj, matroid)
        oracle_value, _ = brute_force_opt(obj, matroid, range(n))
        assert obj.value(picked) == oracle_value


def test_exhaustive_refuses_above_cap():
    obj = make_modular([1.0] * 30)
    with pytest.raises(ValueError, match="23 elements exceed the cap of 22"):
        exhaustive_opt(range(23), obj, make_uniform(30, 2))
    assert exhaustive_opt(range(22), obj, make_uniform(30, 2)) == [0, 1]


def test_greedy_within_half_of_optimum():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(5, 12))
        universe = rng.uniform(0.1, 1.0, size=8)
        covers = [list(np.flatnonzero(rng.random(8) < 0.4)) for _ in range(n)]
        obj = make_weighted_coverage(universe, covers)
        matroid = make_uniform(n, int(rng.integers(1, 4)))
        greedy_value = obj.value(greedy_matroid(range(n), obj, matroid))
        opt_value, _ = brute_force_opt(obj, matroid, range(n))
        assert greedy_value >= opt_value / 2 - 1e-9


def test_solver_kind_validation_and_beta():
    modular, uniform = make_modular([1.0, 2.0]), make_uniform(2, 1)
    cut = make_cut_function(2, [(0, 1, 1.0)])
    assert SolverKind("exhaustive").beta(cut, uniform) == 1.0
    assert SolverKind("greedy").beta(modular, uniform) == 1.0
    # the greedy proves no factor on a non-monotone objective
    assert SolverKind("greedy").beta(cut, uniform) is None
    with pytest.raises(ValueError):
        SolverKind("annealing")


def test_beta_table_over_objectives_and_matroids():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]  # a 4-cycle: its graphic matroid has rank 3
    objectives = {
        "modular": make_modular([1.0, 2.0, 3.0, 4.0]),
        "coverage": make_weighted_coverage([1.0, 2.0, 3.0], [[0], [1], [2], [0, 2]]),
        "cut": make_cut_function(4, [(u, v, 1.0) for u, v in edges]),
    }
    matroids = {
        "uniform": make_uniform(4, 2),
        "partition": make_partition([[0, 1], [2, 3]], [1, 1]),
        "graphic": make_graphic(4, edges),
    }
    greedy = {
        ("modular", "uniform"): 1.0,
        ("modular", "partition"): 1.0,
        ("modular", "graphic"): 1.0,
        ("coverage", "uniform"): math.e / (math.e - 1.0),
        ("coverage", "partition"): 2.0,
        ("coverage", "graphic"): 2.0,
        ("cut", "uniform"): None,
        ("cut", "partition"): None,
        ("cut", "graphic"): None,
    }
    for (oname, obj), (mname, matroid) in itertools.product(objectives.items(), matroids.items()):
        assert SolverKind("exhaustive").beta(obj, matroid) == 1.0, (oname, mname)
        assert SolverKind("greedy").beta(obj, matroid) == greedy[oname, mname], (oname, mname)


def test_greedy_is_exact_on_modular_objectives_under_every_matroid():
    # beta = 1: the matroid greedy finds a max-weight independent set
    for seed in range(12):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.6]
        n = len(edges)
        obj = make_modular(rng.lognormal(0.0, 1.0, size=n))
        blocks = [list(range(0, n, 3)), list(range(1, n, 3)), list(range(2, n, 3))]
        for matroid in (
            make_uniform(n, int(rng.integers(1, 5))),
            make_partition(blocks, [int(c) for c in rng.integers(1, 3, size=3)]),
            make_graphic(6, edges),
        ):
            assert SolverKind("greedy").beta(obj, matroid) == 1.0
            greedy_value = obj.value(greedy_matroid(range(n), obj, matroid))
            assert greedy_value == brute_force_opt(obj, matroid, range(n))[0], (seed, matroid.kind)


def test_greedy_reaches_one_minus_one_over_e_on_monotone_uniform():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 12))
        universe = rng.uniform(0.1, 1.0, size=10)
        covers = [list(np.flatnonzero(rng.random(10) < 0.3)) for _ in range(n)]
        obj = make_weighted_coverage(universe, covers)
        matroid = make_uniform(n, int(rng.integers(1, 5)))
        beta = SolverKind("greedy").beta(obj, matroid)
        assert beta == math.e / (math.e - 1.0)
        greedy_value = obj.value(greedy_matroid(range(n), obj, matroid))
        opt, _ = brute_force_opt(obj, matroid, range(n))
        assert greedy_value >= opt / beta - 1e-9, seed


def _toy_summary(entries, buckets, top, k=2, d=1):
    return Summary(
        mode="centralized", n=10, k=k, d=d, epsilon=0.2, monotone=True, seed=0,
        delta=1.0,
        entries=[SummaryEntry(e, 0, 1.0) for e in entries],
        buckets=buckets, top_buffer=top, counters={},
    )


def test_phase_two_full_wipeout():
    obj = make_modular([1.0] * 10)
    summary = _toy_summary([0, 1], {0: [2, 3]}, [4])
    solution = solve_after_deletions(
        summary, [0, 1, 2, 3, 4], obj, make_uniform(10, 2), SolverKind("exhaustive")
    )
    assert solution.ids == ()
    assert solution.value == 0.0
    assert solution.warning is not None  # five deletions against a budget of one


def test_phase_two_exhaustive_dominates_without_deletions():
    rng = np.random.default_rng(4)
    obj = make_modular(rng.uniform(0.0, 3.0, size=10))
    matroid = make_uniform(10, 3)
    summary = _toy_summary([0, 1], {0: [2, 3, 4]}, [5])
    solution = solve_after_deletions(summary, [], obj, matroid, SolverKind("exhaustive"))
    ground = set(summary.solution) | set(summary.reservoir)
    oracle_value, _ = brute_force_opt(obj, matroid, ground)
    assert solution.value == oracle_value
    assert solution.value >= solution.a_prime_value


def test_phase_two_never_returns_deleted_elements():
    rng = np.random.default_rng(9)
    obj = make_modular(rng.uniform(0.0, 3.0, size=12))
    matroid = make_uniform(12, 3)
    summary = build_summary(obj, matroid, CentralizedConfig(epsilon=0.3, d=2, seed=1))
    for deleted in ([0, 5], [1, 2], [10, 11]):
        solution = solve_after_deletions(summary, deleted, obj, matroid, SolverKind("greedy"))
        assert not set(solution.ids) & set(deleted)
        assert matroid.is_independent(solution.ids)
        assert solution.value >= solution.a_prime_value


def test_exhaustive_dominates_other_solvers_without_deletions():
    rng = np.random.default_rng(15)
    universe = rng.uniform(0.1, 1.0, size=9)
    covers = [list(np.flatnonzero(rng.random(9) < 0.4)) for _ in range(11)]
    obj = make_weighted_coverage(universe, covers)
    matroid = make_uniform(11, 3)
    summary = _toy_summary([0, 1], {0: [2, 3, 4, 5]}, [6], k=3, d=1)
    values = {
        name: solve_after_deletions(summary, [], obj, matroid, SolverKind(name)).value
        for name in ("exhaustive", "greedy")
    }
    assert values["exhaustive"] >= values["greedy"] - 1e-9


def test_phase_two_tie_prefers_survivors():
    obj = make_modular([1.0, 1.0])
    summary = _toy_summary([0], {0: [1]}, [], k=1, d=0)
    solution = solve_after_deletions(summary, [], obj, make_uniform(2, 1), SolverKind("exhaustive"))
    assert solution.source == "candidate-survivors"
    assert solution.ids == (0,)


def test_phase_two_on_hard_additive_instance():
    # k+d unit weights: whatever d positives vanish, k survivors remain
    k, d = 4, 3
    weights = [1.0] * (k + d) + [0.0] * 5
    obj = make_modular(weights)
    matroid = make_uniform(len(weights), k)
    summary = build_summary(
        obj, matroid, CentralizedConfig(epsilon=0.2, d=d, monotone_mode=True, seed=0)
    )
    kept = set(summary.solution) | set(summary.reservoir)
    assert set(range(k + d)) <= kept

    for deleted in itertools.combinations(range(k + d), d):
        solution = solve_after_deletions(summary, deleted, obj, matroid, SolverKind("greedy"))
        assert solution.value == float(k)
