"""Independent brute-force oracles for pinning expected values in tests.

These deliberately avoid the library's own shortcuts: optima come from plain
itertools enumeration, cut/coverage values from direct definition sweeps,
graphic independence from DFS cycle detection, matroid axioms from full
bitmask truth tables, the centralized summary from a sweep that rescans
the whole pool at every step, the greedy from a loop that re-evaluates
every element at every pick, and the batched, tabled and memo-backed oracle
calls from the scalar calls they must equal (``plain_oracle``).
"""

import copy
import itertools

import numpy as np

from robust_summary import Summary, SummaryEntry, bucket_cap, compute_delta, threshold_lattice
from robust_summary.matroids import Matroid
from robust_summary.objectives import Objective


def brute_force_opt(objective, matroid, ground):
    """Best independent subset by enumerating every combination."""
    elements = sorted(ground)
    best_val, best = 0.0, ()
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if matroid.is_independent(combo):
                v = objective.value(combo)
                if v > best_val:
                    best_val, best = v, combo
    return best_val, set(best)


def cut_value_by_enumeration(edges, inside):
    inside = set(inside)
    total = 0.0
    for u, v, w in edges:
        if (u in inside) != (v in inside):
            total += w
    return total


def coverage_value_by_union(weights, covers, chosen):
    covered = set()
    for e in chosen:
        covered |= set(covers[e])
    return sum(weights[u] for u in covered)


def edge_subset_has_cycle(n_vertices, pairs, chosen):
    """DFS cycle detection over the chosen edge ids."""
    adjacency = {v: [] for v in range(n_vertices)}
    for idx, e in enumerate(chosen):
        u, v = pairs[e]
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    visited = set()
    for start in range(n_vertices):
        if start in visited:
            continue
        visited.add(start)
        stack = [(start, -1)]
        while stack:
            node, via = stack.pop()
            for nxt, idx in adjacency[node]:
                if idx == via:
                    continue
                if nxt in visited:
                    return True
                visited.add(nxt)
                stack.append((nxt, idx))
    return False


def independence_table(matroid):
    """Truth table over every subset bitmask of the ground set."""
    n = matroid.n
    table = []
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        table.append(matroid.is_independent(ids))
    return table


def downward_closed_violations(table, n):
    bad = []
    for mask in range(1 << n):
        if not table[mask]:
            continue
        for i in range(n):
            if mask >> i & 1 and not table[mask ^ (1 << i)]:
                bad.append((mask, i))
    return bad


def augmentation_violations(table, n):
    independents = [mask for mask in range(1 << n) if table[mask]]
    by_size = {}
    for mask in independents:
        by_size.setdefault(bin(mask).count("1"), []).append(mask)
    bad = []
    sizes = sorted(by_size)
    for sa in sizes:
        for sb in sizes:
            if sb <= sa:
                continue
            for a in by_size[sa]:
                for b in by_size[sb]:
                    extra = b & ~a
                    if not any(table[a | (1 << i)] for i in range(n) if extra >> i & 1):
                        bad.append((a, b))
    return bad


def minimal_dependent_supersets(table, base_mask, g, n):
    """Minimal dependent subsets of base_mask|{g} that contain g."""
    found = []
    # iterate over all subsets of base_mask, each joined with g
    sub = base_mask
    while True:
        mask = sub | (1 << g)
        if not table[mask]:
            # minimal iff every one-element removal restores independence
            if all(table[mask ^ (1 << i)] for i in range(n) if mask >> i & 1):
                found.append(mask)
        if sub == 0:
            break
        sub = (sub - 1) & base_mask
    return found


def mask_to_ids(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def plain_greedy_matroid(ground, objective, matroid):
    """Greedy that re-checks and re-evaluates every remaining element each round.

    The plain reference for ``greedy_matroid``: same picks, ties toward the
    smaller id, stops when nothing improves.
    """
    remaining = sorted(set(int(e) for e in ground))
    chosen: set[int] = set()
    while True:
        best_gain = 0.0
        best = None
        for e in remaining:
            if e in chosen:
                continue
            if not matroid.is_independent(chosen | {e}):
                continue
            gain = objective.marginal(e, chosen)
            if gain > best_gain:
                best_gain = gain
                best = e
        if best is None:
            return sorted(chosen)
        chosen.add(best)


def literal_build_summary(objective, matroid, config):
    """Centralized threshold sweep that rescans every pool element at every step.

    The plain reference for ``build_summary``: same lattice, caps and seeded
    draws, but no cached gains and no remembered infeasibility.
    """
    rng = np.random.default_rng(config.seed)
    n = objective.n
    values = [objective.value((e,)) for e in range(n)]
    delta, top = compute_delta(values, config.d)
    lattice = threshold_lattice(delta, matroid.k, config.epsilon)
    cap = bucket_cap(matroid.k, config.d, config.epsilon, config.monotone_mode)
    protected = set(top)
    pool = [e for e in range(n) if e not in protected]
    entries, solution, leftover = [], set(), {}

    def scan(tau):
        gains = {}
        for e in pool:
            if matroid.is_independent(solution | {e}):
                gain = objective.marginal(e, solution)
                if gain >= tau:
                    gains[e] = gain
        return list(gains), gains

    for exponent in lattice.exponents:
        tau = lattice.power(exponent)
        bucket, gains = scan(tau)
        while len(bucket) >= cap:
            pick = bucket[int(rng.integers(len(bucket)))]
            entries.append(SummaryEntry(pick, exponent, gains[pick]))
            solution.add(pick)
            pool.remove(pick)
            bucket, gains = scan(tau)
        if bucket:
            leftover[exponent] = bucket
            for e in bucket:
                pool.remove(e)

    return Summary(
        mode="centralized",
        n=n,
        k=matroid.k,
        d=config.d,
        epsilon=config.epsilon,
        monotone=config.monotone_mode,
        seed=config.seed,
        delta=delta,
        entries=entries,
        buckets=leftover,
        top_buffer=list(top),
        exponents=list(lattice.exponents),
        counters={"low_value": len(pool)},
    )


def _plain_value(objective, ids):
    s = objective._as_set(ids)
    objective._queries += 1
    return objective._f(s)


def _plain_gains(objective, candidates, ids):
    ids = list(ids)
    return [objective.marginal(e, ids) for e in candidates]


def _plain_fits(matroid, e, ids):
    return matroid.is_independent(set(ids) | {e})


def _plain_fits_each(matroid, candidates, ids):
    ids = list(ids)
    return [matroid.fits(e, ids) for e in candidates]


def plain_oracle(oracle):
    """A copy of an objective or matroid whose fast paths are their plain references.

    ``value`` evaluates every set afresh, singletons included, ``gains``
    becomes a loop of ``marginal``, ``fits(e, S)`` becomes
    ``is_independent(S | {e})``, ``fits_each`` a loop of that ``fits``, and
    every ``circuit`` the generic ``Matroid.circuit``.  Everything else is
    the oracle's own code.
    """
    if isinstance(oracle, Objective):
        plain, methods = oracle.clone(), {"value": _plain_value, "gains": _plain_gains}
    else:
        methods = {"fits": _plain_fits, "fits_each": _plain_fits_each, "circuit": Matroid.circuit}
        plain = copy.copy(oracle)
    plain.__class__ = type(f"Plain{type(oracle).__name__}", (type(oracle),), methods)
    return plain
