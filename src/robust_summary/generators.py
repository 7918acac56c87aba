"""Seeded synthetic instance generators.

Spec strings name a generator and its parameters, e.g.::

    coverage n=14 universe=20 density=0.25
    facility n=12 clients=8
    cut n=12 p=0.4 wmin=0.5 wmax=1.5
    lowerbound k=4 d=3 nzero=10

The lower-bound generator builds the hard additive instance where exactly
k+d elements carry unit weight and the rest are worthless; any constant
factor summary must keep essentially all of them.

Every instance is a fixed function of its spec and seed, read off one stream
of doubles from ``np.random.default_rng(seed)`` in this order:

- ``coverage``: the universe weights (``uniform(0.1, 1.0)`` each), then one
  row of ``universe`` doubles per element; the element covers the items whose
  double is below ``density``.
- ``facility``: the ``clients`` x ``n`` similarity matrix, row by row.
- ``cut``: one coin per vertex pair (u, v), u < v, in lexicographic order; a
  coin below ``p`` makes the edge, and the draw right after it is the edge's
  weight ``wmin + (wmax - wmin) * draw``.

The stream is read in blocks of at most ``_BLOCK`` doubles, so the
generators make no Python-level call per pair and hold no array of every
pair; the bytes of an instance are those of one scalar draw at a time.  What
may differ is the RNG's final state, as a block can draw past the last double
an instance needs; ``generate_instance`` owns the RNG and discards it.
"""

from __future__ import annotations

import math

import numpy as np

from .grammar import parse_spec
from .instance import Instance, parse_matroid_spec
from .matroids import UniformMatroid
from .objectives import GraphCut, Modular, FacilityLocation, WeightedCoverage

# every key each generator reads, with its default; None marks a required key
GENERATOR_KEYS = {
    "coverage": {"n": None, "universe": None, "density": None},
    "facility": {"n": None, "clients": None},
    "cut": {"n": None, "p": None, "wmin": "0.5", "wmax": "1.5"},
    "lowerbound": {"k": None, "d": None, "nzero": "0"},
}

# how each key reads and the closed range it must lie in (NaN lies in none),
# with the need an error states; wmin and wmax are checked as a pair
_KEY_RANGES = {
    "n": (int, 1, math.inf, "a positive n"),
    "universe": (int, 0, math.inf, "universe >= 0"),
    "density": (float, 0.0, 1.0, "0 <= density <= 1"),
    "clients": (int, 1, math.inf, "clients >= 1"),
    "p": (float, 0.0, 1.0, "0 <= p <= 1"),
    "wmin": (float, None, None, "a number for wmin"),
    "wmax": (float, None, None, "a number for wmax"),
    "k": (int, 0, math.inf, "k >= 0"),
    "d": (int, 0, math.inf, "d >= 0"),
    "nzero": (int, 0, math.inf, "nzero >= 0"),
}

# doubles drawn at once: bounds the draw temporaries at a few hundred KB
_BLOCK = 1 << 14


def _parse_spec(spec: str) -> tuple[str, dict[str, int | float]]:
    """The generator kind and the value of every key it reads, defaults filled in.

    A key the generator does not read, a missing required key, or a value
    outside its range is an error, raised before anything is drawn.
    """
    kind, args = parse_spec(spec, "generator")
    if kind not in GENERATOR_KEYS:
        raise ValueError(f"unknown generator {kind!r}; expected one of {tuple(GENERATOR_KEYS)}")
    keys = GENERATOR_KEYS[kind]
    for key in args:
        if key not in keys:
            raise ValueError(f"generator {kind!r} has no key {key!r}; expected {tuple(keys)}")
    values = {}
    for key, default in keys.items():
        if key not in args:
            if default is None:
                raise ValueError(f"generator {kind!r} is missing key {key!r}")
            args[key] = default
        cast, low, high, need = _KEY_RANGES[key]
        try:
            value = cast(args[key])
        except ValueError:
            value = None
        if value is None or (low is not None and not low <= value <= high):
            raise ValueError(f"generator {kind!r} needs {need}, got {key}={args[key]}")
        values[key] = value
    if kind == "cut" and not 0.0 <= values["wmax"] - values["wmin"] < math.inf:
        raise ValueError(
            f"cut generator needs finite wmin <= wmax, got {values['wmin']!r} and {values['wmax']!r}"
        )
    return kind, values


def generate_instance(spec: str, matroid: str | None = None, seed: int = 0) -> Instance:
    """Build an instance from a generator spec, deterministically per seed.

    A spec that yields no element is an error, as it is for the instance
    reader, and so is a matroid of rank 0, which every summary builder refuses.
    """
    kind, args = _parse_spec(spec)
    instance = _generate(kind, args, matroid, np.random.default_rng(seed))
    rank = instance.matroid.k
    if rank < 1:
        raise ValueError(f"generator {kind!r} built a matroid of rank {rank}; a summary needs rank >= 1")
    return instance


def _generate(kind: str, args: dict, matroid: str | None, rng) -> Instance:
    if kind == "lowerbound":
        k, d, nzero = args["k"], args["d"], args["nzero"]
        weights = [1.0] * (k + d) + [0.0] * nzero
        if not weights:
            raise ValueError(
                f"generator 'lowerbound' needs a positive n = k + d + nzero, "
                f"got k={k} d={d} nzero={nzero}"
            )
        return Instance(Modular(weights), UniformMatroid(len(weights), k))

    n = args["n"]
    if matroid is None:
        raise ValueError(f"generator {kind!r} needs a matroid spec")

    if kind == "coverage":
        universe, density = args["universe"], args["density"]
        item_weights = rng.uniform(0.1, 1.0, size=universe)
        rows = max(1, _BLOCK // max(universe, 1))
        covers = []
        for first in range(0, n, rows):
            masks = rng.random((min(rows, n - first), universe)) < density
            covers.extend(np.flatnonzero(mask).tolist() for mask in masks)
        objective = WeightedCoverage(item_weights, covers)
    elif kind == "facility":
        objective = FacilityLocation(rng.random((args["clients"], n)))
    else:  # cut
        objective = GraphCut(n, columns=_cut_edges(n, args["p"], args["wmin"], args["wmax"], rng))

    return Instance(objective, parse_matroid_spec(matroid, n))


def _cut_edges(n: int, p: float, wmin: float, wmax: float, rng) -> tuple[np.ndarray, ...]:
    """The weighted edges of G(n, p), read off the draw stream a block at a time.

    A draw is a pair's coin unless the draw before it was a coin that hit;
    then it is that edge's weight.  After a miss, whether coin or weight, a
    coin follows, so inside each run of draws that starts after a miss the
    coins and weights alternate.  The edges come back as the columns
    ``GraphCut`` takes: first endpoints, second endpoints, weights.
    """
    width = wmax - wmin
    pairs = n * (n - 1) // 2
    drawn = 0  # pairs whose coin is read
    owed = None  # the pair whose weight is the next draw, if a block ended on its coin
    hits, weights = [], []
    while drawn < pairs or owed is not None:
        left = pairs - drawn + (owed is not None)
        draws = rng.random(min(_BLOCK, 2 * left))
        if owed is not None:
            hits.append(np.array([owed]))
            weights.append(wmin + width * draws[:1])
            draws, owed = draws[1:], None
        hit = draws < p
        at = np.arange(draws.size)
        run_start = np.maximum.accumulate(np.where(np.concatenate(([True], ~hit[:-1])), at, 0))
        coins = np.flatnonzero((at - run_start) % 2 == 0)[: pairs - drawn]
        edge_coins = np.flatnonzero(hit[coins])
        edge_draws = coins[edge_coins]
        edge_pairs = drawn + edge_coins
        if edge_draws.size and edge_draws[-1] == draws.size - 1:
            owed = int(edge_pairs[-1])
            edge_draws, edge_pairs = edge_draws[:-1], edge_pairs[:-1]
        hits.append(edge_pairs)
        weights.append(wmin + width * draws[edge_draws + 1])
        drawn += coins.size
    if not pairs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    hit_pairs = np.concatenate(hits)
    # offsets[u] is the index of pair (u, u + 1), the first pair of row u
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    us = np.searchsorted(offsets, hit_pairs, side="right") - 1
    vs = hit_pairs - offsets[us] + us + 1
    return us, vs, np.concatenate(weights)
