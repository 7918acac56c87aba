"""Seeded synthetic instance generators.

Spec strings name a generator and its parameters, e.g.::

    coverage n=14 universe=20 density=0.25
    facility n=12 clients=8
    cut n=12 p=0.4 wmin=0.5 wmax=1.5
    lowerbound k=4 d=3 nzero=10

The lower-bound generator builds the hard additive instance where exactly
k+d elements carry unit weight and the rest are worthless; any constant
factor summary must keep essentially all of them.
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


def _parse_spec(spec: str) -> tuple[str, dict[str, str]]:
    """The generator kind and every key it reads, defaults filled in.

    A key the generator does not read, or a missing required key, is an error.
    """
    kind, args = parse_spec(spec, "generator")
    if kind not in GENERATOR_KEYS:
        raise ValueError(f"unknown generator {kind!r}; expected one of {tuple(GENERATOR_KEYS)}")
    keys = GENERATOR_KEYS[kind]
    for key in args:
        if key not in keys:
            raise ValueError(f"generator {kind!r} has no key {key!r}; expected {tuple(keys)}")
    for key, default in keys.items():
        if key not in args:
            if default is None:
                raise ValueError(f"generator {kind!r} is missing key {key!r}")
            args[key] = default
    return kind, args


def generate_instance(spec: str, matroid: str | None = None, seed: int = 0) -> Instance:
    """Build an instance from a generator spec, deterministically per seed.

    A spec that yields no element is an error, as it is for the instance reader.
    """
    kind, args = _parse_spec(spec)
    rng = np.random.default_rng(seed)

    if kind == "lowerbound":
        k = int(args["k"])
        d = int(args["d"])
        nzero = int(args["nzero"])
        weights = [1.0] * (k + d) + [0.0] * nzero
        if not weights:
            raise ValueError(
                f"generator 'lowerbound' needs a positive n = k + d + nzero, "
                f"got k={k} d={d} nzero={nzero}"
            )
        return Instance(Modular(weights), UniformMatroid(len(weights), k))

    n = int(args["n"])
    if n < 1:
        raise ValueError(f"generator {kind!r} needs a positive n, got n={n}")
    if matroid is None:
        raise ValueError(f"generator {kind!r} needs a matroid spec")

    if kind == "coverage":
        universe = int(args["universe"])
        density = float(args["density"])
        item_weights = rng.uniform(0.1, 1.0, size=universe)
        covers = []
        for _ in range(n):
            mask = rng.random(universe) < density
            covers.append([int(u) for u in np.flatnonzero(mask)])
        objective = WeightedCoverage(item_weights, covers)
    elif kind == "facility":
        clients = int(args["clients"])
        objective = FacilityLocation(rng.random((clients, n)))
    else:  # cut
        p = float(args["p"])
        wmin = float(args["wmin"])
        wmax = float(args["wmax"])
        if not 0.0 <= wmax - wmin < math.inf:  # numpy raises OverflowError otherwise
            raise ValueError(f"cut generator needs finite wmin <= wmax, got {wmin!r} and {wmax!r}")
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v, float(rng.uniform(wmin, wmax))))
        objective = GraphCut(n, edges)

    return Instance(objective, parse_matroid_spec(matroid, n))
