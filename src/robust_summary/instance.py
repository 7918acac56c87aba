"""Instance bundles and the line-oriented instance file format.

Grammar (one ``key=value`` per line, ``#`` comments and blank lines allowed;
unknown keys are rejected, and so is a key given twice, except ``row`` and
``edge``)::

    n=<int>                      ground-set size, must come first
    objective=<kind>             weighted-coverage | facility-location |
                                 graph-cut | modular
    universe=<floats>            weighted-coverage: universe item weights
    cover <i>=<ids>              weighted-coverage: one line per element
    row=<floats>                 facility-location: one line per client
    edge=<u> <v> <w>             graph-cut: one line per edge
    weights=<floats>             modular: per-element weights
    matroid=<spec>               uniform k=<int>
                                 | partition blocks=<ids|ids|...> caps=<ints>
                                 | partition nblocks=<int> cap=<int>   (round-robin)
                                 | graphic vertices=<int> edgemap=<u-v,...>
    tag <i>=<text>               optional display tag for reports

Lists are comma-separated; floats round-trip exactly (written with repr).
``n`` may be at most ``MAX_N``, and every count a line gives is checked
against the lines or against n before anything of that size is built, so a
file takes memory in proportion to its lines and n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .grammar import numbers, once, parse_lines, parse_spec
from .matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid
from .objectives import (
    FacilityLocation,
    GraphCut,
    Modular,
    Objective,
    WeightedCoverage,
)

# the largest ground set an instance file may declare; a run keeps several
# tables of one entry per element, a few hundred MB at this size
MAX_N = 10**7


@dataclass
class Instance:
    """Ground set bundled with its objective and matroid oracles."""

    objective: Objective
    matroid: Matroid
    tags: dict[int, str] = field(default_factory=dict)
    # the instance-file text it was parsed from; None for one built in memory
    text: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.objective.n != self.matroid.n:
            raise ValueError("objective and matroid must share the ground set")

    @property
    def n(self) -> int:
        return self.objective.n


def parse_matroid_spec(spec: str, n: int) -> Matroid:
    """The matroid a spec names, over the ground set 0..n-1.

    A missing required key is reported first; then any key the kind does
    not read is an error, so a misspelled key cannot silently drop a setting.
    """
    kind, args = parse_spec(spec, "matroid")

    def arg(key: str) -> str:
        if key not in args:
            raise ValueError(f"{kind} matroid spec is missing key {key!r}")
        return args[key]

    def only(*keys: str) -> None:
        for key in args:
            if key not in keys:
                raise ValueError(f"{kind} matroid spec has no key {key!r}; expected {keys}")

    if kind == "uniform":
        k = int(arg("k"))
        only("k")
        return UniformMatroid(n, k)
    if kind == "partition":
        if "blocks" in args:
            blocks = [numbers(b) for b in args["blocks"].split("|")]
            caps = numbers(arg("caps"))
            if "nblocks" in args:
                raise ValueError("partition matroid spec takes blocks= or nblocks=, not both")
            only("blocks", "caps")
        else:  # round-robin shorthand
            nblocks = int(arg("nblocks"))
            cap = int(args.get("cap", "1"))
            only("nblocks", "cap")
            if nblocks > n:
                raise ValueError(f"partition nblocks={nblocks} exceeds the {n} elements")
            blocks = [list(range(b, n, nblocks)) for b in range(nblocks)]
            caps = [cap] * nblocks
        return PartitionMatroid(blocks, caps)
    if kind == "graphic":
        pairs = []
        for tok in arg("edgemap").split(","):
            u, _, v = tok.partition("-")
            pairs.append((int(u), int(v)))
        vertices = int(arg("vertices"))
        only("vertices", "edgemap")
        if vertices > MAX_N:
            raise ValueError(f"graphic vertices={vertices} is above the limit of {MAX_N}")
        if len(pairs) != n:
            raise ValueError("graphic edgemap must list one edge per element")
        return GraphicMatroid(vertices, pairs)
    raise ValueError(f"unknown matroid kind {kind!r}")


def format_matroid(matroid: Matroid) -> str:
    if isinstance(matroid, UniformMatroid):
        return f"uniform k={matroid.cap}"
    if isinstance(matroid, PartitionMatroid):
        blocks = "|".join(",".join(str(e) for e in b) for b in matroid.blocks)
        caps = ",".join(str(c) for c in matroid.capacities)
        return f"partition blocks={blocks} caps={caps}"
    if isinstance(matroid, GraphicMatroid):
        edgemap = ",".join(f"{u}-{v}" for u, v in matroid.edges)
        return f"graphic vertices={matroid.n_vertices} edgemap={edgemap}"
    raise ValueError(f"cannot serialize matroid kind {matroid.kind!r}")


def format_instance(instance: Instance) -> str:
    obj = instance.objective
    lines = ["# robust-summary instance v1", f"n={obj.n}", f"objective={obj.kind}"]
    if isinstance(obj, WeightedCoverage):
        lines.append("universe=" + ",".join(map(repr, obj.universe_weights.tolist())))
        for e, cover in enumerate(obj.covers):
            lines.append(f"cover {e}=" + ",".join(str(u) for u in sorted(cover)))
    elif isinstance(obj, FacilityLocation):
        for row in obj.similarity.tolist():
            lines.append("row=" + ",".join(map(repr, row)))
    elif isinstance(obj, GraphCut):
        for u, v, w in obj.edges:
            lines.append(f"edge={u} {v} {w!r}")
    elif isinstance(obj, Modular):
        lines.append("weights=" + ",".join(map(repr, obj.weights.tolist())))
    else:
        raise ValueError(f"cannot serialize objective kind {obj.kind!r}")
    lines.append("matroid=" + format_matroid(instance.matroid))
    for e in sorted(instance.tags):
        lines.append(f"tag {e}={instance.tags[e]}")
    return "\n".join(lines) + "\n"


def write_instance(instance: Instance, path) -> None:
    Path(path).write_text(format_instance(instance), encoding="utf-8")


def parse_instance_text(text: str) -> Instance:
    fields, lists = parse_lines(text, "instance file", repeatable=("row", "edge"))
    covers: dict[int, list[int]] = {}
    tags: dict[int, str] = {}
    for key, value in fields.items():
        name, _, index = key.partition(" ")
        if name == "cover" and index:
            once(covers, int(index), numbers(value), "instance file: cover")
        elif name == "tag" and index:
            once(tags, int(index), value, "instance file: tag")
        elif key not in ("n", "objective", "universe", "weights", "matroid"):
            raise ValueError(f"unknown instance key: {key!r}")
    universe = numbers(fields["universe"], float) if "universe" in fields else None
    weights = numbers(fields["weights"], float) if "weights" in fields else None
    rows = [numbers(value, float) for value in lists["row"]]
    us, vs, ws = [], [], []
    for value in lists["edge"]:
        u, v, w = value.split()
        us.append(int(u))
        vs.append(int(v))
        ws.append(float(w))
    n = int(fields.get("n", 0))
    kind = fields.get("objective")

    if n < 1:
        raise ValueError("instance needs a positive n")
    if n > MAX_N:
        raise ValueError(f"instance n={n} is above the limit of {MAX_N} elements")
    if kind is None:
        raise ValueError("instance needs an objective kind")
    if "matroid" not in fields:
        raise ValueError("instance needs a matroid")

    if kind == "weighted-coverage":
        if universe is None:
            raise ValueError("weighted-coverage needs a universe line")
        # n distinct indices cover 0..n-1 exactly when none lies outside it
        if len(covers) != n or not all(0 <= e < n for e in covers):
            raise ValueError("weighted-coverage needs one cover line per element")
        objective: Objective = WeightedCoverage(universe, [covers[e] for e in range(n)])
    elif kind == "facility-location":
        if not rows:
            raise ValueError("facility-location needs at least one row")
        if any(len(row) != n for row in rows):
            raise ValueError("every similarity row needs one entry per element")
        objective = FacilityLocation(rows)
    elif kind == "graph-cut":
        objective = GraphCut(n, columns=(us, vs, ws))
    elif kind == "modular":
        if weights is None or len(weights) != n:
            raise ValueError("modular needs a weights line with n entries")
        objective = Modular(weights)
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    if objective.n != n:
        raise ValueError("objective block does not match n")

    return Instance(objective, parse_matroid_spec(fields["matroid"], n), tags, text)


def read_instance(path) -> Instance:
    """The instance a file holds; its ``text`` is the file's bytes, decoded as UTF-8."""
    return parse_instance_text(Path(path).read_bytes().decode())
