"""The config and summary containers shared by the offline and streaming builders, plus file I/O."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grammar import numbers, once, parse_lines
from .thresholds import check_parameter, may_be_lattice, threshold_lattice


# the two builders, as a summary file names them
MODES = ("centralized", "streaming")


@dataclass(frozen=True)
class BuildConfig:
    """The parameters of both builders, bound to ``CentralizedConfig`` and ``StreamingConfig``.

    The centralized guarantee needs epsilon < 1/5; larger values up to 1 are
    only flagged in reports (``bounds.bound_warnings``).  A stream's swap
    margin and coin probability are no parameters: the objective class fixes
    them (``swap_margin``, ``coin_probability``).  ``audit`` asserts the
    candidate's independence at each change, and a stream records its whole
    trail (``StreamAudit``) rather than only the swapped-out pairs.
    """

    epsilon: float
    d: int
    monotone_mode: bool = False
    seed: int = 0
    audit: bool = False

    def __post_init__(self):
        check_parameter("epsilon", self.epsilon)
        check_parameter("d", self.d, "deletion budget d")
        check_parameter("seed", self.seed)


def swap_margin(monotone: bool) -> float:
    """The swap margin gamma the analysis fixes for the objective class.

    Non-monotone: 1.746, the minimiser of the streaming factor in ``bounds``
    at beta = 2.597.  Monotone: 1; the monotone factor has no gamma term.
    """
    return 1.0 if monotone else 1.746


def coin_probability(monotone: bool) -> float:
    """The stream's coin probability p: 1/(gamma+2) non-monotone; 1, no subsampling, monotone."""
    return 1.0 if monotone else 1.0 / (swap_margin(False) + 2.0)


class Draws:
    """The bucket draws of both builders: ``index(m)`` and ``coin()`` of one generator.

    ``index(m)`` is ``int(rng.integers(m))`` and ``coin()`` is
    ``rng.random()``, bit for bit, and each leaves the generator's state
    where that call leaves it.  For a ``numpy.random.Generator`` (exactly
    that type) they call its bit generator's public ``ctypes`` entry points,
    without numpy's per-call Python overhead: ``index`` is numpy's bounded
    draw for a range under 2**32, Lemire's multiply-and-reject over
    ``next_uint32`` ("Fast random integer generation in an interval", ACM
    TOMACS 2019), and ``coin`` is ``next_double``.  ``index(1)`` draws
    nothing, as numpy draws nothing for it.  Any larger range, and any
    other rng object, is drawn by the object's own ``integers`` and
    ``random``.

    The kernel keeps the generator, so the state its entry points write
    stays alive.  Unlike numpy's calls it does not take the bit generator's
    lock: no other thread may draw from the generator while a builder runs.
    """

    def __init__(self, rng):
        self.rng = rng
        if type(rng) is not np.random.Generator:
            self.index = lambda m: int(rng.integers(m))
            self.coin = rng.random
            return
        entry = rng.bit_generator.ctypes
        state, next_uint32 = entry.state, entry.next_uint32

        def index(m: int) -> int:
            if 1 < m < 0x100000000:
                x = next_uint32(state) * m
                if (x & 0xFFFFFFFF) < m:
                    # a low word under (2**32 - m) % m would bias the draw: draw again
                    threshold = (0x100000000 - m) % m
                    while (x & 0xFFFFFFFF) < threshold:
                        x = next_uint32(state) * m
                return x >> 32
            return 0 if m == 1 else int(rng.integers(m))

        self.index = index
        self.coin = functools.partial(entry.next_double, state)


@dataclass(frozen=True)
class SummaryEntry:
    """One candidate-solution insertion: element, threshold exponent, gain.

    ``gain`` is the marginal value at insertion time; for streaming summaries
    it doubles as the element's swap weight.
    """

    element: int
    exponent: int
    gain: float


@dataclass
class StreamAudit:
    """Trace of a streaming run, for invariant tooling.

    swapped_out: (element, weight) pairs kicked out of the candidate solution.
    sample_rejected: drained elements dropped by the subsampling coin.
    swap_failed: drained elements whose weight did not beat the swap margin.
    low_value: elements discarded for falling under the threshold lattice.
    weight_log: every (element, weight) assignment, in assignment order.

    A stream always keeps ``swapped_out``, which the weight checks read.
    The other four lists are filled only with ``StreamingConfig.audit``;
    without it they stay empty, and so do their lines in
    ``format_summary(include_audit=True)``, while the summary's counters
    still give their lengths.  Each drained element is given its weight
    once, when it is drained, so ``drained`` is read from ``weight_log``.
    """

    swapped_out: list[tuple[int, float]] = field(default_factory=list)
    sample_rejected: list[int] = field(default_factory=list)
    swap_failed: list[int] = field(default_factory=list)
    low_value: list[int] = field(default_factory=list)
    weight_log: list[tuple[int, float]] = field(default_factory=list)

    @property
    def drained(self) -> list[int]:
        """Every element pulled out of a bucket, in drain order."""
        return [e for e, _ in self.weight_log]


@dataclass
class Summary:
    """Deletion-robust summary: candidate solution plus reservoir.

    The candidate (``entries``) is always independent in the build matroid;
    the reservoir is the protected top-value buffer plus every leftover
    threshold bucket.

    The fields hold what a builder chose or measured.  What follows from
    them is a property: the threshold ``exponents``, and the swap margin
    ``gamma`` and coin probability ``sample_prob`` of a stream, which the
    objective class fixes (``swap_margin``, ``coin_probability``).
    """

    mode: str
    n: int
    k: int
    d: int
    epsilon: float
    monotone: bool
    seed: int
    delta: float
    entries: list[SummaryEntry]
    buckets: dict[int, list[int]]
    top_buffer: list[int]
    counters: dict[str, int]
    peak_memory: int | None = None
    audit: StreamAudit | None = None

    @property
    def exponents(self) -> list[int]:
        """Threshold exponents, descending.

        Centralized: the lattice of delta, k and epsilon that the sweep
        walks (``threshold_lattice``).  Streaming: the exponents of the
        surviving buckets.
        """
        if self.mode == "centralized":
            return list(threshold_lattice(self.delta, self.k, self.epsilon).exponents)
        return sorted(self.buckets, reverse=True)

    @property
    def gamma(self) -> float | None:
        """The stream's swap margin; None for a centralized summary."""
        return swap_margin(self.monotone) if self.mode == "streaming" else None

    @property
    def sample_prob(self) -> float | None:
        """The stream's coin probability p; None for a centralized summary."""
        return coin_probability(self.monotone) if self.mode == "streaming" else None

    @property
    def solution(self) -> list[int]:
        """Candidate-solution elements in insertion order."""
        return [entry.element for entry in self.entries]

    @property
    def solution_set(self) -> frozenset:
        return frozenset(entry.element for entry in self.entries)

    @property
    def reservoir(self) -> list[int]:
        """Sorted reservoir ids: top-value buffer plus leftover buckets."""
        ids = set(self.top_buffer)
        for bucket in self.buckets.values():
            ids.update(bucket)
        return sorted(ids)

    def size(self) -> int:
        """|candidate| + |reservoir|, deduplicated against the candidate."""
        return len(self.entries) + len(set(self.reservoir) - self.solution_set)


# ---------------------------------------------------------------------------
# line-oriented summary files


def _ids(ids) -> str:
    return ",".join(str(int(e)) for e in ids)


def format_summary(summary: Summary, include_audit: bool = False) -> str:
    lines = ["# robust-summary summary v1"]
    lines.append(f"mode={summary.mode}")
    lines.append(f"n={summary.n}")
    lines.append(f"k={summary.k}")
    lines.append(f"d={summary.d}")
    lines.append(f"epsilon={summary.epsilon!r}")
    lines.append(f"monotone={int(summary.monotone)}")
    lines.append(f"seed={summary.seed}")
    if summary.gamma is not None:
        lines.append(f"gamma={summary.gamma!r}")
    if summary.sample_prob is not None:
        lines.append(f"p={summary.sample_prob!r}")
    lines.append(f"delta={summary.delta!r}")
    lines.append("exponents=" + ",".join(str(i) for i in summary.exponents))
    for entry in summary.entries:
        lines.append(f"a={entry.element},{entry.exponent},{entry.gain!r}")
    for exp in sorted(summary.buckets, reverse=True):
        lines.append(f"bucket={exp}:{_ids(summary.buckets[exp])}")
    lines.append("vd=" + _ids(sorted(summary.top_buffer)))
    lines.append("b=" + _ids(summary.reservoir))
    if summary.peak_memory is not None:
        lines.append(f"peak_memory={summary.peak_memory}")
    lines.append(
        "counters=" + ",".join(f"{name}:{summary.counters[name]}" for name in sorted(summary.counters))
    )
    if include_audit and summary.audit is not None:
        audit = summary.audit
        lines.append("audit_drained=" + _ids(audit.drained))
        lines.append(
            "audit_swapped_out=" + ",".join(f"{e}:{w!r}" for e, w in audit.swapped_out)
        )
        lines.append("audit_sample_rejected=" + _ids(audit.sample_rejected))
        lines.append("audit_swap_failed=" + _ids(audit.swap_failed))
        lines.append("audit_low_value=" + _ids(audit.low_value))
        lines.append("weight_log=" + ",".join(f"{e}:{w!r}" for e, w in audit.weight_log))
    return "\n".join(lines) + "\n"


def write_summary(summary: Summary, path, include_audit: bool = False) -> None:
    Path(path).write_text(format_summary(summary, include_audit=include_audit), encoding="utf-8")


def _parse_pairs(key: str, text: str, limit: int | None) -> list[tuple[int, float]]:
    """The ``id:weight`` pairs of summary key ``key``; every weight must be finite."""
    text = text.strip()
    if not text:
        return []
    out = []
    for tok in text.split(","):
        parts = tok.split(":")
        if len(parts) != 2:
            raise ValueError(f"summary key {key!r}: {tok!r} is not id:weight")
        e, w = parts
        out.append((_read_id(key, e, limit), _checked(key, w, float, math.isfinite, "finite")))
    return out


# audit keys and the StreamAudit field each one fills; ``audit_drained``
# restates the ids of ``weight_log``
_AUDIT_FIELDS = {
    "audit_swapped_out": "swapped_out",
    "audit_sample_rejected": "sample_rejected",
    "audit_swap_failed": "swap_failed",
    "audit_low_value": "low_value",
    "weight_log": "weight_log",
}
_AUDIT_KEYS = ("audit_drained", *_AUDIT_FIELDS)
_PAIR_KEYS = ("audit_swapped_out", "weight_log")  # lists of id:weight pairs
_KNOWN_KEYS = {
    "mode", "n", "k", "d", "epsilon", "monotone", "seed", "gamma", "p",
    "delta", "exponents", "vd", "b", "peak_memory", "counters",
}
# keys older versions wrote, read and ignored: the scan mode and the drain order
_IGNORED_KEYS = ("bucket_mode", "drain_order")


def parse_summary(text: str) -> Summary:
    """Read a summary file's text; raises ValueError on a malformed or out-of-range line.

    Every error names its key.  The mode is centralized or streaming, an
    integer key holds an integer and a float key a number.  Ids must be
    non-negative; in a centralized summary they must also be below n.  As
    every builder writes them, k is at least 1, n, d, seed,
    peak_memory and every counter are non-negative, epsilon lies in (0, 1),
    p in (0, 1], gamma is finite and positive, monotone is 0 or 1, delta,
    every gain and every weight are finite, an ``a`` line has three fields,
    a ``bucket`` line a ``:``, a counter is ``name:count`` and a weight
    pair ``id:weight``.

    Five lines restate other lines, and each one present must be what
    format_summary writes from its source: ``b`` the reservoir of the
    ``bucket`` and ``vd`` lines, ``exponents`` the summary's exponents
    (``Summary.exponents``), ``gamma`` and ``p`` the values the mode and
    ``monotone`` fix, and ``audit_drained`` the ids of ``weight_log``.
    These are checked last, so every error above keeps its message.
    """
    fields, lists = parse_lines(text, "summary file", repeatable=("a", "bucket"))
    for key in fields:
        if key not in _KNOWN_KEYS and key not in _AUDIT_KEYS and key not in _IGNORED_KEYS:
            raise ValueError(f"unknown summary key: {key!r}")
    for required in ("mode", "n", "k", "d", "epsilon", "monotone", "seed", "delta"):
        if required not in fields:
            raise ValueError(f"summary file is missing {required!r}")
    mode = _checked("mode", fields["mode"], str, lambda m: m in MODES, "centralized or streaming")
    k = check_parameter("k", _checked("k", fields["k"], int), "summary key 'k'", fields["k"])
    d = check_parameter("d", _checked("d", fields["d"], int), "summary key 'd'", fields["d"])
    seed = _checked("seed", fields["seed"], int)
    seed = check_parameter("seed", seed, "summary key 'seed'", fields["seed"])
    epsilon = _checked("epsilon", fields["epsilon"], float)
    epsilon = check_parameter("epsilon", epsilon, "summary key 'epsilon'", fields["epsilon"])
    monotone = _checked("monotone", fields["monotone"], int, lambda m: m in (0, 1), "0 or 1")
    delta = _checked("delta", fields["delta"], float, math.isfinite, "finite")
    n = _checked("n", fields["n"], int, lambda n: n >= 0, "non-negative")
    gamma = sample_prob = peak_memory = None  # the streaming keys
    if "gamma" in fields:
        gamma = _checked("gamma", fields["gamma"], float, lambda g: 0.0 < g < math.inf, "finite and positive")
    if "p" in fields:
        sample_prob = _checked("p", fields["p"], float, lambda p: 0.0 < p <= 1.0, "in (0, 1]")
    if "peak_memory" in fields:
        peak_memory = _checked("peak_memory", fields["peak_memory"], int, lambda m: m >= 0, "non-negative")
    # a streaming n counts arrivals, and an arrival order may cover part of
    # the ground set, so streaming ids are only checked for sign
    limit = n if mode == "centralized" else None
    candidate: dict[int, SummaryEntry] = {}
    for value in lists["a"]:
        parts = value.split(",")
        if len(parts) != 3:
            raise ValueError(f"summary key 'a': {value!r} is not element,exponent,gain")
        e, exp, gain = parts
        gain = _checked("a", gain, float, math.isfinite, "finite")
        entry = SummaryEntry(_read_id("a", e, limit), _checked("a", exp, int), gain)
        once(candidate, entry.element, entry, "summary key 'a': element")
    buckets: dict[int, list[int]] = {}
    for value in lists["bucket"]:
        exp, sep, ids = value.partition(":")
        if not sep:
            raise ValueError(f"summary key 'bucket': {value!r} has no ':'")
        once(buckets, _checked("bucket", exp, int), _read_ids("bucket", ids, limit),
             "summary file: bucket exponent")
    drained = _read_ids("audit_drained", fields.get("audit_drained", ""), limit)
    audit = StreamAudit()
    for key, name in _AUDIT_FIELDS.items():
        read = _parse_pairs if key in _PAIR_KEYS else _read_ids
        setattr(audit, name, read(key, fields.get(key, ""), limit))
    counters: dict[str, int] = {}
    if fields.get("counters"):
        for tok in fields["counters"].split(","):
            name, sep, count = tok.partition(":")
            if not sep:
                raise ValueError(f"summary key 'counters': {tok!r} is not name:count")
            count = _checked("counters", count, int, lambda c: c >= 0, "non-negative")
            once(counters, name, count, "summary key 'counters': counter")
    summary = Summary(
        mode=mode,
        n=n,
        k=k,
        d=d,
        epsilon=epsilon,
        monotone=bool(monotone),
        seed=seed,
        delta=delta,
        entries=list(candidate.values()),
        buckets=buckets,
        top_buffer=_read_ids("vd", fields.get("vd", ""), limit),
        counters=counters,
        peak_memory=peak_memory,
        audit=audit if any(key in fields for key in _AUDIT_KEYS) else None,
    )
    exponents = numbers(fields.get("exponents", ""), lambda t: _checked("exponents", t, int))

    def fixed(name: str, value: float | None) -> str:
        if value is None:
            return "part of a centralized summary"
        return f"the {name} {value!r} of a stream with monotone={monotone}"

    # (key, the line's value, its source, what the source is); a source is
    # derived only for a line that is present: a centralized summary's
    # exponents build every power of its lattice, however far out it lies,
    # so a line that cannot be the lattice is refused before any is built
    restated = (
        ("b", _read_ids("b", fields.get("b", ""), limit), lambda: summary.reservoir,
         "the reservoir of the 'bucket' and 'vd' lines"),
        ("exponents", exponents, lambda: summary.exponents
         if mode == "streaming" or may_be_lattice(exponents, delta, k, epsilon) else None,
         "the threshold lattice of 'delta', 'k' and 'epsilon'" if mode == "centralized"
         else "the 'bucket' exponents, descending"),
        ("gamma", gamma, lambda: summary.gamma, fixed("swap margin", summary.gamma)),
        ("p", sample_prob, lambda: summary.sample_prob,
         fixed("coin probability", summary.sample_prob)),
        ("audit_drained", drained, lambda: audit.drained, "the ids of the 'weight_log' line"),
    )
    for key, value, source_value, source in restated:
        if key in fields and value != source_value():
            raise ValueError(f"summary key {key!r}: {fields[key]!r} is not {source}")
    return summary


def _checked(key: str, text: str, convert, ok=None, want: str = ""):
    """``convert(text)``, the value of summary key ``key``; an error unless it is ``want``.

    A text that ``convert`` (int or float) refuses is an error that names
    the key too.
    """
    try:
        value = convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"summary key {key!r} must be {kind}, got {text!r}") from None
    if ok is not None and not ok(value):
        raise ValueError(f"summary key {key!r} must be {want}, got {text!r}")
    return value


def _read_id(key: str, text: str, limit: int | None) -> int:
    """An element id of summary key ``key``: non-negative, and below ``limit`` unless None."""
    e = _checked(key, text, int)
    if e < 0 or (limit is not None and e >= limit):
        where = f"outside range [0, {limit})" if limit is not None else "is negative"
        raise ValueError(f"summary key {key!r}: element id {e} {where}")
    return e


def _read_ids(key: str, text: str, limit: int | None) -> list[int]:
    """The comma list of element ids of summary key ``key``; blank text is [].

    One ``map(int, ...)`` and one range check read a valid list; a list
    that fails either is read again id by id (``_read_id``) to word the
    error for its first bad id.
    """
    text = text.strip()
    if not text:
        return []
    try:
        ids = list(map(int, text.split(",")))
    except ValueError:
        ids = None
    if ids and min(ids) >= 0 and (limit is None or max(ids) < limit):
        return ids
    return numbers(text, lambda t: _read_id(key, t, limit))


def read_summary(path) -> Summary:
    return parse_summary(Path(path).read_text(encoding="utf-8"))
