"""A fixed reference computation that times how fast the host runs right now.

The benchmark runs it before and after every untraced repetition and gives
the pipeline's times as multiples of the mean of the two.  Other tenants of a
shared host slow a process by tens of percent for stretches of seconds to
minutes; the reference slows with them, so the ratio keeps what the program
costs and drops most of how busy the host was.

The work is interpreter work of the kind the library does: building tuples,
frozensets and a dictionary of some megabytes, sorting by a key function, and
frozenset unions and differences.  On a shared 2-core host this tracked the
pipeline's speed more closely than pure arithmetic loops or numpy calls on
small arrays did.  It uses nothing from the library, so a change to the
library moves the ratio, never the reference.
"""

from __future__ import annotations

_KEYS = [(i * 2654435761) % 1000003 for i in range(20000)]
_BASES = [frozenset(range(j, j + 40, 2)) for j in range(300)]


def reference_work() -> int:
    """Run the fixed computation once; returns a checksum that never changes."""
    table = {}
    for i, k in enumerate(_KEYS):
        table[k] = (i, frozenset((k % 97, k % 89)))
    ranked = sorted(table.items(), key=lambda item: item[1][0] % 1013)
    acc = len(ranked) + sum(len(pair) for _, (_, pair) in ranked[:1000])
    for _ in range(30):
        for a, b in zip(_BASES, _BASES[1:]):
            union = a | b
            acc += len(union - a) + len(frozenset(x for x in union if x % 3))
    return acc


CHECKSUM = reference_work()
