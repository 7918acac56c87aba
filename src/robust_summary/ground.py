"""Element-id validation shared by the objective and matroid oracles."""

from __future__ import annotations

from typing import Iterable

Ids = Iterable[int]


class GroundSet:
    """An oracle over the ground set 0..n-1; ids are validated at each call."""

    n: int

    def _check_id(self, e) -> int:
        e = int(e)
        if not 0 <= e < self.n:
            raise ValueError(f"element id {e} outside range [0, {self.n})")
        return e

    def _as_set(self, ids: Ids) -> frozenset:
        s = frozenset(map(int, ids))
        if s:
            low, high = min(s), max(s)
            if low < 0 or high >= self.n:
                self._check_id(low if low < 0 else high)  # raises
        return s
