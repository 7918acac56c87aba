"""Element-id validation and the per-solution memo shared by the objective and matroid oracles."""

from __future__ import annotations

from typing import Iterable

Ids = Iterable[int]


class GroundSet:
    """An oracle over the ground set 0..n-1; ids are validated at each call.

    The one exception is the predicate ``Matroid.fits_to(S)`` hands out:
    S is validated once, when it is fetched, and the ids it is asked about
    must already be known to be valid, as a builder's filed elements and
    the greedy's heap entries are.

    ``_memo`` is a one-slot memo ``(S, ...)`` of the last solution S the
    oracle was asked about, filled by ``_remember(S)``.  It is replaced whole,
    never changed in place, so a copy of the oracle may share it.

    A frozenset of plain ints is validated as it is and kept as the memo key
    itself, so a caller that passes the very same frozenset again, as the
    builders and the greedy do while their solution is unchanged, skips both
    the validation and the key comparison: a frozenset cannot change, so
    being the key means it was validated already.
    """

    n: int
    _memo: tuple | None = None

    def _check_id(self, e) -> int:
        e = int(e)
        if not 0 <= e < self.n:
            raise ValueError(f"element id {e} outside range [0, {self.n})")
        return e

    def _as_set(self, ids: Ids) -> frozenset:
        memo = self._memo
        if memo is not None and ids is memo[0]:
            return ids
        if type(ids) is frozenset and {*map(type, ids)} <= {int}:
            s = ids  # bools and numpy ints are converted below, as in a list
        else:
            s = frozenset(map(int, ids))
        if s:
            low, high = min(s), max(s)
            if low < 0 or high >= self.n:
                self._check_id(low if low < 0 else high)  # raises
        return s

    def _check_ids(self, ids: list[int]) -> None:
        """Raise for the first id of ``ids`` outside the ground set, if any."""
        if ids and (min(ids) < 0 or max(ids) >= self.n):
            for e in ids:
                self._check_id(e)

    def _remembered(self, s: frozenset) -> tuple:
        """The memo ``(s, *self._remember(s))``, rebuilt only when s differs from its key."""
        memo = self._memo
        if memo is None or (memo[0] is not s and memo[0] != s):
            memo = self._memo = (s, *self._remember(s))
        return memo

    def _remember(self, s: frozenset) -> tuple:
        """What the memo keeps of s besides s itself; never modified after it is made."""
        raise NotImplementedError
