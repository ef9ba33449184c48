"""Warp schedulers: GTO, LRR, OLD, and Two-Level (Section VI-B3).

A scheduler instance manages the warps of one issue slot of an SM.  Each
cycle the SM asks it to pick one issuable warp from the candidates
(warps that are ACTIVE with ready operands and no structural hazard);
the policies only differ in the order candidates are considered.
"""

from __future__ import annotations

from bisect import insort

from ..errors import ConfigError
from .warp import Warp

#: Sort key for age-ordered schedulers.
_BY_AGE = lambda w: w.age  # noqa: E731


class WarpScheduler:
    """Base scheduler; subclasses define the candidate ordering."""

    name = "base"

    #: Failed-pick memo (fast path only): after a pick returns None,
    #: ``Sm.tick`` records the earliest cycle any managed warp could
    #: become issuable plus a validation stamp (sum of warp versions and
    #: the SM's LSU horizon); until then a re-pick provably fails too,
    #: so it is skipped.  Only valid for policies whose failed pick has
    #: no side effects (``pick_pure_on_fail``) — Two-Level demotes
    #: stalled warps on failure and must re-run every cycle.  Derived
    #: state, deliberately absent from capture/restore.
    none_until = -1
    none_vstamp = -1
    none_lsu = -1
    pick_pure_on_fail = True

    def __init__(self) -> None:
        self.warps: list[Warp] = []

    def attach(self, warp: Warp) -> None:
        self.warps.append(warp)
        self.none_until = -1

    def detach(self, warp: Warp) -> None:
        self.warps.remove(warp)
        self.none_until = -1

    def pick(self, issuable, cycle: int) -> Warp | None:
        """Choose a warp among this scheduler's warps.

        ``issuable(warp, cycle)`` tells whether a warp can issue this
        cycle (two-argument so the SM can pass a bound method directly
        instead of allocating a closure every tick).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Plain-data policy state: the managed warps (by id, in list
        order — the order *is* scheduler state) plus policy extras."""
        return {"warps": tuple(w.id for w in self.warps),
                "extra": self._extra_state()}

    def restore_state(self, state: dict, warp_map: dict[int, Warp]) -> None:
        self.none_until = -1
        self.warps = [warp_map[wid] for wid in state["warps"]]
        for warp in self.warps:
            warp.scheduler = self
        self._restore_extra(state["extra"], warp_map)

    def state_equals(self, state: dict) -> bool:
        """Exact equality against a :meth:`capture_state` snapshot
        (policy extras are plain scalars/tuples on every policy)."""
        return (tuple(w.id for w in self.warps) == state["warps"]
                and self._extra_state() == state["extra"])

    def _extra_state(self):
        return None

    def _restore_extra(self, extra, warp_map: dict[int, Warp]) -> None:
        pass


class AgeSortedScheduler(WarpScheduler):
    """Base for policies that consider warps oldest-first: keeps
    ``self.warps`` age-sorted at attach time (ages are unique and
    ``insort`` places equal keys last, matching a stable sort) so
    ``pick`` iterates directly instead of re-sorting every cycle."""

    def attach(self, warp: Warp) -> None:
        insort(self.warps, warp, key=_BY_AGE)
        self.none_until = -1


class GtoScheduler(AgeSortedScheduler):
    """Greedy-Then-Oldest: stick with the current warp until it stalls,
    then switch to the oldest ready warp (GPGPU-Sim's default)."""

    name = "GTO"

    def __init__(self) -> None:
        super().__init__()
        self._current: Warp | None = None

    def detach(self, warp: Warp) -> None:
        super().detach(warp)
        if self._current is warp:
            self._current = None

    def pick(self, issuable, cycle: int) -> Warp | None:
        current = self._current
        if (current is not None and current in self.warps
                and issuable(current, cycle)):
            return current
        for warp in self.warps:
            if issuable(warp, cycle):
                self._current = warp
                return warp
        self._current = None
        return None

    def _extra_state(self):
        return None if self._current is None else self._current.id

    def _restore_extra(self, extra, warp_map) -> None:
        self._current = None if extra is None else warp_map[extra]


class OldestScheduler(AgeSortedScheduler):
    """OLD: always pick the oldest ready warp."""

    name = "OLD"

    def pick(self, issuable, cycle: int) -> Warp | None:
        for warp in self.warps:
            if issuable(warp, cycle):
                return warp
        return None


class LrrScheduler(WarpScheduler):
    """Loose Round-Robin: rotate through warps, skipping stalled ones."""

    name = "LRR"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def pick(self, issuable, cycle: int) -> Warp | None:
        n = len(self.warps)
        if not n:
            return None
        for step in range(n):
            warp = self.warps[(self._next + step) % n]
            if issuable(warp, cycle):
                self._next = (self._next + step + 1) % n
                return warp
        return None

    def _extra_state(self):
        return self._next

    def _restore_extra(self, extra, warp_map) -> None:
        self._next = extra


class TwoLevelScheduler(WarpScheduler):
    """Two-Level: keep a small active set scheduled LRR; when an active
    warp stalls long-term it swaps with a pending warp."""

    name = "2LV"
    pick_pure_on_fail = False

    def __init__(self, active_size: int = 8) -> None:
        super().__init__()
        if active_size < 1:
            raise ConfigError("active set must hold at least one warp")
        self.active_size = active_size
        self._active: list[Warp] = []
        self._next = 0

    def detach(self, warp: Warp) -> None:
        super().detach(warp)
        if warp in self._active:
            self._active.remove(warp)

    def _refill(self, issuable, cycle: int) -> None:
        if len(self._active) >= min(self.active_size, len(self.warps)):
            return
        pending = [w for w in self.warps if w not in self._active]
        pending.sort(key=lambda w: w.age)
        # Prefer ready pending warps; fall back to any to keep the set full.
        for wanted_ready in (True, False):
            for warp in pending:
                if len(self._active) >= self.active_size:
                    return
                if warp in self._active:
                    continue
                if wanted_ready and not issuable(warp, cycle):
                    continue
                self._active.append(warp)

    def pick(self, issuable, cycle: int) -> Warp | None:
        self._refill(issuable, cycle)
        n = len(self._active)
        for step in range(n):
            warp = self._active[(self._next + step) % n]
            if issuable(warp, cycle):
                self._next = (self._next + step + 1) % n
                return warp
        # Whole active set stalled: demote stalled warps so the next
        # refill can promote pending ready ones.
        stalled = [w for w in self._active if not issuable(w, cycle)]
        pending_ready = [w for w in self.warps
                         if w not in self._active and issuable(w, cycle)]
        for warp, replacement in zip(stalled, pending_ready):
            self._active.remove(warp)
            self._active.append(replacement)
        if pending_ready:
            return self.pick(
                lambda w, c: issuable(w, c) and w in self._active, cycle)
        return None

    def _extra_state(self):
        return (tuple(w.id for w in self._active), self._next)

    def _restore_extra(self, extra, warp_map) -> None:
        active, self._next = extra
        self._active = [warp_map[wid] for wid in active]


SCHEDULERS: dict[str, type[WarpScheduler]] = {
    "GTO": GtoScheduler,
    "OLD": OldestScheduler,
    "LRR": LrrScheduler,
    "2LV": TwoLevelScheduler,
}


def make_scheduler(name: str) -> WarpScheduler:
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
