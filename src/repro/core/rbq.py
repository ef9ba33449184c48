"""Region Boundary Queue — the verification conveyor (Section III-D2).

One RBQ per warp scheduler, WCDL entries long.  A warp hitting a region
boundary is enqueued and descheduled; the conveyor advances one entry
per cycle, so an entry pops — verified — exactly WCDL cycles after it
was pushed, provided no error was detected in between.  On detection the
whole queue is flushed (every in-flight verification is invalidated).

Hardware cost: each entry is a warp id plus a valid bit (6 bits for 32
warps per scheduler), i.e. WCDL x 6 bits per scheduler — Section VI-A2's
120 bits for the default 20-cycle WCDL.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:
    from ..sim import Warp, WarpSnapshot


class RbqEntry:
    """One parked region: the warp awaiting verification and the
    recovery context its RPT entry receives once the region verifies.

    ``ready_at`` is the cycle a runtime-timed check completes (compare
    schemes); a conveyor entry instead pops WCDL cycles after
    ``enqueued_at``.  Deliberately a plain class (identity comparison):
    entries are held in lists that must treat membership as *this*
    entry, never a field-equal twin captured after a rollback.
    """

    __slots__ = ("warp", "snapshot", "enqueued_at", "final", "ready_at")

    def __init__(self, warp: "Warp", snapshot: "WarpSnapshot",
                 enqueued_at: int, final: bool = False,
                 ready_at: int | None = None) -> None:
        self.warp = warp
        self.snapshot = snapshot
        self.enqueued_at = enqueued_at
        self.final = final       # verification of the warp's last region
        self.ready_at = ready_at

    def to_state(self) -> tuple:
        """Plain data: the warp becomes its id, the snapshot its
        :meth:`WarpSnapshot.to_state` tuple."""
        return (self.warp.id, self.snapshot.to_state(), self.enqueued_at,
                self.final, self.ready_at)

    @classmethod
    def from_state(cls, state: tuple, warp_map: dict) -> "RbqEntry":
        from ..sim import WarpSnapshot

        wid, snapshot, enqueued_at, final, ready_at = state
        return cls(warp_map[wid], WarpSnapshot.from_state(snapshot),
                   enqueued_at, final, ready_at)


@dataclass
class RegionBoundaryQueue:
    """The verification conveyor of one warp scheduler.

    ``hardened`` models the paper's assumption that Flame's own tiny
    structures are protected (parity/ECC, like the hardened AGUs of the
    Section IV discussion): a particle strike on a hardened conveyor is
    absorbed rather than corrupting an in-flight verification.  The
    fault injector's ``rbq`` site consults this flag.
    """

    wcdl: int
    hardened: bool = True
    _entries: deque = field(default_factory=deque)
    _last_enqueue_cycle: int = -1

    def __post_init__(self) -> None:
        if self.wcdl < 1:
            raise ConfigError("WCDL must be at least one cycle")

    def can_enqueue(self, cycle: int) -> bool:
        """One enqueue per cycle (the conveyor moves one slot per cycle)."""
        return cycle > self._last_enqueue_cycle

    def enqueue(self, entry: RbqEntry, cycle: int) -> None:
        assert self.can_enqueue(cycle), "RBQ accepts one entry per cycle"
        self._last_enqueue_cycle = cycle
        entry.enqueued_at = cycle
        self._entries.append(entry)

    def pop_verified(self, cycle: int) -> RbqEntry | None:
        """Pop the head entry if it has ridden the conveyor for WCDL."""
        if self._entries and cycle - self._entries[0].enqueued_at >= self.wcdl:
            return self._entries.popleft()
        return None

    def flush(self) -> list[RbqEntry]:
        """Discard all in-flight verifications (error detected)."""
        flushed = list(self._entries)
        self._entries.clear()
        return flushed

    def next_pop_cycle(self) -> int | None:
        if not self._entries:
            return None
        return self._entries[0].enqueued_at + self.wcdl

    def __len__(self) -> int:
        return len(self._entries)

    # -- checkpoint support --------------------------------------------
    def capture_state(self) -> tuple:
        """Plain-data conveyor state (see :meth:`RbqEntry.to_state`)."""
        return (self._last_enqueue_cycle,
                tuple(e.to_state() for e in self._entries))

    def restore_state(self, state: tuple, warp_map: dict) -> None:
        self._last_enqueue_cycle, entries = state
        self._entries = deque(RbqEntry.from_state(e, warp_map)
                              for e in entries)

    @property
    def storage_bits(self) -> int:
        """Hardware cost: WCDL entries x (5-bit warp id + valid)."""
        return self.wcdl * 6
