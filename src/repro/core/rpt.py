"""Recovery PC Table (Section III-D1).

One entry per warp, holding the warp's recovery context: the beginning
of its youngest *verified*-boundary-delimited region (initially the
kernel entry).  On error detection every warp's PC is reset from its
RPT entry.  In hardware each entry is a PC (32 bits x 32 warps =
1024 bits per scheduler, Section VI-A2); our model additionally carries
the SIMT-stack/barrier-counter snapshot that hardware keeps alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..sim import Warp, WarpSnapshot


@dataclass
class RecoveryPcTable:
    """Per-warp recovery contexts.

    ``hardened`` models the paper's assumption that the table (1 Kbit
    per scheduler) is parity/ECC-protected like the hardened AGUs of
    the Section IV discussion: a strike on a hardened table is absorbed.
    Disabling hardening exposes the table to the fault injector's
    ``rpt`` site — a corrupted entry silently redirects the next
    rollback, which the architectural sanitizer's region-start invariant
    is designed to catch.
    """

    hardened: bool = True
    entries: dict[int, "WarpSnapshot"] = field(default_factory=dict)
    #: Bumped by every method that writes :attr:`entries`, so the
    #: sanitizer re-verifies the table only after it changed.  A
    #: counter, not table state: equality ignores it.
    changes: int = field(default=0, compare=False, repr=False)

    def register_warp(self, warp: "Warp") -> None:
        """Initialize a warp's recovery PC to its current (entry) state."""
        from ..sim import WarpSnapshot

        self.entries[warp.id] = WarpSnapshot.capture(warp)
        self.changes += 1

    def update(self, warp: "Warp", snapshot: "WarpSnapshot") -> None:
        """A region boundary verified: advance the warp's recovery PC."""
        self.entries[warp.id] = snapshot
        self.changes += 1

    def recover(self, warp: "Warp") -> None:
        """Reset the warp to its most recent verified region start."""
        self.entries[warp.id].restore(warp)

    def drop(self, warp: "Warp") -> None:
        self.entries.pop(warp.id, None)
        self.changes += 1

    # -- checkpoint support --------------------------------------------
    def capture_state(self) -> dict:
        return {wid: snap.to_state() for wid, snap in self.entries.items()}

    def restore_state(self, state: dict) -> None:
        from ..sim import WarpSnapshot

        self.entries = {wid: WarpSnapshot.from_state(data)
                        for wid, data in state.items()}
        self.changes += 1

    def storage_bits(self, max_warps: int = 32, pc_bits: int = 32) -> int:
        """Hardware cost of the PC portion (Section VI-A2)."""
        return max_warps * pc_bits
