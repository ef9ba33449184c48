"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..isa import FuClass

#: Stall causes, highest attribution priority first.  When several causes
#: apply to an idle SM cycle the earliest entry wins, so the ledger is a
#: partition of idle cycles (conservation: issue + stalls == active cycles).
STALL_CAUSES = (
    "rollback",        # re-execution window after a detected error
    "rbq_full",        # region boundary blocked on a full RBQ conveyor
    "memory_latency",  # scoreboard wait whose producer is an in-flight load
    "scoreboard_raw",  # scoreboard wait on an ALU/SFU producer (RAW)
    "barrier",         # all resident warps waiting at a CTA barrier
    "reconvergence",   # SIMT divergence bookkeeping (structurally 0 in
                       # this stack model: reconvergence is same-cycle)
    "verify_wait",     # warp parked in RBQ awaiting region verification
    "verify_dmr",      # warp parked for a DMR compare at a region end
    "abft_check",      # warp parked for an ABFT checksum verification
    "no_ready_warp",   # nothing else blocks, scheduler found no candidate
)

#: ``SimStats.by_fu`` slot order: each functional-unit class counts in
#: the slot of its position here.  Plan records carry their slot
#: (``PlannedInst.fu_slot``), so an issue bumps a list entry instead of
#: hashing an enum member.
FU_CLASSES = tuple(FuClass)

#: Counters that take the max rather than the sum when merging per-SM
#: blocks into a per-GPU block: wall-clock cycles are shared, and the
#: launch-shape policy numbers describe the kernel, not one SM.
_MERGE_MAX = ("cycles", "occupancy_warps", "regs_per_thread")


@dataclass
class SimStats:
    """Counters accumulated over one kernel launch."""

    cycles: int = 0
    instructions: int = 0
    shadow_instructions: int = 0
    ckpt_instructions: int = 0
    boundary_instructions: int = 0
    #: Issued instructions per functional-unit class, indexed by the
    #: class's position in :data:`FU_CLASSES`.
    by_fu: list = field(default_factory=lambda: [0] * len(FU_CLASSES))
    idle_cycles: int = 0
    issue_cycles: int = 0
    #: Cycles this SM had at least one resident block (issue + idle).
    active_cycles: int = 0
    #: Idle cycles partitioned by cause (keys drawn from STALL_CAUSES).
    stall_cycles: dict = field(default_factory=dict)
    #: Per-warp view of the same ledger: warp id -> {cause: cycles}.
    #: SM-level causes with no single culprit warp book under id -1.
    warp_stalls: dict = field(default_factory=dict)
    # Memory system.
    global_transactions: int = 0
    shared_accesses: int = 0
    shared_bank_conflicts: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    atomic_ops: int = 0
    # Flame runtime.
    rbq_enqueues: int = 0
    rbq_full_stalls: int = 0
    verified_regions: int = 0
    region_instructions: int = 0
    recoveries: int = 0
    coalesced_recoveries: int = 0
    detected_errors: int = 0
    # Competitor runtimes (repro.core.competitors).
    dmr_compares: int = 0
    partial_protected_regions: int = 0
    partial_unprotected_regions: int = 0
    abft_checks: int = 0
    abft_corrections: int = 0
    # Always zero / empty; kept only because ``perfbench/benchlib/
    # spans.py`` (``_describe_launch``) reads them on traced launches.
    superblock_insts: int = 0
    superblock_fallbacks: dict = field(default_factory=dict)
    mem_window_insts: int = 0
    # Launch shape.
    blocks_launched: int = 0
    warps_launched: int = 0
    occupancy_warps: int = 0
    regs_per_thread: int = 0

    def count_stall(self, cause: str, warp_id: int, cycles: int = 1) -> None:
        """Book ``cycles`` idle cycles against ``cause`` (and the warp
        that best represents it; -1 when no single warp is to blame)."""
        self.stall_cycles[cause] = self.stall_cycles.get(cause, 0) + cycles
        ledger = self.warp_stalls.setdefault(warp_id, {})
        ledger[cause] = ledger.get(cause, 0) + cycles

    @property
    def avg_region_size(self) -> float:
        """Average dynamic instructions per verified idempotent region."""
        if not self.verified_regions:
            return 0.0
        return self.region_instructions / self.verified_regions

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    def merge(self, other: "SimStats") -> None:
        """Accumulate another stats block (e.g. per-SM into per-GPU).

        Driven by the dataclass field list so a new counter cannot be
        silently dropped: every field is either summed, maxed, dict-merged,
        or summed slot-wise — exactly once.
        """
        for f in fields(self):
            name = f.name
            if name == "by_fu":
                self.by_fu = [a + b for a, b in zip(self.by_fu, other.by_fu)]
            elif name in _MERGE_MAX:
                setattr(self, name, max(getattr(self, name),
                                        getattr(other, name)))
            elif name in _MERGE_DICT:
                _merge_dict(getattr(self, name), getattr(other, name))
            else:
                setattr(self, name,
                        getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "by_fu":
                value = {fu.value: n for fu, n in zip(FU_CLASSES, value)
                         if n}
            elif f.name == "warp_stalls":
                value = {wid: dict(ledger) for wid, ledger in value.items()}
            elif f.name in _MERGE_DICT:
                value = dict(value)
            data[f.name] = value
        data["avg_region_size"] = self.avg_region_size
        data["ipc"] = self.ipc
        return data

    def clone(self) -> "SimStats":
        """Independent deep copy (checkpoint/restore support)."""
        dup = SimStats()
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "by_fu":
                value = list(value)
            elif f.name == "warp_stalls":
                value = {wid: dict(ledger) for wid, ledger in value.items()}
            elif f.name in _MERGE_DICT:
                value = dict(value)
            setattr(dup, f.name, value)
        return dup


#: Dict-valued counters, deep-merged key-wise.
_MERGE_DICT = tuple(f.name for f in fields(SimStats)
                    if f.default_factory is dict)


def _merge_dict(into: dict, other: dict) -> None:
    """Recursive key-wise sum of (possibly nested) int-valued dicts."""
    for key, value in other.items():
        if isinstance(value, dict):
            _merge_dict(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value
