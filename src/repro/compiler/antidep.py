"""Anti-dependence (WAR) analysis over idempotent-region candidates.

One scan walks the kernel in reverse post-order, carrying a region
state (memory reads/writes since the last boundary, register versions,
registers read/written) across single-predecessor block edges.  It
reports:

* memory WAR violations — stores that may alias a location read earlier
  in the same region without an earlier covering write (the WARAW
  exception, Section II-C) -> these become region boundary cuts;
* register/predicate WAR violations -> these are fixed by renaming
  (Figure 3a) or circumvented by checkpointing (Figure 3b).

Aliasing uses (a) pointer provenance — addresses derived from different
kernel pointer parameters reference disjoint allocations — and (b)
base+offset reasoning: same base register version with different
constant offsets cannot alias.

The scan runs segment by segment.  A *segment* is a run of one basic
block that ends at an RB marker (or at the block's end).  An RB starts
the region afresh — its accesses and its address versions, which are
region-local — so a segment after an RB scans from the empty state.  A
:class:`SegmentTable` keeps each segment's result, keyed by the
segment's instruction objects and its entry state, for the length of
one region formation: after a rename, a cut or a compaction merge only
the segments whose instructions or entry state changed are scanned
again.  Each memory instruction's base-pointer provenance is computed
once per table and carried to the instructions that edits put in its
place (an edit renames registers, it never changes a value's origin).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..isa import Cfg, Instruction, Kernel, Op, Pred, Reg, Space
from .dataflow import BOTTOM, ParamOrigin, Provenance

#: Cap on tracked locations per region; beyond it the analysis cuts,
#: which is always sound (hardware RBQ pressure grows, correctness kept).
MAX_TRACKED_LOCS = 256


@dataclass(frozen=True)
class MemLoc:
    """An abstract memory location: space + provenance + base reg version
    + constant offset."""

    space: Space
    prov: ParamOrigin | None
    base: Reg
    version: int
    offset: int

    def may_alias(self, other: "MemLoc") -> bool:
        if self.space is not other.space:
            return False
        if (self.prov is not None and other.prov is not None
                and self.prov != other.prov):
            return False
        if self.base == other.base and self.version == other.version:
            return self.offset == other.offset
        return True

    def same_location(self, other: "MemLoc") -> bool:
        """Provably the exact same address (for WARAW covering)."""
        return (self.space is other.space and self.base == other.base
                and self.version == other.version
                and self.offset == other.offset)


@dataclass
class RegionState:
    """Accumulated reads/writes since the current region's start."""

    mem_reads: list[MemLoc] = field(default_factory=list)
    mem_writes: list[MemLoc] = field(default_factory=list)
    reg_reads: set = field(default_factory=set)
    reg_writes: set = field(default_factory=set)
    guarded_writes: set = field(default_factory=set)
    versions: dict[Reg, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Start a new region at a memory cut.  Versions survive: the
        cut store's location was taken before the cut, and later
        accesses must keep comparing against it."""
        self.mem_reads.clear()
        self.mem_writes.clear()
        self.reg_reads.clear()
        self.reg_writes.clear()
        self.guarded_writes.clear()

    def copy(self) -> "RegionState":
        state = RegionState()
        state.mem_reads = list(self.mem_reads)
        state.mem_writes = list(self.mem_writes)
        state.reg_reads = set(self.reg_reads)
        state.reg_writes = set(self.reg_writes)
        state.guarded_writes = set(self.guarded_writes)
        state.versions = dict(self.versions)
        return state


@dataclass
class ScanResult:
    """Violations found by one analysis pass."""

    mem_cuts: list[int] = field(default_factory=list)
    reg_wars: list[tuple[int, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mem_cuts and not self.reg_wars


def structural_boundaries(cfg: Cfg) -> set[int]:
    """Instruction indices needing a boundary for structural reasons:
    control-flow merge points and loop headers (so no dynamic region
    wraps around a back edge or joins differing histories)."""
    points = set()
    for b in cfg.merge_blocks() | cfg.loop_headers():
        points.add(cfg.blocks[b].start)
    return points


def scan_kernel(kernel: Kernel, cfg: Cfg | None = None,
                prov: Provenance | None = None,
                use_provenance: bool = True) -> ScanResult:
    """One WAR-analysis pass.  RB instructions already present in the
    kernel act as region resets; the result lists the *additional*
    cuts/renames needed.

    ``use_provenance=False`` disables pointer-provenance disambiguation
    (every cross-base access pair may alias) — the ablation knob that
    quantifies how much the provenance analysis buys.
    """
    cfg = cfg or Cfg(kernel)
    return SegmentTable(kernel, cfg, prov, use_provenance).scan(kernel, cfg)


def _is_addressed(inst: Instruction) -> bool:
    info = inst.info
    return ((info.is_load and inst.space is not Space.PARAM)
            or info.is_store or info.is_atomic)


def _base_origins(kernel: Kernel, cfg: Cfg,
                  prov: Provenance) -> dict[int, tuple]:
    """``id(inst) -> (inst, ParamOrigin)`` for every memory instruction
    whose base register provably derives from a pointer parameter.  An
    instruction object met twice with differing origins gets none."""
    found: dict[int, tuple] = {}
    for block in cfg.blocks:
        state = dict(prov.block_in[block.index])
        for i in range(block.start, block.end):
            inst = kernel.instructions[i]
            if _is_addressed(inst) and isinstance(inst.srcs[0], Reg):
                origin = state.get(inst.srcs[0], BOTTOM)
                if found.setdefault(id(inst), (inst, origin))[1] != origin:
                    found[id(inst)] = (inst, BOTTOM)
            Provenance.transfer_inst(inst, state)
    return {key: held for key, held in found.items()
            if isinstance(held[1], ParamOrigin)}


@dataclass
class _Segment:
    """One segment's scan: cut and WAR offsets within the segment, and
    the state it leaves (None after an RB: the next region starts
    empty).  ``insts`` and ``entry`` keep alive the objects whose ids
    form the table key."""

    insts: list[Instruction]
    entry: RegionState | None
    cuts: list[int]
    wars: list[tuple[int, object]]
    exit: RegionState | None


class SegmentTable:
    """Per-segment scan results for one region formation.

    :meth:`scan` answers exactly what one whole-kernel pass would, but
    scans only the segments it has not seen; :meth:`retain` and
    :meth:`forget` bound the table by the live segments.  An edit puts
    new instruction objects in place of old ones and reports each with
    :meth:`carry`, so that the new one keeps the old one's base-pointer
    provenance.
    """

    def __init__(self, kernel: Kernel, cfg: Cfg,
                 prov: Provenance | None = None,
                 use_provenance: bool = True) -> None:
        self.use_provenance = use_provenance
        self._origins = (_base_origins(kernel, cfg, prov or Provenance(cfg))
                         if use_provenance else {})
        self._entries: dict[tuple, _Segment] = {}
        self._used: dict[tuple, _Segment] = {}
        self._created: list[tuple] = []
        self._layout_of: tuple[Cfg, list] | None = None

    def carry(self, old: Instruction, new: Instruction) -> None:
        """``new`` takes ``old``'s place: give it ``old``'s provenance."""
        held = self._origins.get(id(old))
        if held is not None:
            self._origins[id(new)] = (new, held[1])

    def retain(self) -> None:
        """Drop every entry the last scan did not use: its kernel is the
        one the next edit starts from."""
        self._entries = self._used

    def forget(self) -> None:
        """Drop the entries the last scan created: its kernel was a
        rejected candidate."""
        for key in self._created:
            self._entries.pop(key, None)

    def scan(self, kernel: Kernel, cfg: Cfg) -> ScanResult:
        """The WAR scan of ``kernel``.  ``cfg`` is the CFG of ``kernel``
        or of a kernel that differs from it in operands only (same
        blocks, same RB markers)."""
        insts = kernel.instructions
        result = ScanResult()
        self._used = {}
        self._created = []
        block_exit: dict[int, RegionState | None] = {}
        for block, segments in self._layout(cfg):
            preds = block.preds
            state = (block_exit[preds[0]]
                     if block.index != 0 and len(preds) == 1
                     and preds[0] in block_exit else None)
            for start, stop in segments:
                segment = self._segment(insts, start, stop, state)
                result.mem_cuts.extend(start + cut for cut in segment.cuts)
                result.reg_wars.extend((start + offset, var)
                                       for offset, var in segment.wars)
                state = segment.exit
            block_exit[block.index] = state
        return result

    def _layout(self, cfg: Cfg) -> list:
        """Reachable blocks in reverse post-order, each with its segments'
        ``(start, stop)`` bounds (computed once per CFG)."""
        if self._layout_of is None or self._layout_of[0] is not cfg:
            ends = [i + 1 for i, inst in enumerate(cfg.kernel.instructions)
                    if inst.op is Op.RB]
            layout = []
            for b in cfg.rpo():
                block = cfg.blocks[b]
                segments = []
                start = block.start
                k = bisect_right(ends, start)
                while start < block.end:
                    stop = block.end
                    if k < len(ends) and ends[k] < stop:
                        stop = ends[k]
                        k += 1
                    segments.append((start, stop))
                    start = stop
                layout.append((block, segments))
            self._layout_of = (cfg, layout)
        return self._layout_of[1]

    def _segment(self, insts: list[Instruction], start: int, stop: int,
                 entry: RegionState | None) -> _Segment:
        members = insts[start:stop]
        key = (id(entry), *map(id, members))
        segment = self._entries.get(key)
        if segment is None:
            segment = self._scan_segment(members, entry)
            self._entries[key] = segment
            self._created.append(key)
        self._used[key] = segment
        return segment

    def _scan_segment(self, members: list[Instruction],
                      entry: RegionState | None) -> _Segment:
        state = entry.copy() if entry is not None else RegionState()
        found = ScanResult()
        origins = self._origins
        for offset, inst in enumerate(members):
            held = origins.get(id(inst))
            _scan_instruction(inst, offset, state,
                              held[1] if held is not None else None, found)
        exit = None if members[-1].op is Op.RB else state
        return _Segment(members, entry, found.mem_cuts, found.reg_wars, exit)


def _loc_for(inst: Instruction, state: RegionState,
             origin: ParamOrigin | None) -> MemLoc | None:
    base = inst.srcs[0]
    if not isinstance(base, Reg):
        return None
    return MemLoc(space=inst.space, prov=origin, base=base,
                  version=state.versions.get(base, 0), offset=inst.offset)


def _scan_instruction(inst: Instruction, index: int, state: RegionState,
                      origin: ParamOrigin | None, result: ScanResult) -> None:
    op = inst.op
    # RB ends its segment (the next one starts empty); an un-cut barrier
    # (extension optimization) continues the region with nothing to track.
    if op is Op.RB or op is Op.BRA or op is Op.EXIT or op is Op.BAR:
        return

    info = inst.info
    if info.is_load and inst.space is not Space.PARAM:
        loc = _loc_for(inst, state, origin)
        if loc is not None and len(state.mem_reads) < MAX_TRACKED_LOCS:
            state.mem_reads.append(loc)
    elif info.is_store or info.is_atomic:
        loc = _loc_for(inst, state, origin)
        covered = loc is not None and inst.guard is None and any(
            loc.same_location(w) for w in state.mem_writes)
        if not covered:
            hazard = loc is None or any(
                loc.may_alias(r) for r in state.mem_reads)
            if hazard:
                result.mem_cuts.append(index)
                state.reset()
        # Only an unguarded store fully covers its location for the
        # WARAW exception; a predicated store may not execute.
        if (loc is not None and inst.guard is None
                and len(state.mem_writes) < MAX_TRACKED_LOCS):
            state.mem_writes.append(loc)
        if info.is_atomic:
            # The atomic also reads its location.
            if loc is not None and len(state.mem_reads) < MAX_TRACKED_LOCS:
                state.mem_reads.append(loc)

    # Register/predicate WARs.  A guarded write is a partial definition:
    # it destroys the region input in true lanes (so it is a WAR if the
    # register was read) but also *keeps reading* the old value in false
    # lanes, so it never covers later writes.  Which lanes it writes is
    # itself a region input once its guard was written in the region: a
    # strike before the guard's definition can steer the write into
    # lanes whose old value re-execution needs.  So a guarded write under
    # an in-region guard is a WAR too; renaming refuses guarded
    # definitions, and the cut in front of it makes the guard an input.
    reads = state.reg_reads
    for var in inst.srcs:
        if isinstance(var, (Reg, Pred)):
            reads.add(var)
    guard = inst.guard
    if guard is not None:
        reads.add(guard)
    dst = inst.dst
    if dst is not None:
        if dst not in state.reg_writes and (
                dst in reads
                or (guard is not None and (guard in state.reg_writes
                                           or guard in state.guarded_writes))):
            result.reg_wars.append((index, dst))
        if guard is None:
            state.reg_writes.add(dst)
        else:
            reads.add(dst)
            state.guarded_writes.add(dst)
        if isinstance(dst, Reg):
            state.versions[dst] = state.versions.get(dst, 0) + 1
