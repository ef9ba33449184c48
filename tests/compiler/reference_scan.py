"""The whole-kernel WAR scan, kept beside the tests as a reference.

This is the anti-dependence scan as one loop over every reachable
instruction: a fresh ``Provenance`` fixpoint per call, provenance
threaded instruction by instruction, and address versions that never
reset (neither at a region boundary nor at a memory cut).  The
compiler scans incrementally, segment by segment; every answer it
gives must equal this one.  The module depends on the compiler only
for data types and the provenance fixpoint, so a fault in the
incremental scan's state handling cannot hide in the reference too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.antidep import MAX_TRACKED_LOCS, MemLoc, ScanResult
from repro.compiler.dataflow import BOTTOM, ParamOrigin, Provenance
from repro.isa import Cfg, Kernel, Op, Reg, Space


@dataclass
class _State:
    mem_reads: list = field(default_factory=list)
    mem_writes: list = field(default_factory=list)
    reg_reads: set = field(default_factory=set)
    reg_writes: set = field(default_factory=set)
    guarded_writes: set = field(default_factory=set)
    versions: dict = field(default_factory=dict)

    def reset(self) -> None:
        self.mem_reads = []
        self.mem_writes = []
        self.reg_reads = set()
        self.reg_writes = set()
        self.guarded_writes = set()

    def copy(self) -> "_State":
        return _State(list(self.mem_reads), list(self.mem_writes),
                      set(self.reg_reads), set(self.reg_writes),
                      set(self.guarded_writes), dict(self.versions))


def reference_scan(kernel: Kernel, use_provenance: bool = True) -> ScanResult:
    cfg = Cfg(kernel)
    prov = Provenance(cfg)
    result = ScanResult()
    exit_state: dict[int, _State] = {}
    for b in cfg.rpo():
        block = cfg.blocks[b]
        preds = block.preds
        inherit = len(preds) == 1 and preds[0] in exit_state and b != 0
        state = exit_state[preds[0]].copy() if inherit else _State()
        prov_state = dict(prov.block_in[b]) if use_provenance else {}
        for i in range(block.start, block.end):
            _step(kernel.instructions[i], i, state, prov_state, result,
                  use_provenance)
        exit_state[b] = state
    return result


def _loc(inst, state: _State, prov_state: dict) -> MemLoc | None:
    base = inst.srcs[0]
    if not isinstance(base, Reg):
        return None
    origin = prov_state.get(base, BOTTOM)
    return MemLoc(space=inst.space,
                  prov=origin if isinstance(origin, ParamOrigin) else None,
                  base=base, version=state.versions.get(base, 0),
                  offset=inst.offset)


def _step(inst, index: int, state: _State, prov_state: dict,
          result: ScanResult, use_provenance: bool) -> None:
    op = inst.op
    if op is Op.RB:
        state.reset()
        return
    if op in (Op.BRA, Op.EXIT):
        return
    if op is Op.BAR:
        if use_provenance:
            Provenance.transfer_inst(inst, prov_state)
        return
    info = inst.info
    if info.is_load and inst.space is not Space.PARAM:
        loc = _loc(inst, state, prov_state)
        if loc is not None and len(state.mem_reads) < MAX_TRACKED_LOCS:
            state.mem_reads.append(loc)
    elif info.is_store or info.is_atomic:
        loc = _loc(inst, state, prov_state)
        covered = loc is not None and inst.guard is None and any(
            loc.same_location(w) for w in state.mem_writes)
        if not covered:
            hazard = loc is None or any(
                loc.may_alias(r) for r in state.mem_reads)
            if hazard and index not in result.mem_cuts:
                result.mem_cuts.append(index)
                state.reset()
        if (loc is not None and inst.guard is None
                and len(state.mem_writes) < MAX_TRACKED_LOCS):
            state.mem_writes.append(loc)
        if info.is_atomic:
            if loc is not None and len(state.mem_reads) < MAX_TRACKED_LOCS:
                state.mem_reads.append(loc)

    for var in list(inst.read_regs()) + list(inst.read_preds()):
        state.reg_reads.add(var)
    dst = inst.dst
    if dst is not None:
        guard = inst.guard
        if dst not in state.reg_writes and (
                dst in state.reg_reads
                or (guard is not None and (guard in state.reg_writes
                                           or guard in state.guarded_writes))):
            result.reg_wars.append((index, dst))
        if guard is None:
            state.reg_writes.add(dst)
        else:
            state.reg_reads.add(dst)
            state.guarded_writes.add(dst)
        if isinstance(dst, Reg):
            state.versions[dst] = state.versions.get(dst, 0) + 1
    if use_provenance:
        Provenance.transfer_inst(inst, prov_state)
