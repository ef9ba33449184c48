"""``ReferenceSm``: an SM that decodes every instruction on every issue.

It inherits ``repro.sim.Sm``'s machine state, block and warp
bookkeeping, barriers, retirement and stall classification, and
overrides every method that reads the decode-once plan.  Issue,
readiness, boundary-marker delivery, stall causes and the next-event
bound are re-derived from the :class:`~repro.isa.Instruction` at the
warp's PC; branch reconvergence comes from the kernel's CFG; memory is
timed with NumPy ``unique``.  Scoreboard keys come from
:func:`~repro.isa.scoreboard_key` on the decoded operands, so the
planned path's precomputed keys are checked against an independent
derivation.  Its ``tick`` runs every cycle in full:
no per-SM idle elision and no failed-pick memo, so both shortcuts of
the planned path stay cross-checked.  It emits no trace events.
"""

from __future__ import annotations

import numpy as np

from repro.isa import (FuClass, Instruction, Op, Pred, Reg, Space,
                       scoreboard_key)
from repro.isa.cfg import reconvergence_table_for
from repro.sim import MemAccess, Sm, StackEntry, Warp, WarpState
from repro.sim.stats import FU_CLASSES

from .functional import execute, guard_mask


# ----------------------------------------------------------------------
# Warp-level reference semantics
# ----------------------------------------------------------------------
def next_instruction(warp: Warp) -> Instruction:
    return warp.kernel.instructions[warp.pc]


def deps_ready(warp: Warp, inst: Instruction, cycle: int) -> bool:
    """Scoreboard check: sources ready and destination not in flight."""
    pending = warp.pending
    if not pending:
        return True
    for reg in inst.read_regs():
        if pending.get(scoreboard_key(reg), 0) > cycle:
            return False
    for pred in inst.read_preds():
        if pending.get(scoreboard_key(pred), 0) > cycle:
            return False
    if (inst.dst is not None
            and pending.get(scoreboard_key(inst.dst), 0) > cycle):
        return False
    return True


def earliest_dep_cycle(warp: Warp, inst: Instruction) -> int:
    """Cycle at which ``deps_ready`` will become true (for fast-forward)."""
    latest = warp.wakeup_cycle
    for reg in inst.read_regs():
        latest = max(latest, warp.pending.get(scoreboard_key(reg), 0))
    for pred in inst.read_preds():
        latest = max(latest, warp.pending.get(scoreboard_key(pred), 0))
    if inst.dst is not None:
        latest = max(latest, warp.pending.get(scoreboard_key(inst.dst), 0))
    return latest


def mark_pending(warp: Warp, dst, ready_cycle: int) -> None:
    if dst is not None:
        warp.pending[scoreboard_key(dst)] = ready_cycle
        warp.version += 1


def take_branch(warp: Warp, inst: Instruction, reconv_pc: int) -> None:
    """Resolve a branch (possibly divergent) and update the SIMT stack."""
    target = warp.kernel.target_of(inst)
    active = warp.active_mask
    if inst.guard is None:
        warp.pc = target
        warp._maybe_reconverge()
        return
    taken = guard_mask(inst, warp.ctx, active)
    not_taken = active & ~taken
    if not not_taken.any():
        warp.pc = target
        warp._maybe_reconverge()
        return
    if not taken.any():
        warp.advance()
        return
    # Divergence: the current entry reconverges at reconv_pc; the taken
    # path runs first, then the fall-through.  A path that starts at the
    # reconvergence point is empty and is not pushed.
    fallthrough = warp.pc + 1
    warp.stack[-1].pc = reconv_pc
    if fallthrough != reconv_pc:
        warp.stack.append(StackEntry(reconv_pc, fallthrough, not_taken))
    if target != reconv_pc:
        warp.stack.append(StackEntry(reconv_pc, target, taken))
    warp._maybe_reconverge()


def exit_lanes(warp: Warp, inst: Instruction) -> None:
    """Retire lanes reaching EXIT; unwind empty stack entries."""
    mask = guard_mask(inst, warp.ctx, warp.active_mask)
    warp.exited = warp.exited | mask
    if inst.guard is not None:
        warp.advance()
    warp._pop_empty()


def _is_timed_mem(inst: Instruction) -> bool:
    return inst.fu is FuClass.MEM and inst.space is not Space.PARAM


def bank_conflict_degree(addresses: np.ndarray) -> int:
    """Most distinct addresses that share one of the 32 banks."""
    unique = np.unique(addresses)
    if len(unique) <= 1:
        return 1
    _, counts = np.unique(unique % 32, return_counts=True)
    return int(counts.max())


# ----------------------------------------------------------------------
# The reference SM
# ----------------------------------------------------------------------
class ReferenceSm(Sm):
    """An ``Sm`` whose issue path decodes instructions, not plan records."""

    def configure(self, kernel, global_mem, scheduler, plan) -> None:
        super().configure(kernel, global_mem, scheduler, plan)
        self.reconv = reconvergence_table_for(kernel)

    def skip_markers(self, warp: Warp, cycle: int) -> None:
        while (warp.state is WarpState.ACTIVE and not warp.finished
               and next_instruction(warp).op is Op.RB):
            self.stats.boundary_instructions += 1
            pc_before = warp.pc
            self.resilience.on_reach_boundary(self, warp, cycle)
            if warp.state is not WarpState.ACTIVE or warp.pc == pc_before:
                break

    def tick(self, cycle: int) -> int:
        self.resilience.tick(self, cycle)
        if not self.blocks:
            return 0
        issued = 0
        for scheduler in self.schedulers:
            warp = scheduler.pick(self._issuable, cycle)
            if warp is None:
                continue
            self._issue(warp, cycle)
            issued += 1
        stats = self.stats
        stats.active_cycles += 1
        if issued:
            stats.issue_cycles += 1
            self._stall_cause = None
        else:
            stats.idle_cycles += 1
            cause, culprit = self._classify_stall(cycle)
            stats.count_stall(cause, culprit)
            self._stall_cause = cause
            self._stall_warp = culprit
        return issued

    def _warp_stall_cause(self, warp: Warp, cycle: int) -> str | None:
        state = warp.state
        if state is WarpState.IN_RBQ:
            return self.resilience.verify_cause
        if state is WarpState.AT_BARRIER:
            return "barrier"
        if state is not WarpState.ACTIVE:
            return None
        if warp.finished:
            return "no_ready_warp"
        inst = next_instruction(warp)
        operands = list(inst.read_regs()) + list(inst.read_preds())
        if inst.dst is not None:
            operands.append(inst.dst)
        blocker = None
        blocked_at = cycle
        for key in map(scoreboard_key, operands):
            at = warp.pending.get(key, 0)
            if at > blocked_at:
                blocked_at = at
                blocker = key
        if blocker is not None:
            if warp.pending_mem.get(blocker) == warp.pending[blocker]:
                return "memory_latency"
            return "scoreboard_raw"
        if _is_timed_mem(inst) and self._lsu_free_at > cycle:
            return "memory_latency"
        return "no_ready_warp"

    def _issuable(self, warp: Warp, cycle: int) -> bool:
        if warp.state is not WarpState.ACTIVE or warp.wakeup_cycle > cycle:
            return False
        if warp.finished:
            return True  # issue slot used to retire the warp
        inst = next_instruction(warp)
        if _is_timed_mem(inst) and self._lsu_free_at > cycle:
            return False
        return deps_ready(warp, inst, cycle)

    def _latency(self, fu: FuClass) -> int:
        config = self.config
        if fu is FuClass.MUL:
            return config.mul_latency
        if fu is FuClass.SFU:
            return config.sfu_latency
        return config.alu_latency

    def _issue(self, warp: Warp, cycle: int) -> None:
        if warp.finished:
            self._retire(warp, cycle)
            return
        inst = next_instruction(warp)
        warp.wake(cycle + 1)
        warp.insts_since_boundary += 1
        stats = self.stats
        stats.instructions += 1
        stats.by_fu[FU_CLASSES.index(inst.fu)] += 1
        stats.shadow_instructions += inst.shadow
        stats.ckpt_instructions += inst.ckpt

        if inst.op is Op.BRA:
            reconv = self.reconv.get(warp.pc, len(self.kernel.instructions))
            take_branch(warp, inst, reconv)
            self._after_pc_change(warp, cycle)
            return
        if inst.op is Op.BAR:
            self._arrive_barrier(warp, cycle)
            return
        if inst.op is Op.EXIT:
            exit_lanes(warp, inst)
            if warp.finished:
                self._retire(warp, cycle)
            else:
                self._after_pc_change(warp, cycle)
            return

        active = warp.active_mask
        access = execute(inst, warp.ctx, active,
                         self.global_mem, warp.block.shared)
        if isinstance(inst.dst, Reg) and not inst.shadow:
            warp.last_write = inst.dst.index
            warp.last_write_pc = warp.pc
            warp.last_write_mask = guard_mask(inst, warp.ctx, active)
        elif isinstance(inst.dst, Pred) and not inst.shadow:
            warp.last_pred_write = inst.dst.index
            warp.last_pred_write_pc = warp.pc
            warp.last_pred_write_mask = guard_mask(inst, warp.ctx, active)
        if (access is not None and access.space is Space.SHARED
                and access.is_store and not access.is_atomic
                and not inst.shadow):
            warp.last_shared_write = access.addresses
        liveness = self.liveness
        if liveness is not None:
            rows = [reg.index for reg in inst.read_regs()]
            if rows:
                liveness.reg_read[warp.id][rows] = cycle
            if access is not None:
                liveness.note(access, warp.block, cycle)
        if _is_timed_mem(inst):
            self._time_memory(warp, inst, access, cycle)
        else:
            mark_pending(warp, inst.dst, cycle + self._latency(inst.fu))
        warp.advance()
        self._after_pc_change(warp, cycle)

    def _time_memory(self, warp: Warp, inst: Instruction,
                     access: MemAccess | None, cycle: int) -> None:
        config = self.config
        if access is None:  # fully predicated-off memory op
            mark_pending(warp, inst.dst, cycle + 1)
            return
        if access.is_atomic:
            lanes = len(access.addresses)
            latency = config.atomic_latency + lanes
            occupancy = max(1, lanes // 2)
            self.stats.atomic_ops += lanes
        elif access.space is Space.SHARED:
            degree = bank_conflict_degree(access.addresses)
            latency = config.shared_latency + (degree - 1)
            occupancy = degree
            self.stats.shared_accesses += 1
            self.stats.shared_bank_conflicts += degree - 1
        else:
            segments = np.unique(access.addresses // config.l1.line_words)
            occupancy = len(segments)
            latency = 0
            for segment in segments:
                word = int(segment) * config.l1.line_words
                if self.l1.access(word, is_store=access.is_store):
                    seg_latency = config.l1_latency
                elif self.l2.access(word, is_store=access.is_store):
                    seg_latency = config.l2_latency
                else:
                    seg_latency = config.dram_latency
                latency = max(latency, seg_latency)
            self.stats.global_transactions += occupancy
        self._lsu_free_at = max(self._lsu_free_at, cycle) + occupancy
        if inst.info.is_load or inst.info.is_atomic:
            mark_pending(warp, inst.dst, cycle + latency)
            if inst.dst is not None:
                warp.pending_mem[scoreboard_key(inst.dst)] = cycle + latency

    def next_event(self, cycle: int) -> int:
        best = self.resilience.next_event(self)
        for warp in self.warps:
            if warp.state is not WarpState.ACTIVE:
                continue
            if warp.finished:
                return cycle + 1
            inst = next_instruction(warp)
            ready = max(earliest_dep_cycle(warp, inst), warp.wakeup_cycle)
            if _is_timed_mem(inst):
                ready = max(ready, self._lsu_free_at)
            best = min(best, ready)
        return best
