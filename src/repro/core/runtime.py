"""Recovery runtimes: region verification over the Recovery PC Table.

:class:`RecoveryRuntime` is the recovery mechanism of the paper
(Sections III-C/III-D) that every detecting scheme shares:

* when a warp's PC reaches a region-boundary marker it is descheduled
  and parked (``IN_RBQ``) until its region verifies — boundary hitting
  behaves like a long-latency instruction, so the scheduler naturally
  switches to another ready warp;
* a verified region advances the warp's Recovery PC Table entry to the
  start of its next region and the warp becomes schedulable again;
* a warp's exit also parks (the final region must verify before the
  warp — and hence its block — may retire);
* on error detection all in-flight verifications are flushed and every
  warp of the SM resumes from its RPT entry (Figure 9, example B).

:class:`FlameRuntime` verifies on the per-scheduler Region Boundary
Queue conveyors and detects with the acoustic sensors; the compare
schemes of :mod:`repro.core.competitors` time their own checks and
detect by redundancy.
"""

from __future__ import annotations

import copy

from ..errors import ConfigError
from ..sim import (CONTROL_TID, NEVER, ResilienceRuntime, Sm, Warp,
                   WarpSnapshot, WarpState)
from ..sim.snapshot import plain_equal
from .rbq import RbqEntry, RegionBoundaryQueue
from .rpt import RecoveryPcTable


class RecoveryRuntime(ResilienceRuntime):
    """Park at region ends, release verified regions, roll back on error.

    An unbound instance holds only configuration; :meth:`bind` returns a
    per-SM instance of the same class.  ``rollback_cycles`` models the
    latency of a rollback (flush the verifications, reset every warp
    from its RPT entry): warps resume that many cycles after detection.
    Detections landing inside that window coalesce into the rollback in
    progress instead of being credited to it (see :meth:`_rollback`).
    ``harden_rpt`` sets the :class:`RecoveryPcTable` ``hardened`` flag,
    which the fault injector's ``rpt`` site honors (a hardened table
    absorbs strikes, per the paper's hardened-AGU discussion).

    Subclasses implement :meth:`_cross` (park the warp or let it pass)
    and may extend :meth:`_flush` and the checkpoint state.
    """

    #: SM-level stall cause while ``_parked`` holds entries; None defers
    #: to the per-warp ``verify_cause`` of the parked warps.
    parked_cause: str | None = None

    def __init__(self, rollback_cycles: int = 1,
                 harden_rpt: bool = True) -> None:
        if rollback_cycles < 1:
            raise ConfigError("rollback must take at least one cycle")
        self.rollback_cycles = rollback_cycles
        self.harden_rpt = harden_rpt

    def bind(self, sm: Sm) -> "RecoveryRuntime":
        runtime = copy.copy(self)
        runtime.sm = sm
        runtime.rpt = RecoveryPcTable(hardened=self.harden_rpt)
        #: Parked regions this runtime times itself, outside any conveyor.
        runtime._parked: list[RbqEntry] = []
        #: Cycle the in-progress rollback completes, if one is running.
        runtime._rollback_until: int | None = None
        return runtime

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_warp_attached(self, sm: Sm, warp: Warp) -> None:
        self.rpt.register_warp(warp)

    def on_warp_detached(self, sm: Sm, warp: Warp) -> None:
        self.rpt.drop(warp)

    def on_reach_boundary(self, sm: Sm, warp: Warp, cycle: int) -> None:
        insts = warp.insts_since_boundary
        sm.note_region_end(warp)
        warp.advance()
        self._cross(sm, warp, cycle, insts, final=False)

    def on_warp_exit(self, sm: Sm, warp: Warp, cycle: int) -> bool:
        # A protected warp's last region must verify before it retires.
        insts = warp.insts_since_boundary
        sm.note_region_end(warp)
        return not self._cross(sm, warp, cycle, insts, final=True)

    def _cross(self, sm: Sm, warp: Warp, cycle: int, insts: int,
               final: bool) -> bool:
        """A warp crossed a region boundary after ``insts`` instructions;
        park it (True) or let it continue unverified (False)."""
        raise NotImplementedError

    def _park(self, warp: Warp, cycle: int, final: bool,
              ready_at: int | None = None) -> RbqEntry:
        """Deschedule ``warp`` behind a new parked-region record."""
        warp.state = WarpState.IN_RBQ
        return RbqEntry(warp, WarpSnapshot.capture(warp), cycle, final,
                        ready_at)

    def _release(self, sm: Sm, entry: RbqEntry, cycle: int) -> None:
        """The parked region verified: retire the warp (final region) or
        advance its RPT entry and wake it."""
        warp = entry.warp
        if warp.state is not WarpState.IN_RBQ:
            return  # stale entry (warp recovered meanwhile)
        if sm.tracer is not None:
            sm.tracer.event("region_verify", cycle, sm.id, warp.id,
                            {"final": entry.final,
                             "wait": cycle - entry.enqueued_at})
        if entry.final:
            warp.state = WarpState.DONE
            sm._note_warp_done(warp)
            sm._check_barrier_release(warp.block, cycle)
            return
        self.rpt.update(warp, entry.snapshot)
        warp.state = WarpState.ACTIVE
        warp.wake(cycle)
        if sm.tracer is not None:
            sm.tracer.event("warp_wake", cycle, sm.id, warp.id)
        sm.skip_markers(warp, cycle)

    def stall_cause(self, sm: Sm, cycle: int) -> str | None:
        """SM-level attribution: an in-progress rollback window claims
        the cycle outright, then :attr:`parked_cause`."""
        until = self._rollback_until
        if until is not None and cycle < until:
            return "rollback"
        if self._parked:
            return self.parked_cause
        return None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _reset(self, sm: Sm, warp: Warp, resume: int) -> None:
        """Restart ``warp`` from its RPT entry at cycle ``resume``."""
        self.rpt.recover(warp)
        warp.state = WarpState.ACTIVE
        warp.wake(resume)
        warp.pending.clear()
        warp.pending_mem.clear()
        warp.insts_since_boundary = 0
        # The rollback flushes the pipeline: nothing of the warp's
        # doomed in-flight work can be struck anymore.
        warp.clear_inflight()
        # A recovery PC may sit on a boundary marker (kernel entry of a
        # loop-header-led kernel); re-deliver it rather than issue it.
        sm.skip_markers(warp, resume)

    def _flush(self) -> None:
        """Invalidate every in-flight verification."""
        self._parked.clear()

    def _rollback(self, sm: Sm, cycle: int) -> None:
        """Flush verifications and reset every live warp to its RPT entry.

        A detection while a rollback is already in progress (the
        recovery storm of a strike landing between detection and
        rollback completion) coalesces into it: the flush/reset is
        re-applied — the late strike may have corrupted state the first
        reset already wrote — and the rollback window extends, but it is
        counted as a ``coalesced_recoveries`` rather than a fresh
        recovery.  Either way the detection itself is always counted.
        """
        nested = (self._rollback_until is not None
                  and cycle < self._rollback_until)
        resume = cycle + self.rollback_cycles
        self._flush()
        for warp in sm.warps:
            if warp.state is not WarpState.DONE:
                self._reset(sm, warp, resume)
        self._rollback_until = resume
        if nested:
            sm.stats.coalesced_recoveries += 1
        else:
            sm.stats.recoveries += 1
        sm.stats.detected_errors += 1
        if sm.tracer is not None:
            sm.tracer.event("rollback", cycle, sm.id, CONTROL_TID,
                            {"resume": resume, "coalesced": nested},
                            ph="X", dur=resume - cycle)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self, sm: Sm) -> dict:
        """Plain-data snapshot of the RPT, the parked regions and the
        rollback window; subclasses add their own keys."""
        return {
            "rpt": self.rpt.capture_state(),
            "parked": tuple(e.to_state() for e in self._parked),
            "rollback_until": self._rollback_until,
        }

    def restore_state(self, state: dict, sm: Sm, warp_map: dict) -> None:
        self.rpt.restore_state(state["rpt"])
        self._parked = [RbqEntry.from_state(e, warp_map)
                        for e in state["parked"]]
        self._rollback_until = state["rollback_until"]

    def state_equals(self, sm: Sm, state) -> bool:
        """Convergence-comparison equality against :meth:`capture_state`
        data: every key except ``rollback_until``.

        The spent rollback window is read only when a *later* detection
        coalesces into a running rollback, and the convergence monitor
        only compares at boundaries where the injector is quiescent — no
        further sensor detections exist, and with every pending check
        compared (clean in the golden run) no check can fail either, so
        a stale window value cannot influence the continuation.
        """
        if not isinstance(state, dict):
            return False
        live = self.capture_state(sm)
        return all(plain_equal(value, state[key])
                   for key, value in live.items() if key != "rollback_until")


class FlameRuntime(RecoveryRuntime):
    """Flame: RBQ conveyors verify regions, acoustic sensors detect.

    Construct with the sensor mesh's WCDL.  Each warp scheduler gets a
    WCDL-long :class:`RegionBoundaryQueue`; a popped entry means the
    region verified error-free.  ``harden_rbq`` sets the conveyors'
    ``hardened`` flag, which the fault injector's ``rbq`` site honors.
    """

    recovers_on_detection = True
    #: A boundary turned away by a full conveyor is an RBQ-capacity stall
    #: (the structural hazard Flame sizes the conveyor to avoid).
    parked_cause = "rbq_full"

    def __init__(self, wcdl: int = 20, rollback_cycles: int = 1,
                 harden_rpt: bool = True, harden_rbq: bool = True) -> None:
        if wcdl < 1:
            raise ConfigError("WCDL must be at least one cycle")
        super().__init__(rollback_cycles, harden_rpt)
        self.wcdl = wcdl
        self.harden_rbq = harden_rbq

    def bind(self, sm: Sm) -> "FlameRuntime":
        runtime = super().bind(sm)
        runtime.rbqs = {}
        return runtime

    def _rbq_for(self, warp: Warp) -> RegionBoundaryQueue:
        key = id(warp.scheduler)
        rbq = self.rbqs.get(key)
        if rbq is None:
            rbq = RegionBoundaryQueue(self.wcdl, hardened=self.harden_rbq)
            self.rbqs[key] = rbq
        return rbq

    def _cross(self, sm: Sm, warp: Warp, cycle: int, insts: int,
               final: bool) -> bool:
        entry = self._park(warp, cycle, final)
        rbq = self._rbq_for(warp)
        if rbq.can_enqueue(cycle):
            rbq.enqueue(entry, cycle)
            sm.stats.rbq_enqueues += 1
            stalled = False
        else:
            self._parked.append(entry)
            sm.stats.rbq_full_stalls += 1
            stalled = True
        if sm.tracer is not None:
            sm.tracer.event("rbq_enqueue", cycle, sm.id, warp.id,
                            {"final": final, "stalled": stalled})
        return True

    def tick(self, sm: Sm, cycle: int) -> None:
        for rbq in self.rbqs.values():
            entry = rbq.pop_verified(cycle)
            if entry is not None:
                self._release(sm, entry, cycle)
        if self._parked:
            still_parked: list[RbqEntry] = []
            for entry in self._parked:
                rbq = self._rbq_for(entry.warp)
                if rbq.can_enqueue(cycle):
                    rbq.enqueue(entry, cycle)
                    sm.stats.rbq_enqueues += 1
                else:
                    still_parked.append(entry)
            self._parked = still_parked

    def next_event(self, sm: Sm) -> int:
        best = NEVER
        for rbq in self.rbqs.values():
            pop = rbq.next_pop_cycle()
            if pop is not None:
                best = min(best, pop)
        return best

    def recover(self, cycle: int) -> None:
        """Sensor fired: roll the SM back (Figure 9, example B)."""
        sm = self.sm
        self._rollback(sm, cycle)
        # The detection arrives between SM ticks, so the stall cause the
        # SM memoized for idle-cycle elision predates the rollback: this
        # cycle must be classified afresh (the rollback window claims it).
        sm._stall_cause = None

    def _flush(self) -> None:
        for rbq in self.rbqs.values():
            rbq.flush()
        super()._flush()

    def capture_state(self, sm: Sm) -> dict:
        """Adds the conveyors, keyed by scheduler *index* (``id()`` keys
        don't survive a restore onto a fresh GPU)."""
        state = super().capture_state(sm)
        sched_index = {id(s): i for i, s in enumerate(sm.schedulers)}
        state["rbqs"] = {sched_index[key]: rbq.capture_state()
                         for key, rbq in self.rbqs.items()}
        return state

    def restore_state(self, state: dict, sm: Sm, warp_map: dict) -> None:
        super().restore_state(state, sm, warp_map)
        self.rbqs = {}
        for index, rbq_state in state["rbqs"].items():
            rbq = RegionBoundaryQueue(self.wcdl, hardened=self.harden_rbq)
            rbq.restore_state(rbq_state, warp_map)
            self.rbqs[id(sm.schedulers[index])] = rbq
