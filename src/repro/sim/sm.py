"""Streaming multiprocessor timing model.

Each SM holds resident thread blocks, per-scheduler warp pools, a shared
LSU, and an L1 cache.  A pluggable :class:`ResilienceRuntime` observes
region boundaries and controls verification descheduling — the null
runtime (baseline and compile-only schemes) treats boundary markers as
free, while Flame's runtime (``repro.core``) implements the RBQ/RPT
protocol on these hooks.
"""

from __future__ import annotations

import numpy as np

from ..arch import GpuConfig
from ..errors import SimError
from ..isa import FuClass, Instruction, Kernel, Op, Pred, Reg, Space
from .caches import Cache
from .functional import MemAccess, execute, guard_mask
from .plan import ExecPlan, K_BAR, K_BRA, K_VALUE, T_ATOMIC, T_SHARED
from .schedulers import WarpScheduler, make_scheduler
from .stats import STALL_CAUSES, SimStats
from .warp import Warp, WarpState

#: Big sentinel for "no next event".
NEVER = 1 << 62

#: Attribution priority: when several stall causes hold simultaneously,
#: the lowest rank wins (see ``stats.STALL_CAUSES`` ordering).
_CAUSE_RANK = {cause: rank for rank, cause in enumerate(STALL_CAUSES)}
_NO_READY_RANK = _CAUSE_RANK["no_ready_warp"]

#: Trace thread id for SM-level events (stall spans, block dispatch):
#: warp ids are globally small, so this cannot collide within a pid.
CONTROL_TID = 1_000_000


class ResilienceRuntime:
    """Hook interface; the default implementation is the no-op baseline.

    ``on_reach_boundary`` is called whenever a warp's PC lands on an RB
    marker (after any issue or control transfer).  Returning without
    changing the warp state means the marker was consumed for free.
    """

    needs_boundaries = False

    #: Stall cause booked for warps parked in ``IN_RBQ`` (drawn from
    #: ``STALL_CAUSES``); schemes that park warps for a different kind of
    #: end-of-region check (DMR compare, ABFT checksum) override this so
    #: the ledger attributes their verification latency distinctly.
    verify_cause = "verify_wait"

    def bind(self, sm: "Sm") -> "ResilienceRuntime":
        """Create/attach the per-SM runtime state.  Returns the instance
        serving this SM (the null runtime is stateless and shared)."""
        return self

    def on_warp_attached(self, sm: "Sm", warp: Warp) -> None:
        """A warp became resident (block dispatch)."""

    def on_warp_detached(self, sm: "Sm", warp: Warp) -> None:
        """A warp's block retired."""

    def on_reach_boundary(self, sm: "Sm", warp: Warp, cycle: int) -> None:
        sm.note_region_end(warp)
        warp.advance()
        sm.skip_markers(warp, cycle)

    def on_warp_exit(self, sm: "Sm", warp: Warp, cycle: int) -> bool:
        """Return True if the warp is fully done (no deferred verification)."""
        sm.note_region_end(warp)
        return True

    def tick(self, sm: "Sm", cycle: int) -> None:
        """Per-cycle maintenance (RBQ conveyor movement)."""

    def stall_cause(self, sm: "Sm", cycle: int) -> str | None:
        """SM-level stall cause that overrides per-warp attribution
        (e.g. an in-progress rollback window), or None to defer to the
        per-warp classification."""
        return None

    def next_event(self, sm: "Sm") -> int:
        return NEVER

    def capture_state(self, sm: "Sm"):
        """Plain-data snapshot of runtime state (None = stateless)."""
        return None

    def restore_state(self, state, sm: "Sm", warp_map: dict) -> None:
        """Rebuild runtime state from :meth:`capture_state` data."""

    def state_equals(self, sm: "Sm", state) -> bool:
        """Convergence-comparison equality against :meth:`capture_state`
        data.  Stateful runtimes override this; they may exclude pure
        observers that provably cannot influence the continuation at a
        quiescent boundary (see the flame runtime's rollback window)."""
        return state is None


NULL_RESILIENCE = ResilienceRuntime()


class ThreadBlock:
    """A resident thread block: shared memory, barrier state, warp roster."""

    def __init__(self, block_id: int, ctaid: tuple[int, int],
                 num_threads: int, first_warp_id: int,
                 shared_words: int) -> None:
        self.id = block_id
        self.ctaid = ctaid
        self.num_threads = num_threads
        self.first_warp_id = first_warp_id
        self.shared = np.zeros(max(shared_words, 1), dtype=np.float64)
        self.warps: list[Warp] = []
        self.at_barrier: int = 0
        #: Warps not yet DONE; maintained by ``Sm`` so block retirement
        #: is a counter decrement instead of a per-cycle all-warps scan.
        self.live_warps: int = 0

    @property
    def done(self) -> bool:
        return all(w.state is WarpState.DONE for w in self.warps)


class Sm:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, config: GpuConfig, l2,
                 resilience: ResilienceRuntime = NULL_RESILIENCE) -> None:
        self.id = sm_id
        self.config = config
        self.l1 = Cache(config.l1, name=f"sm{sm_id}.l1")
        self.l2 = l2
        self.schedulers: list[WarpScheduler] = []
        self.scheduler_name = "GTO"
        self.blocks: list[ThreadBlock] = []
        self.warps: list[Warp] = []
        self.stats = SimStats()
        self.resilience = resilience.bind(self)
        self.global_mem: np.ndarray | None = None
        self.kernel: Kernel | None = None
        self.reconv: dict[int, int] = {}
        self.plan: ExecPlan | None = None
        self._lsu_free_at = 0
        self._next_sched = 0
        #: Blocks whose live-warp counter hit zero (drained by Gpu.launch).
        self._done_blocks: list[ThreadBlock] = []
        #: Golden-run memory access tracker (set by Gpu.launch when a
        #: checkpoint recorder is attached; None on ordinary runs).
        self.liveness = None
        #: Event tracer (``repro.obs.Tracer``) or None.  The None case
        #: costs a single truthiness check per tick: the traced tick is
        #: a separate method, so the hot path stays branch-free.
        self.tracer = None
        #: Stall cause recorded at the most recent idle cycle, consumed
        #: by ``account_stall_skip`` when the event-driven fast-forward
        #: elides the following cycles (the cause provably holds for
        #: the whole skipped span: no machine state changes while no SM
        #: issues, and the jump lands on the earliest next event).
        self._stall_cause: str | None = None
        self._stall_warp = -1
        # Open stall span for the tracer (start cycle + cause).
        self._trace_stall_cause: str | None = None
        self._trace_stall_warp = -1
        self._trace_stall_start = 0

    # ------------------------------------------------------------------
    # Launch-time setup
    # ------------------------------------------------------------------
    def configure(self, kernel: Kernel, global_mem: np.ndarray,
                  reconv: dict[int, int], scheduler: str,
                  plan: ExecPlan | None = None) -> None:
        self.kernel = kernel
        self.global_mem = global_mem
        self.reconv = reconv
        self.plan = plan
        self.scheduler_name = scheduler
        self.schedulers = [make_scheduler(scheduler)
                           for _ in range(self.config.num_schedulers)]

    def add_block(self, block: ThreadBlock, cycle: int) -> None:
        self.blocks.append(block)
        block.live_warps = len(block.warps)
        for warp in block.warps:
            warp.wake(cycle)
            self.warps.append(warp)
            scheduler = self.schedulers[self._next_sched]
            self._next_sched = (self._next_sched + 1) % len(self.schedulers)
            scheduler.attach(warp)
            warp.scheduler = scheduler
            warp.insts_since_boundary = 0
            self.resilience.on_warp_attached(self, warp)
            self.skip_markers(warp, cycle)
        self.stats.blocks_launched += 1
        self.stats.warps_launched += len(block.warps)
        if self.tracer is not None:
            self.tracer.event("block_dispatch", cycle, self.id, CONTROL_TID,
                              {"block": block.id, "ctaid": list(block.ctaid),
                               "warps": len(block.warps)})

    def remove_block(self, block: ThreadBlock, cycle: int = 0) -> None:
        # Swap-pop: block order is unobservable (dispatch and retirement
        # only need membership), so avoid the O(blocks) list.remove scan.
        blocks = self.blocks
        index = blocks.index(block)
        last = blocks.pop()
        if last is not block:
            blocks[index] = last
        for warp in block.warps:
            warp.scheduler.detach(warp)
            self.resilience.on_warp_detached(self, warp)
        # One order-preserving rebuild instead of per-warp list.remove:
        # fault-site candidate selection iterates ``sm.warps``, so the
        # surviving warps must keep their exact relative order.
        self.warps = [w for w in self.warps if w.block is not block]
        if self.tracer is not None:
            self.tracer.event("block_retire", cycle, self.id, CONTROL_TID,
                              {"block": block.id})

    def _note_warp_done(self, warp: Warp) -> None:
        """A warp reached DONE: decrement its block's live-warp counter."""
        block = warp.block
        block.live_warps -= 1
        if block.live_warps == 0:
            self._done_blocks.append(block)

    def take_done_blocks(self) -> list[ThreadBlock]:
        """Drain (and clear) the list of fully-retired blocks."""
        done = self._done_blocks
        if done:
            self._done_blocks = []
        return done

    @property
    def resident_blocks(self) -> int:
        return len(self.blocks)

    @property
    def busy(self) -> bool:
        return bool(self.blocks)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Deep plain-data snapshot of all per-SM mutable state.  Blocks
        and warps are referenced by id (they are re-materialized
        deterministically on restore); the execution plan and kernel are
        deliberately absent — they are launch configuration, re-attached
        by ``configure`` on the restore target."""
        return {
            "l1": self.l1.capture_state(),
            "stats": self.stats.clone(),
            "lsu_free_at": self._lsu_free_at,
            "next_sched": self._next_sched,
            "blocks": tuple((b.id, b.shared.copy(), b.at_barrier,
                             b.live_warps) for b in self.blocks),
            "warp_order": tuple(w.id for w in self.warps),
            "warps": {w.id: w.capture_state() for w in self.warps},
            "schedulers": tuple(s.capture_state() for s in self.schedulers),
            "done_blocks": tuple(b.id for b in self._done_blocks),
            "resilience": self.resilience.capture_state(self),
        }

    def restore_state(self, state: dict, block_map: dict,
                      warp_map: dict) -> None:
        """Overlay checkpoint state onto a freshly configured SM whose
        blocks/warps were re-created by the launch setup.  The
        checkpoint itself is never mutated (every restore copies), so
        one golden checkpoint can seed any number of trials."""
        self.l1.restore_state(state["l1"])
        self.stats = state["stats"].clone()
        self._lsu_free_at = state["lsu_free_at"]
        self._next_sched = state["next_sched"]
        self.blocks = []
        for bid, shared, at_barrier, live_warps in state["blocks"]:
            block = block_map[bid]
            np.copyto(block.shared, shared)
            block.at_barrier = at_barrier
            block.live_warps = live_warps
            self.blocks.append(block)
        self.warps = [warp_map[wid] for wid in state["warp_order"]]
        for wid, wdata in state["warps"].items():
            warp_map[wid].restore_state(wdata)
        for scheduler, sstate in zip(self.schedulers, state["schedulers"]):
            scheduler.restore_state(sstate, warp_map)
        self._done_blocks = [block_map[bid] for bid in state["done_blocks"]]
        if state["resilience"] is not None:
            self.resilience.restore_state(state["resilience"], self, warp_map)
        # Per-cycle stall transients describe the cycle being simulated
        # when the snapshot was taken, not the restore target's.
        self._stall_cause = None
        self._trace_stall_cause = None

    def state_equals(self, state: dict, include_data: bool = True) -> bool:
        """Exact equality against a :meth:`capture_state` snapshot,
        without capturing: every field is compared in place and the
        walk short-circuits on the first difference.

        Two deliberate exclusions give this convergence-comparison
        semantics: the stats clone is a pure observer (its counters
        cannot influence the continuation), and the resilience
        runtime's equality is delegated to
        :meth:`ResilienceRuntime.state_equals` (which excludes the
        spent rollback window).  ``include_data=False`` additionally
        skips data at rest — per-block shared memory and warp register
        files — which the convergence monitor judges separately under
        golden read-liveness.
        """
        if (self._lsu_free_at != state["lsu_free_at"]
                or self._next_sched != state["next_sched"]):
            return False
        if tuple(w.id for w in self.warps) != state["warp_order"]:
            return False
        if tuple(b.id for b in self._done_blocks) != state["done_blocks"]:
            return False
        blocks = state["blocks"]
        if len(self.blocks) != len(blocks):
            return False
        for block, (bid, shared, at_barrier, live_warps) in zip(self.blocks,
                                                                blocks):
            if (block.id != bid or block.at_barrier != at_barrier
                    or block.live_warps != live_warps):
                return False
            if include_data and not np.array_equal(block.shared, shared):
                return False
        for scheduler, sched_state in zip(self.schedulers,
                                          state["schedulers"]):
            if not scheduler.state_equals(sched_state):
                return False
        warps = state["warps"]
        if len(self.warps) != len(warps):
            return False
        for warp in self.warps:
            if not warp.state_equals(warps[warp.id],
                                     include_regs=include_data):
                return False
        if not self.l1.state_equals(state["l1"]):
            return False
        return self.resilience.state_equals(self, state["resilience"])

    # ------------------------------------------------------------------
    # Region accounting
    # ------------------------------------------------------------------
    def note_region_end(self, warp: Warp) -> None:
        """Record region-size statistics when a warp crosses a boundary."""
        self.stats.verified_regions += 1
        self.stats.region_instructions += warp.insts_since_boundary
        if self.tracer is not None:
            self.tracer.event("region_end", self.tracer.now, self.id,
                              warp.id,
                              {"instructions": warp.insts_since_boundary})
        warp.insts_since_boundary = 0
        # Once descheduled, the warp has nothing in flight: strikes can
        # no longer corrupt its (ECC-protected, at-rest) registers,
        # predicates, or the shared-memory words it stored.
        warp.clear_inflight()

    def skip_markers(self, warp: Warp, cycle: int) -> None:
        """Deliver boundary markers at the warp's PC to the resilience
        runtime; in the null runtime they are consumed for free."""
        plan = self.plan
        if plan is not None:
            rb_flags = plan.rb_flags
            while (warp.state is WarpState.ACTIVE and not warp._finished
                   and rb_flags[warp.stack[-1].pc]):
                self.stats.boundary_instructions += 1
                pc_before = warp.stack[-1].pc
                self.resilience.on_reach_boundary(self, warp, cycle)
                if (warp.state is not WarpState.ACTIVE
                        or warp.stack[-1].pc == pc_before):
                    break
            return
        while (warp.state is WarpState.ACTIVE and not warp.finished
               and warp.next_instruction().op is Op.RB):
            self.stats.boundary_instructions += 1
            pc_before = warp.pc
            self.resilience.on_reach_boundary(self, warp, cycle)
            if warp.state is not WarpState.ACTIVE or warp.pc == pc_before:
                break

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Run one cycle; returns the number of instructions issued."""
        self.resilience.tick(self, cycle)
        if self.plan is None:
            issuable, issue = self._issuable, self._issue
        else:
            issuable, issue = self._issuable_fast, self._issue_fast
        if self.tracer is not None:
            return self._tick_traced(cycle, issuable, issue, self.tracer)
        issued = 0
        fast = self.plan is not None
        for scheduler in self.schedulers:
            if fast and scheduler.none_until > cycle:
                # A recent pick failed and nothing that could make a
                # managed warp ready has happened since (warp versions
                # and the LSU horizon are unchanged): re-picking would
                # fail identically, so skip it.
                vsum = 0
                for w in scheduler.warps:
                    vsum += w.version
                if (vsum == scheduler.none_vstamp
                        and self._lsu_free_at == scheduler.none_lsu):
                    continue
                scheduler.none_until = -1
            warp = scheduler.pick(issuable, cycle)
            if warp is None:
                if fast and scheduler.pick_pure_on_fail:
                    self._memo_failed_pick(scheduler, cycle)
                continue
            issue(warp, cycle)
            issued += 1
        if self.busy:
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

    def _tick_traced(self, cycle: int, issuable, issue, tracer) -> int:
        """``tick`` with event emission; kept out of line so the
        untraced hot path pays only the tracer truthiness check."""
        issued = 0
        plan = self.plan
        for scheduler in self.schedulers:
            warp = scheduler.pick(issuable, cycle)
            if warp is None:
                continue
            pc = warp.stack[-1].pc
            retiring = warp.finished
            issue(warp, cycle)
            issued += 1
            if retiring:
                tracer.event("warp_retire", cycle, self.id, warp.id)
            else:
                if plan is not None:
                    label = plan.records[pc].label
                else:
                    label = self.kernel.instructions[pc].op.value
                tracer.event("issue", cycle, self.id, warp.id,
                             {"pc": pc, "op": label})
        if self.busy:
            stats = self.stats
            stats.active_cycles += 1
            if issued:
                stats.issue_cycles += 1
                self._stall_cause = None
                self.trace_flush(cycle)
            else:
                stats.idle_cycles += 1
                cause, culprit = self._classify_stall(cycle)
                stats.count_stall(cause, culprit)
                self._stall_cause = cause
                self._stall_warp = culprit
                if self._trace_stall_cause != cause:
                    self.trace_flush(cycle)
                    self._trace_stall_cause = cause
                    self._trace_stall_warp = culprit
                    self._trace_stall_start = cycle
        else:
            self._stall_cause = None
            self.trace_flush(cycle)
        return issued

    def trace_flush(self, cycle: int) -> None:
        """Close the open stall span (if any) as a Chrome complete
        event; called when issue resumes, the cause changes, the SM
        drains, or the launch ends."""
        cause = self._trace_stall_cause
        if cause is None:
            return
        self._trace_stall_cause = None
        if self.tracer is not None:
            start = self._trace_stall_start
            self.tracer.event("stall", start, self.id, CONTROL_TID,
                              {"cause": cause,
                               "warp": self._trace_stall_warp},
                              ph="X", dur=max(cycle - start, 1))

    # ------------------------------------------------------------------
    # Stall-cause attribution
    # ------------------------------------------------------------------
    def account_stall_skip(self, skipped: int) -> None:
        """Attribute cycles elided by the event-driven fast-forward.

        The fast-forward fires only when no SM issued, so every busy SM
        just recorded a stall cause; that cause holds for the entire
        skipped span because no machine state changes while nothing
        issues and the jump target is the earliest next event on any SM.
        """
        if skipped <= 0 or not self.busy:
            return
        stats = self.stats
        stats.active_cycles += skipped
        stats.idle_cycles += skipped
        if self._stall_cause is not None:
            stats.count_stall(self._stall_cause, self._stall_warp, skipped)

    def _classify_stall(self, cycle: int) -> tuple[str, int]:
        """Why this busy SM failed to issue at ``cycle``: the
        highest-priority cause across resident warps, plus the id of the
        first warp exhibiting it (-1 when the cause is SM-level or the
        catch-all)."""
        runtime_cause = self.resilience.stall_cause(self, cycle)
        if runtime_cause is not None:
            return runtime_cause, -1
        best_cause = "no_ready_warp"
        best_rank = _NO_READY_RANK
        best_warp = -1
        for warp in self.warps:
            cause = self._warp_stall_cause(warp, cycle)
            if cause is None:
                continue
            rank = _CAUSE_RANK[cause]
            if rank < best_rank:
                best_rank = rank
                best_cause = cause
                best_warp = warp.id
        return best_cause, best_warp

    def _warp_stall_cause(self, warp: Warp, cycle: int) -> str | None:
        """This warp's reason for not issuing, or None (DONE warps).

        Computed from the instruction's operand set directly — never
        from the fast-path ready cache — so the plan-driven and
        reference paths attribute identically.
        """
        state = warp.state
        if state is WarpState.IN_RBQ:
            return self.resilience.verify_cause
        if state is WarpState.AT_BARRIER:
            return "barrier"
        if state is not WarpState.ACTIVE:
            return None
        if warp._finished:
            # Issuable as soon as its wakeup passes (retirement slot).
            return "no_ready_warp"
        if self.plan is not None:
            rec = self.plan.records[warp.stack[-1].pc]
            score_ops = rec.score_ops
            timed = rec.is_timed_mem
        else:
            inst = warp.next_instruction()
            score_ops = list(inst.read_regs()) + list(inst.read_preds())
            if inst.dst is not None:
                score_ops.append(inst.dst)
            timed = (inst.fu is FuClass.MEM
                     and inst.space is not Space.PARAM)
        pending = warp.pending
        blocker = None
        blocked_at = cycle
        if pending:
            get = pending.get
            for operand in score_ops:
                at = get(operand, 0)
                if at > blocked_at:
                    blocked_at = at
                    blocker = operand
        if blocker is not None:
            # A scoreboard entry is an in-flight *load* exactly when the
            # memory-side ledger agrees on the ready cycle (see
            # Warp.pending_mem for why stale entries can never match).
            if warp.pending_mem.get(blocker) == pending[blocker]:
                return "memory_latency"
            return "scoreboard_raw"
        if timed and self._lsu_free_at > cycle:
            return "memory_latency"
        return "no_ready_warp"

    def _issuable(self, warp: Warp, cycle: int) -> bool:
        if warp.state is not WarpState.ACTIVE or warp.wakeup_cycle > cycle:
            return False
        if warp.finished:
            return True  # issue slot used to retire the warp
        inst = warp.next_instruction()
        if inst.fu is FuClass.MEM and inst.space is not Space.PARAM \
                and self._lsu_free_at > cycle:
            return False
        return warp.deps_ready(inst, cycle)

    def _latency(self, fu: FuClass) -> int:
        config = self.config
        if fu is FuClass.ALU:
            return config.alu_latency
        if fu is FuClass.MUL:
            return config.mul_latency
        if fu is FuClass.SFU:
            return config.sfu_latency
        return config.alu_latency

    def _issuable_fast(self, warp: Warp, cycle: int) -> bool:
        """Plan-driven ``_issuable``: no isinstance chains, no per-issue
        tuple construction — the scoreboard operand set, LSU usage, and
        FU class come precomputed from the dispatch record.

        Shares the version-validated ready cache with ``next_event``: a
        stalled warp rescans its scoreboard once per state change rather
        than once per scheduler pick.  A cached value that embeds a
        since-expired scoreboard entry is at most that entry's expiry
        cycle, so ``ready_cache > cycle`` agrees with a fresh scan."""
        if warp.state is not WarpState.ACTIVE or warp.wakeup_cycle > cycle:
            return False
        if warp._finished:
            return True  # issue slot used to retire the warp
        if warp.ready_version != warp.version:
            rec = self.plan.records[warp.stack[-1].pc]
            ready = warp.wakeup_cycle
            pending = warp.pending
            if pending:
                get = pending.get
                for operand in rec.score_ops:
                    at = get(operand, 0)
                    if at > ready:
                        ready = at
            warp.ready_cache = ready
            warp.ready_timed = rec.is_timed_mem
            warp.ready_version = warp.version
        if warp.ready_cache > cycle:
            return False
        if warp.ready_timed and self._lsu_free_at > cycle:
            return False
        return True

    def _memo_failed_pick(self, scheduler, cycle: int) -> None:
        """Record why a pick failed: the earliest cycle any managed warp
        could become issuable, plus a validation stamp.

        Sound because every path that makes a warp issuable earlier than
        this bound also bumps its ``version`` (issue prologs, ``wake``,
        ``mark_pending``, state transitions back to ACTIVE, snapshot
        restores) or raises ``_lsu_free_at`` — both covered by the
        stamp, and versions only ever increase so the sum cannot alias.
        Non-ACTIVE warps need no bound: their return to ACTIVE always
        goes through ``wake``.  The failed pick just scanned every warp
        with ``_issuable_fast``, so ready caches of awake unfinished
        warps are fresh; warps still before their wakeup are bounded by
        ``wakeup_cycle`` itself.
        """
        best = 1 << 60
        vsum = 0
        lsu = self._lsu_free_at
        for w in scheduler.warps:
            vsum += w.version
            if w.state is not WarpState.ACTIVE:
                continue
            if w._finished:
                ready = w.wakeup_cycle
            elif w.ready_version == w.version:
                ready = w.ready_cache
                if w.ready_timed and lsu > ready:
                    ready = lsu
            else:
                ready = w.wakeup_cycle
            if ready < best:
                best = ready
        scheduler.none_until = best
        scheduler.none_vstamp = vsum
        scheduler.none_lsu = lsu

    def _issue_fast(self, warp: Warp, cycle: int) -> None:
        """Plan-driven ``_issue``: table dispatch over precomputed records."""
        if warp._finished:
            self._retire(warp, cycle)
            return
        rec = self.plan.records[warp.stack[-1].pc]
        warp.wake(cycle + 1)
        warp.insts_since_boundary += 1
        self.stats.count_issue(rec.fu, rec.shadow, rec.ckpt)
        kind = rec.kind

        if kind == K_VALUE:
            ctx = warp.ctx
            active = warp.stack[-1].mask & warp._not_exited
            mask = rec.guard(ctx, active)
            access = rec.run(ctx, mask, self.global_mem, warp.block.shared)
            if rec.track_reg_write:
                warp.last_write = rec.dst
                warp.last_write_pc = warp.stack[-1].pc
                warp.last_write_mask = mask
            elif rec.track_pred_write:
                warp.last_pred_write = rec.dst
                warp.last_pred_write_pc = warp.stack[-1].pc
                # A predicate write that aliases its own guard changes
                # the post-execution mask (which is what the reference
                # path records); recompute only in that case.
                warp.last_pred_write_mask = (rec.guard(ctx, active)
                                             if rec.guard_recheck else mask)
            if rec.track_shared_store and access is not None:
                warp.last_shared_write = access.addresses
            liveness = self.liveness
            if liveness is not None:
                if rec.src_reg_rows is not None:
                    liveness.reg_read[warp.id][rec.src_reg_rows] = cycle
                if access is not None:
                    liveness.note(access, warp.block, cycle)
            if rec.is_timed_mem:
                self._time_memory_fast(warp, rec, access, cycle)
            elif rec.dst is not None:
                warp.pending[rec.dst] = cycle + rec.latency
            warp.advance()
            self._after_pc_change(warp, cycle)
            return
        if kind == K_BRA:
            warp.take_branch_planned(rec)
            self._after_pc_change(warp, cycle)
            return
        if kind == K_BAR:
            self._arrive_barrier(warp, cycle)
            return
        # K_EXIT
        warp.exit_lanes_planned(rec)
        if warp._finished:
            self._retire(warp, cycle)
        else:
            self._after_pc_change(warp, cycle)

    def _issue(self, warp: Warp, cycle: int) -> None:
        if warp.finished:
            self._retire(warp, cycle)
            return
        inst = warp.next_instruction()
        warp.wake(cycle + 1)
        warp.insts_since_boundary += 1
        self.stats.count_issue(inst.fu, inst.shadow, inst.ckpt)

        if inst.op is Op.BRA:
            reconv = self.reconv.get(warp.pc, len(self.kernel.instructions))
            warp.take_branch(inst, reconv)
            self._after_pc_change(warp, cycle)
            return
        if inst.op is Op.BAR:
            self._arrive_barrier(warp, cycle)
            return
        if inst.op is Op.EXIT:
            warp.exit_lanes(inst)
            if warp.finished:
                self._retire(warp, cycle)
            else:
                self._after_pc_change(warp, cycle)
            return

        active = warp.active_mask
        access = execute(inst, warp.ctx, active,
                         self.global_mem, warp.block.shared)
        if isinstance(inst.dst, Reg) and not inst.shadow:
            warp.last_write = inst.dst
            warp.last_write_pc = warp.pc
            # Lanes actually written: a strike can only corrupt values in
            # flight, i.e. in these lanes (the rest are at rest in the
            # ECC-protected register file).
            warp.last_write_mask = guard_mask(inst, warp.ctx, active)
        elif isinstance(inst.dst, Pred) and not inst.shadow:
            # Predicate produced in flight: a strike can flip the guard
            # before any consumer reads it (the predicate file itself is
            # ECC-protected at rest, like the register file).
            warp.last_pred_write = inst.dst
            warp.last_pred_write_pc = warp.pc
            warp.last_pred_write_mask = guard_mask(inst, warp.ctx, active)
        if (access is not None and access.space is Space.SHARED
                and access.is_store and not access.is_atomic
                and not inst.shadow):
            # Shared-memory words written through the (unprotected) store
            # datapath this region: the in-flight shared fault surface.
            warp.last_shared_write = access.addresses
        liveness = self.liveness
        if liveness is not None:
            rows = [reg.index for reg in inst.read_regs()]
            if rows:
                liveness.reg_read[warp.id][rows] = cycle
            if access is not None:
                liveness.note(access, warp.block, cycle)
        if inst.fu is FuClass.MEM and inst.space is not Space.PARAM:
            self._time_memory(warp, inst, access, cycle)
        else:
            warp.mark_pending(inst.dst, cycle + self._latency(inst.fu))
        warp.advance()
        self._after_pc_change(warp, cycle)

    def _after_pc_change(self, warp: Warp, cycle: int) -> None:
        if warp.finished:
            self._retire(warp, cycle)
            return
        warp.retire_pending(cycle)
        self.skip_markers(warp, cycle)

    def _retire(self, warp: Warp, cycle: int) -> None:
        if warp.state is WarpState.DONE:
            return
        if self.resilience.on_warp_exit(self, warp, cycle):
            warp.state = WarpState.DONE
            self._note_warp_done(warp)
            self._check_barrier_release(warp.block, cycle)

    # ------------------------------------------------------------------
    # Memory timing
    # ------------------------------------------------------------------
    def _time_memory(self, warp: Warp, inst: Instruction,
                     access: MemAccess | None, cycle: int) -> None:
        config = self.config
        if access is None:  # fully predicated-off memory op
            warp.mark_pending(inst.dst, cycle + 1)
            return
        if access.is_atomic:
            lanes = len(access.addresses)
            latency = config.atomic_latency + lanes
            occupancy = max(1, lanes // 2)
            self.stats.atomic_ops += lanes
        elif access.space is Space.SHARED:
            degree = self._bank_conflict_degree(access.addresses)
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
            if self.tracer is not None and latency > config.l1_latency:
                self.tracer.event("mem_miss", cycle, self.id, warp.id,
                                  {"latency": latency,
                                   "segments": occupancy})
        self._lsu_free_at = max(self._lsu_free_at, cycle) + occupancy
        if inst.info.is_load or inst.info.is_atomic:
            warp.mark_pending(inst.dst, cycle + latency)
            if inst.dst is not None:
                warp.pending_mem[inst.dst] = cycle + latency

    def _time_memory_fast(self, warp: Warp, rec, access: MemAccess | None,
                          cycle: int) -> None:
        """Plan-driven ``_time_memory`` with coalescing fast paths for
        the dominant (uniform / unit-stride) access patterns."""
        config = self.config
        if access is None:  # fully predicated-off memory op
            if rec.dst is not None:
                warp.pending[rec.dst] = cycle + 1
            return
        timing = rec.timing
        if timing == T_ATOMIC:
            lanes = len(access.addresses)
            latency = config.atomic_latency + lanes
            occupancy = max(1, lanes // 2)
            self.stats.atomic_ops += lanes
        elif timing == T_SHARED:
            degree = _bank_degree(access.addresses)
            latency = config.shared_latency + (degree - 1)
            occupancy = degree
            self.stats.shared_accesses += 1
            self.stats.shared_bank_conflicts += degree - 1
        else:
            line_words = config.l1.line_words
            segments = _coalesce_segments(access.addresses, line_words)
            occupancy = len(segments)
            latency = 0
            is_store = access.is_store
            l1, l2 = self.l1, self.l2
            for segment in segments:
                word = int(segment) * line_words
                if l1.access(word, is_store=is_store):
                    seg_latency = config.l1_latency
                elif l2.access(word, is_store=is_store):
                    seg_latency = config.l2_latency
                else:
                    seg_latency = config.dram_latency
                if seg_latency > latency:
                    latency = seg_latency
            self.stats.global_transactions += occupancy
            if self.tracer is not None and latency > config.l1_latency:
                self.tracer.event("mem_miss", cycle, self.id, warp.id,
                                  {"latency": latency,
                                   "segments": occupancy})
        self._lsu_free_at = max(self._lsu_free_at, cycle) + occupancy
        if rec.needs_writeback and rec.dst is not None:
            warp.pending[rec.dst] = cycle + latency
            warp.pending_mem[rec.dst] = cycle + latency

    @staticmethod
    def _bank_conflict_degree(addresses: np.ndarray) -> int:
        unique = np.unique(addresses)
        if len(unique) <= 1:
            return 1
        _, counts = np.unique(unique % 32, return_counts=True)
        return int(counts.max())

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _arrive_barrier(self, warp: Warp, cycle: int) -> None:
        """Sense-free monotonic-counter barrier.

        Each dynamic BAR execution increments the warp's generation
        counter; a warp waits until every live warp of its block has
        reached its generation.  The counter is part of the recovery
        snapshot, which makes region rollback across barriers safe: a
        rolled-back warp re-arrives at the same generation and warps
        that never rolled back already satisfy the release condition.
        """
        warp.barrier_count += 1
        warp.state = WarpState.AT_BARRIER
        warp.advance()
        if self.tracer is not None:
            self.tracer.event("barrier_arrive", cycle, self.id, warp.id,
                              {"generation": warp.barrier_count})
        self._check_barrier_release(warp.block, cycle)

    def _check_barrier_release(self, block: ThreadBlock, cycle: int) -> None:
        alive = [w for w in block.warps if w.state is not WarpState.DONE]
        if not alive:
            return
        reached = min(w.barrier_count for w in alive)
        for warp in alive:
            if (warp.state is WarpState.AT_BARRIER
                    and warp.barrier_count <= reached):
                warp.state = WarpState.ACTIVE
                warp.wake(cycle + 1)
                if self.tracer is not None:
                    self.tracer.event("barrier_release", cycle, self.id,
                                      warp.id,
                                      {"generation": warp.barrier_count})
                self.skip_markers(warp, cycle + 1)

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this SM might issue.

        With a plan, each warp's ready cycle is cached and revalidated
        against its ``version`` counter (bumped by ``Warp.wake`` and
        scoreboard writes), so a long stall recomputes only the warps
        whose state actually changed.  The LSU bound is applied at scan
        time because ``_lsu_free_at`` is SM-global and changes without
        touching warp versions.  Cached entries that embed since-expired
        scoreboard values can only overestimate by amounts at or below
        the current cycle, which the ``max(cycle + 1, ...)`` clamp in
        ``Gpu._fast_forward`` makes indistinguishable from a fresh
        computation.
        """
        best = self.resilience.next_event(self)
        plan = self.plan
        if plan is None:
            for warp in self.warps:
                if warp.state is not WarpState.ACTIVE:
                    continue
                if warp.finished:
                    return cycle + 1
                inst = warp.next_instruction()
                ready = max(warp.earliest_dep_cycle(inst), warp.wakeup_cycle)
                if inst.fu is FuClass.MEM and inst.space is not Space.PARAM:
                    ready = max(ready, self._lsu_free_at)
                best = min(best, ready)
            return best
        records = plan.records
        lsu_free_at = self._lsu_free_at
        for warp in self.warps:
            if warp.state is not WarpState.ACTIVE:
                continue
            if warp._finished:
                return cycle + 1
            if warp.ready_version == warp.version:
                ready = warp.ready_cache
                timed = warp.ready_timed
            else:
                rec = records[warp.stack[-1].pc]
                ready = warp.wakeup_cycle
                pending = warp.pending
                if pending:
                    get = pending.get
                    for operand in rec.score_ops:
                        at = get(operand, 0)
                        if at > ready:
                            ready = at
                timed = rec.is_timed_mem
                warp.ready_cache = ready
                warp.ready_timed = timed
                warp.ready_version = warp.version
            if timed and lsu_free_at > ready:
                ready = lsu_free_at
            if ready < best:
                best = ready
        return best


def _coalesce_segments(addrs: np.ndarray, line_words: int) -> np.ndarray:
    """Cache-line segments touched, ascending — ``np.unique`` semantics
    with O(n) fast paths for the dominant patterns: a uniform (broadcast)
    access is one segment; an ascending unit-stride access covers every
    line between its endpoints exactly once."""
    n = addrs.shape[0]
    if n == 1:
        return addrs // line_words
    first = int(addrs[0])
    last = int(addrs[-1])
    if first == last:
        if not (addrs != first).any():
            return addrs[:1] // line_words
    elif last - first == n - 1 and bool((np.diff(addrs) == 1).all()):
        return np.arange(first // line_words, last // line_words + 1,
                         dtype=np.int64)
    return np.unique(addrs // line_words)


def _bank_degree(addrs: np.ndarray) -> int:
    """Shared-memory bank conflict degree — semantics of
    ``Sm._bank_conflict_degree`` with conflict-free fast paths (uniform
    accesses broadcast; at most 32 consecutive addresses hit 32 distinct
    banks) and an O(lanes) bucket count instead of two ``np.unique``
    sorts in the general case."""
    n = addrs.shape[0]
    if n == 1:
        return 1
    first = int(addrs[0])
    last = int(addrs[-1])
    if first == last:
        if not (addrs != first).any():
            return 1
    elif (last - first == n - 1 and n <= 32
            and bool((np.diff(addrs) == 1).all())):
        return 1
    # Degree = max count of distinct addresses per bank (addresses are
    # bounds-checked non-negative, so ``& 31`` is ``% 32``).
    distinct = set(addrs.tolist())
    if len(distinct) <= 1:
        return 1
    counts = [0] * 32
    best = 1
    for addr in distinct:
        bank = addr & 31
        hits = counts[bank] + 1
        counts[bank] = hits
        if hits > best:
            best = hits
    return best
