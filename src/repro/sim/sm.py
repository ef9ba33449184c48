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
from ..isa import Kernel
from .caches import Cache
from .functional import MemAccess
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

    #: Recovery structures that the fault injector's ``rpt``/``rbq``
    #: sites strike and the sanitizer checks, None on a runtime without
    #: them: the Recovery PC Table, and scheduler id -> Region Boundary
    #: Queue (``harden_rbq`` says whether strikes on the queues are
    #: absorbed).
    rpt = None
    rbqs = None
    harden_rbq = True

    #: Whether the SM's sensor detections drive :meth:`recover`.  Only
    #: Flame consumes them; compare schemes detect by redundancy.
    recovers_on_detection = False

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

    def on_strike(self, sm: "Sm", record, cycle: int) -> None:
        """A strike landed on ``record.warp_id``'s work (fault injector)."""

    def recover(self, cycle: int) -> None:
        """A sensor detected a strike on this SM; called only when
        :attr:`recovers_on_detection` is set."""

    def capture_state(self, sm: "Sm"):
        """Plain-data snapshot of runtime state (None = stateless)."""
        return None

    def restore_state(self, state, sm: "Sm", warp_map: dict) -> None:
        """Rebuild runtime state from :meth:`capture_state` data."""

    def state_equals(self, sm: "Sm", state) -> bool:
        """Convergence-comparison equality against :meth:`capture_state`
        data.  Stateful runtimes override this; they may exclude pure
        observers that provably cannot influence the continuation at a
        quiescent boundary (see the recovery runtime's rollback window)."""
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
        self.plan: ExecPlan | None = None
        self._lsu_free_at = 0
        self._next_sched = 0
        #: Blocks whose live-warp counter hit zero (drained by Gpu.launch).
        self._done_blocks: list[ThreadBlock] = []
        #: Golden-run memory access tracker (set by Gpu.launch when a
        #: checkpoint recorder is attached; None on ordinary runs).
        self.liveness = None
        #: Event tracer (``repro.obs.Tracer``) or None.  The None case
        #: costs one check per tick and one per issued instruction.
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
                  scheduler: str, plan: ExecPlan) -> None:
        self.kernel = kernel
        self.global_mem = global_mem
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
        if not blocks:
            # A drained SM carries no stall into its next tick, which
            # closes its open trace stall span.
            self._stall_cause = None
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
        rb_flags = self.plan.rb_flags
        while (warp.state is WarpState.ACTIVE and not warp._finished
               and rb_flags[warp.stack[-1].pc]):
            self.stats.boundary_instructions += 1
            pc_before = warp.stack[-1].pc
            self.resilience.on_reach_boundary(self, warp, cycle)
            if (warp.state is not WarpState.ACTIVE
                    or warp.stack[-1].pc == pc_before):
                break

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Run one cycle; returns the number of instructions issued."""
        if self._stall_cause is not None and self.next_event(cycle) > cycle:
            # Idle elision: this SM classified a stall on its last tick
            # and cannot issue before a future cycle, so a full tick
            # would re-derive the same stall cause — account the idle
            # cycle directly (the ``next_event`` trust of
            # ``Gpu._fast_forward``, applied per SM).  An elided cycle
            # skips the resilience tick too, and an open trace stall
            # span simply continues.
            self.account_stall_skip(1)
            return 0
        self.resilience.tick(self, cycle)
        tracer = self.tracer
        if not self.blocks:
            # No warps to pick from and no stall to attribute (the
            # failed-pick memo is derived state that ``attach`` resets).
            if tracer is not None:
                self.trace_flush(cycle)
            return 0
        issuable, issue = self._issuable, self._issue
        issued = 0
        for scheduler in self.schedulers:
            if scheduler.none_until > cycle:
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
                if scheduler.pick_pure_on_fail:
                    self._memo_failed_pick(scheduler, cycle)
                continue
            if tracer is None:
                issue(warp, cycle)
            else:
                pc = warp.stack[-1].pc
                retiring = warp.finished
                issue(warp, cycle)
                if retiring:
                    tracer.event("warp_retire", cycle, self.id, warp.id)
                else:
                    tracer.event("issue", cycle, self.id, warp.id,
                                 {"pc": pc,
                                  "op": self.plan.records[pc].label})
            issued += 1
        # Blocks leave only between ticks (``Gpu.launch`` retires them),
        # so the SM is still busy here.
        stats = self.stats
        stats.active_cycles += 1
        if issued:
            stats.issue_cycles += 1
            self._stall_cause = None
            if tracer is not None:
                self.trace_flush(cycle)
        else:
            stats.idle_cycles += 1
            cause, culprit = self._classify_stall(cycle)
            stats.count_stall(cause, culprit)
            self._stall_cause = cause
            self._stall_warp = culprit
            if tracer is not None and self._trace_stall_cause != cause:
                self.trace_flush(cycle)
                self._trace_stall_cause = cause
                self._trace_stall_warp = culprit
                self._trace_stall_start = cycle
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

        Computed from the record's scoreboard operands directly, never
        from the ready cache, so attribution does not depend on when
        that memo was last refreshed.
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
        rec = self.plan.records[warp.stack[-1].pc]
        pending = warp.pending
        blocker = None
        blocked_at = cycle
        if pending:
            get = pending.get
            for operand in rec.score_ops:
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
        if rec.is_timed_mem and self._lsu_free_at > cycle:
            return "memory_latency"
        return "no_ready_warp"

    def _issuable(self, warp: Warp, cycle: int) -> bool:
        """Whether ``warp`` can issue at ``cycle``: active and awake, no
        operand of its next record still in flight on the scoreboard,
        and the LSU free if that record is a timed memory access.  The
        operand set and LSU usage come precomputed from the record.

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
        state transitions back to ACTIVE, snapshot restores) or raises
        ``_lsu_free_at`` — both covered by the stamp, and versions only
        ever increase so the sum cannot alias.
        Non-ACTIVE warps need no bound: their return to ACTIVE always
        goes through ``wake``.  The failed pick just scanned every warp
        with ``_issuable``, so ready caches of awake unfinished
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

    def _issue(self, warp: Warp, cycle: int) -> None:
        """Issue ``warp``'s next record: table dispatch over the plan."""
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
            # In-flight fault surface: a strike can corrupt only what
            # this region produced and has not yet put at rest in the
            # ECC-protected register and predicate files.
            if rec.track_reg_write:
                warp.last_write = rec.dst
                warp.last_write_pc = warp.stack[-1].pc
                warp.last_write_mask = mask
            elif rec.track_pred_write:
                warp.last_pred_write = rec.dst
                warp.last_pred_write_pc = warp.stack[-1].pc
                # The lanes recorded are the post-execution guard mask,
                # which differs only for a predicate write that aliases
                # its own guard; recompute only in that case.
                warp.last_pred_write_mask = (rec.guard(ctx, active)
                                             if rec.guard_recheck else mask)
            if rec.track_shared_store and access is not None:
                # Shared words written through the unprotected store
                # datapath this region.
                warp.last_shared_write = access.addresses
            liveness = self.liveness
            if liveness is not None:
                if rec.src_reg_rows is not None:
                    liveness.reg_read[warp.id][rec.src_reg_rows] = cycle
                if access is not None:
                    liveness.note(access, warp.block, cycle)
            if rec.is_timed_mem:
                self._time_memory(warp, rec, access, cycle)
            elif rec.dst is not None:
                warp.pending[rec.dst] = cycle + rec.latency
            warp.advance()
            self._after_pc_change(warp, cycle)
            return
        if kind == K_BRA:
            warp.take_branch(rec)
            self._after_pc_change(warp, cycle)
            return
        if kind == K_BAR:
            self._arrive_barrier(warp, cycle)
            return
        # K_EXIT
        warp.exit_lanes(rec)
        if warp._finished:
            self._retire(warp, cycle)
        else:
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
    def _time_memory(self, warp: Warp, rec, access: MemAccess | None,
                     cycle: int) -> None:
        """LSU occupancy, cache lookups and writeback latency of one
        timed memory access.  The coalescing and bank-degree helpers
        work on Python ints, with shortcuts for the dominant (uniform /
        unit-stride) access patterns."""
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
                word = segment * line_words
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

        Each warp's ready cycle is cached and revalidated against its
        ``version`` counter (bumped by ``Warp.wake`` and
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
        records = self.plan.records
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


def _coalesce_segments(addrs: np.ndarray, line_words: int) -> list[int]:
    """Cache-line segments touched, ascending, as Python ints —
    ``np.unique(addrs // line_words)`` on one ``tolist`` with O(n) fast
    paths for the dominant patterns: a uniform (broadcast) access is one
    segment; an ascending unit-stride access covers every line between
    its endpoints exactly once."""
    lanes = addrs.tolist()
    first = lanes[0]
    last = lanes[-1]
    n = len(lanes)
    if first == last:
        if lanes.count(first) == n:
            return [first // line_words]
    elif last - first == n - 1 and lanes == list(range(first, last + 1)):
        return list(range(first // line_words, last // line_words + 1))
    return sorted({addr // line_words for addr in lanes})


def _bank_degree(addrs: np.ndarray) -> int:
    """Shared-memory bank conflict degree: the most distinct addresses
    that fall in one of the 32 banks (1 when at most one distinct
    address).  Computed on one ``tolist``, with conflict-free fast paths
    (uniform accesses broadcast; at most 32 consecutive addresses hit 32
    distinct banks) and an O(lanes) bucket count instead of NumPy
    sorts in the general case."""
    lanes = addrs.tolist()
    first = lanes[0]
    last = lanes[-1]
    n = len(lanes)
    if first == last:
        if lanes.count(first) == n:
            return 1
    elif (last - first == n - 1 and n <= 32
            and lanes == list(range(first, last + 1))):
        return 1
    # Degree = max count of distinct addresses per bank (addresses are
    # bounds-checked non-negative, so ``& 31`` is ``% 32``).
    distinct = set(lanes)
    counts = [0] * 32
    best = 1
    for addr in distinct:
        bank = addr & 31
        hits = counts[bank] + 1
        counts[bank] = hits
        if hits > best:
            best = hits
    return best
