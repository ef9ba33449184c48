"""Streaming multiprocessor timing model.

Each SM holds resident thread blocks, per-scheduler warp pools, a shared
LSU, and an L1 cache.  A pluggable :class:`ResilienceRuntime` observes
region boundaries and controls verification descheduling — the null
runtime (baseline and compile-only schemes) treats boundary markers as
free, while Flame's runtime (``repro.core``) implements the RBQ/RPT
protocol on these hooks.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

import numpy as np

from ..arch import GpuConfig
from ..errors import SimError
from ..isa import FuClass, Instruction, Kernel, Op, Pred, Reg, Space
from .caches import Cache
from .functional import MemAccess, execute, guard_mask
from .plan import ExecPlan, K_BAR, K_BRA, K_EXIT, K_VALUE, T_ATOMIC, T_SHARED
from .schedulers import WarpScheduler, make_scheduler
from .stats import STALL_CAUSES, SimStats
from .superblock import build_prefetch
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
        # Superblock batching (repro.sim.superblock).  ``_value_epoch``
        # bumps whenever the fault injector acts anywhere on the GPU,
        # orphaning every outstanding value prefetch; ``_batching`` and
        # ``_scripts`` are launch-level enables set by ``Gpu.launch``;
        # ``_script_cap`` is a callable giving the next observer event
        # (strike, checkpoint capture, convergence check) scripts must
        # not span, or None when no observer is attached.
        self._value_epoch = 0
        self._batching = False
        self._scripts = False
        self._script_cap = None
        # Memory-aware scripted windows (``_open_window``): a launch-level
        # enable set by ``Gpu.launch`` (GTO + null resilience + no
        # recorder + single busy SM), the launch cycle budget windows
        # must not outrun, and the committed per-cycle accounting of the
        # active window — a list of contiguous ``(start, end, cause,
        # culprit)`` segments (``cause None`` = every cycle issues) that
        # ``_consume_window`` replays cycle-indexed as ``tick`` and the
        # fast-forward machinery ask for them.
        self._windows = False
        self._win_budget = NEVER
        self._win_segs = None
        self._win_i = 0
        #: Plan-time memory signatures (``plan.analyze_mem_strides``):
        #: {pc: per-lane address stride} for timed-mem records with a
        #: proven affine pattern, resolved per launch geometry by
        #: ``Gpu.launch``.  ``_time_memory_fast`` turns a proven stride
        #: into closed-form coalescing/bank-degree answers after a
        #: scalar endpoint verification (which also rejects the one
        #: pattern static affinity cannot see: int64 truncation of a
        #: fractional base crossing zero).
        self._mem_sigs = None
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
        # An active memory window scripts *future* cycles of the run the
        # snapshot came from; the restore target re-derives its own.
        self._win_segs = None
        self._win_i = 0

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
        if fast:
            if self._win_segs is not None:
                booked = self._consume_window(cycle)
                if booked >= 0:
                    return booked
            if self._windows and self.warps:
                clear = True
                for scheduler in self.schedulers:
                    if scheduler.script_until >= cycle:
                        clear = False
                        break
                if clear and self._open_window(cycle):
                    return self._consume_window(cycle)
        for scheduler in self.schedulers:
            if scheduler.script_until >= cycle:
                # This slot's current warp already had its issues for
                # this cycle bulk-applied by a timing script; it counts
                # as an issue without re-running pick (GTO provably
                # re-picks the same warp throughout the script window).
                issued += 1
                continue
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

    # ------------------------------------------------------------------
    # Memory-aware scripted windows
    # ------------------------------------------------------------------
    def _open_window(self, cycle: int) -> bool:
        """Simulate the whole SM forward from ``cycle`` in one flat loop
        and record per-cycle accounting as contiguous segments.

        Soundness (why bulk-simulating is byte-identical to per-cycle
        ticks — see EXPERIMENTS.md for the full argument):

        * Both schedulers run in issue order each cycle with the exact
          GTO pick semantics, including ``_current`` turning None on a
          failed pick, so every pick — and therefore every LSU and cache
          access order — matches the live machine.
        * The window stops *before* any cycle at which a barrier, exit,
          or finished-warp retire slot could issue (those records never
          use the LSU, so their issuability is known at cycle top), and
          strictly before the next observer event (strike, checkpoint,
          convergence check) and the launch budget.  Everything that
          remains is straight-line value/branch execution whose
          intermediate cycles nothing can observe.
        * Gap cycles are booked with one stall classification taken at
          the gap's first cycle — the same cause the live machine's
          idle-elision/fast-forward path extends over the whole gap.
        * Windows always end on an issue cycle (trailing gaps are
          discarded un-booked): the committed machine state at the
          window end is exactly the live state, so post-window stall
          classification falls to the normal machinery unchanged.

        Returns True when a window was committed (machine state has
        advanced to the window end; ``_win_segs`` holds the accounting).
        A failed open mutates nothing.
        """
        limit = self._win_budget
        cap = self._script_cap
        if cap is not None:
            horizon = cap(cycle) - 1
            if horizon < limit:
                limit = horizon
        if limit < cycle:
            return False
        plan = self.plan
        records = plan.records
        rb_flags = plan.rb_flags
        mem = self.global_mem
        stats = self.stats
        schedulers = self.schedulers
        nsched = len(schedulers)
        ACTIVE = WarpState.ACTIVE

        # Earliest-ready memo, valid in-window: score_ops only ever name
        # the warp's own registers, so a warp's ready cycle changes only
        # when it issues (entry dropped there).  The LSU horizon is
        # checked at pick time, never embedded.
        rcache: dict[Warp, tuple[int, bool]] = {}

        def ready_of(w):
            entry = rcache.get(w)
            if entry is None:
                rec = records[w.stack[-1].pc]
                r = w.wakeup_cycle
                pending = w.pending
                if pending:
                    get = pending.get
                    for operand in rec.score_ops:
                        at = get(operand, 0)
                        if at > r:
                            r = at
                entry = (r, rec.is_timed_mem)
                rcache[w] = entry
            return entry

        # Warps whose next issue would end the window: at a BAR or EXIT
        # record, or finished (their next issue slot is the retirement).
        stoppers = set()
        for w in self.warps:
            if w.state is ACTIVE and (w._finished or records[
                    w.stack[-1].pc].kind >= K_BAR):
                stoppers.add(w)

        # The live GTO pick treats a detached ``_current`` as absent;
        # membership cannot change in-window, so validate once.
        cur = []
        for sched in schedulers:
            w = sched._current
            cur.append(w if w is not None and w in sched.warps else None)

        # Issue execution below is ``_issue_fast`` inlined and trimmed
        # for the window invariants: no per-issue ``wake`` version bump
        # or ``retire_pending`` (both provably deferrable to commit),
        # stats accumulated per-pc and booked once, scripts bypassed
        # (the loop itself owns cycle accounting) — but the cross-warp
        # value-prefetch discipline is kept intact, epoch/pc validation
        # included, so every value lands exactly as the live path's.
        epoch = self._value_epoch
        batching = self._batching and self.liveness is None
        sb_len = plan.sb_len
        superblock_info = plan.superblock_info
        warps_all = self.warps
        icounts = [0] * len(records)
        issued_at: dict[Warp, int] = {}
        sb_exec = sb_insts = inval = no_peer = 0
        segs = []
        dense_start = -1
        issues = 0
        c = cycle
        while c <= limit:
            stop = False
            for w in stoppers:
                if w.wakeup_cycle <= c and (w._finished
                                            or ready_of(w)[0] <= c):
                    stop = True
                    break
            if stop:
                break
            nissued = 0
            for k in range(nsched):
                sched = schedulers[k]
                pick = cur[k]
                if pick is not None:
                    if (pick.state is not ACTIVE or pick._finished
                            or pick.wakeup_cycle > c):
                        pick = None
                    else:
                        r, timed = ready_of(pick)
                        if r > c or (timed and self._lsu_free_at > c):
                            pick = None
                if pick is None:
                    for cand in sched.warps:
                        if (cand.state is not ACTIVE or cand._finished
                                or cand.wakeup_cycle > c):
                            continue
                        r, timed = ready_of(cand)
                        if r <= c and not (timed
                                           and self._lsu_free_at > c):
                            pick = cand
                            break
                    cur[k] = pick
                if pick is None:
                    continue
                nissued += 1
                pc = pick.stack[-1].pc
                rec = records[pc]
                pick.wakeup_cycle = c + 1
                pick.insts_since_boundary += 1
                icounts[pc] += 1
                if rec.kind == K_VALUE:
                    pf = pick._pf
                    if pf is not None and (pf.epoch != epoch
                                           or pc != pf.pc0 + pick._pf_j):
                        pick._pf = pf = None
                        inval += 1
                    if pf is None and batching and sb_len[pc] > 1:
                        group = [w for w in warps_all if not w._finished
                                 and w.stack[-1].pc == pc]
                        if len(group) > 1:
                            build_prefetch(plan, superblock_info(pc),
                                           group, epoch)
                            pf = pick._pf
                            sb_exec += 1
                        else:
                            no_peer += 1
                    if pf is not None:
                        j = pick._pf_j
                        i = pick._pf_i
                        out = pf.outs[j]
                        ctx = pick.ctx
                        if out is not None:
                            if rec.dst_is_pred:
                                ctx.preds[rec.dst_index][...] = out[i]
                            else:
                                ctx.regs[rec.dst_index][...] = out[i]
                        if rec.track_reg_write:
                            pick.last_write = rec.dst
                            pick.last_write_pc = pc
                            pick.last_write_mask = pf.masks[j][i]
                        elif rec.track_pred_write:
                            pick.last_pred_write = rec.dst
                            pick.last_pred_write_pc = pc
                            pick.last_pred_write_mask = pf.masks[j][i]
                        if rec.dst is not None:
                            pick.pending[rec.dst] = c + rec.latency
                        if j + 1 < pf.n:
                            pick._pf_j = j + 1
                        else:
                            pick._pf = None
                        sb_insts += 1
                        pick.advance()
                    else:
                        ctx = pick.ctx
                        active = pick.stack[-1].mask & pick._not_exited
                        mask = rec.guard(ctx, active)
                        access = rec.run(ctx, mask, mem,
                                         pick.block.shared)
                        if rec.track_reg_write:
                            pick.last_write = rec.dst
                            pick.last_write_pc = pc
                            pick.last_write_mask = mask
                        elif rec.track_pred_write:
                            pick.last_pred_write = rec.dst
                            pick.last_pred_write_pc = pc
                            pick.last_pred_write_mask = (
                                rec.guard(ctx, active)
                                if rec.guard_recheck else mask)
                        if rec.track_shared_store and access is not None:
                            pick.last_shared_write = access.addresses
                        if rec.is_timed_mem:
                            self._time_memory_fast(pick, rec, access, c)
                        elif rec.dst is not None:
                            pick.pending[rec.dst] = c + rec.latency
                        pick.advance()
                else:  # K_BRA (BAR/EXIT/retire slots stop the window)
                    pick.take_branch_planned(rec)
                npc = pick.stack[-1].pc
                if rb_flags[npc]:
                    self.skip_markers(pick, c)
                    npc = pick.stack[-1].pc
                rcache.pop(pick, None)
                issued_at[pick] = c
                if pick._finished or records[npc].kind >= K_BAR:
                    stoppers.add(pick)
                else:
                    stoppers.discard(pick)
            if nissued:
                if dense_start < 0:
                    dense_start = c
                issues += nissued
                c += 1
                continue
            # Gap: close the dense run, classify the stall once (the
            # cause provably holds through the gap — exactly what the
            # live fast-forward books), and skip to the next ready
            # cycle.
            if dense_start >= 0:
                segs.append((dense_start, c - 1, None, -1))
                dense_start = -1
            lsu = self._lsu_free_at
            nxt = NEVER
            for w in warps_all:
                if w.state is not ACTIVE:
                    continue
                if w._finished:
                    r = w.wakeup_cycle
                else:
                    r, timed = ready_of(w)
                    if timed and lsu > r:
                        r = lsu
                if r < nxt:
                    nxt = r
            if nxt > limit or nxt >= NEVER:
                break
            if nxt <= c:  # unreachable (nothing issuable at c)
                nxt = c + 1
            cause, culprit = self._classify_stall(c)
            segs.append((c, nxt - 1, cause, culprit))
            c = nxt
        if dense_start >= 0:
            segs.append((dense_start, c - 1, None, -1))
        # Trailing gaps are never booked: the committed state at the
        # last issue cycle is the exact live state, so the normal
        # machinery re-derives those stalls identically.
        while segs and segs[-1][2] is not None:
            segs.pop()
        if not segs:
            return False
        for w, t in issued_at.items():
            # One retire at the warp's last issue replaces the per-issue
            # retires: both leave exactly the pending entries whose
            # ready cycle exceeds that final cycle.  The version bump
            # invalidates every scheduler/ready memo at once.
            w.retire_pending(t)
            w.version += 1
        for k in range(nsched):
            schedulers[k]._current = cur[k]
        for pc, n in enumerate(icounts):
            if n:
                rec = records[pc]
                stats.instructions += n
                stats.by_fu[rec.fu] += n
                if rec.shadow:
                    stats.shadow_instructions += n
                if rec.ckpt:
                    stats.ckpt_instructions += n
        stats.superblocks_executed += sb_exec
        stats.superblock_insts += sb_insts
        if inval or no_peer:
            fb = stats.superblock_fallbacks
            if inval:
                fb["invalidated"] = fb.get("invalidated", 0) + inval
            if no_peer:
                fb["no_peer"] = fb.get("no_peer", 0) + no_peer
        self._win_segs = segs
        self._win_i = 0
        stats.mem_windows_executed += 1
        stats.mem_window_insts += issues
        return True

    def _consume_window(self, cycle: int) -> int:
        """Book ``cycle`` from the active window's segment accounting;
        returns the issue count for ``tick`` (1 dense / 0 gap), or -1
        when the window is exhausted (caller falls through to the
        normal per-cycle path)."""
        segs = self._win_segs
        i = self._win_i
        n = len(segs)
        while i < n and segs[i][1] < cycle:
            i += 1
        if i >= n:
            self._win_segs = None
            self._win_i = 0
            return -1
        self._win_i = i
        start, end, cause, culprit = segs[i]
        stats = self.stats
        stats.active_cycles += 1
        if cause is None:
            stats.issue_cycles += 1
            self._stall_cause = None
            # Every cycle through ``end`` issues: let the launch loop's
            # jump elision book them in bulk, exactly like a script.
            for sched in self.schedulers:
                sched.script_until = end
            return 1
        stats.idle_cycles += 1
        stats.count_stall(cause, culprit)
        self._stall_cause = cause
        self._stall_warp = culprit
        return 0

    def _issue_fast(self, warp: Warp, cycle: int) -> None:
        """Plan-driven ``_issue``: table dispatch over precomputed records."""
        if warp._finished:
            self._retire(warp, cycle)
            return
        plan = self.plan
        rec = plan.records[warp.stack[-1].pc]
        warp.wake(cycle + 1)
        warp.insts_since_boundary += 1
        self.stats.count_issue(rec.fu, rec.shadow, rec.ckpt)
        kind = rec.kind

        if kind == K_VALUE:
            pc = warp.stack[-1].pc
            pf = warp._pf
            if pf is not None and (pf.epoch != self._value_epoch
                                   or pc != pf.pc0 + warp._pf_j):
                # Injector activity or an out-of-band PC change since
                # the prefetch was built: recompute per-record.
                warp._pf = pf = None
                fb = self.stats.superblock_fallbacks
                fb["invalidated"] = fb.get("invalidated", 0) + 1
            if (pf is None and self._batching and self.liveness is None
                    and plan.sb_len[pc] > 1):
                group = [w for w in self.warps
                         if not w._finished and w.stack[-1].pc == pc]
                if len(group) > 1:
                    build_prefetch(plan, plan.superblock_info(pc), group,
                                   self._value_epoch)
                    pf = warp._pf
                    self.stats.superblocks_executed += 1
                elif self._scripts:
                    # A lone warp gains nothing from value batching
                    # (same NumPy call count), but an event-free window
                    # can still be *scripted directly*: execute the
                    # records in order on the warp's own context within
                    # this issue slot.  Values land early only inside
                    # the window, which nothing can observe (same caps
                    # as prefetched scripts), and every pending entry
                    # carries its true issue cycle.
                    info = plan.superblock_info(pc)
                    s = self._script_len(warp, info, 0, cycle)
                    if s > 1:
                        self._run_script_direct(warp, info, s, cycle, pc)
                        return
                    fb = self.stats.superblock_fallbacks
                    fb["no_peer"] = fb.get("no_peer", 0) + 1
                else:
                    fb = self.stats.superblock_fallbacks
                    fb["no_peer"] = fb.get("no_peer", 0) + 1
            if pf is not None:
                j = warp._pf_j
                if self._scripts and pf.n - j > 1:
                    s = self._script_len(warp, pf.info, j, cycle)
                    if s > 1:
                        self._apply_script(warp, pf, j, s, cycle, pc)
                        return
                i = warp._pf_i
                out = pf.outs[j]
                ctx = warp.ctx
                if out is not None:
                    if rec.dst_is_pred:
                        ctx.preds[rec.dst_index][...] = out[i]
                    else:
                        ctx.regs[rec.dst_index][...] = out[i]
                if rec.track_reg_write:
                    warp.last_write = rec.dst
                    warp.last_write_pc = pc
                    warp.last_write_mask = pf.masks[j][i]
                elif rec.track_pred_write:
                    warp.last_pred_write = rec.dst
                    warp.last_pred_write_pc = pc
                    warp.last_pred_write_mask = pf.masks[j][i]
                if rec.dst is not None:
                    warp.pending[rec.dst] = cycle + rec.latency
                if j + 1 < pf.n:
                    warp._pf_j = j + 1
                else:
                    warp._pf = None
                self.stats.superblock_insts += 1
                warp.advance()
                self._after_pc_change(warp, cycle)
                return
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

    def _script_len(self, warp: Warp, info, j: int, cycle: int) -> int:
        """Longest run of prefetched records, starting at offset ``j``,
        that the warp provably issues on consecutive cycles under GTO
        with no observer event in the window.

        Inside such a window the warp is issuable every cycle (no
        scoreboard or LSU stall — superblock records never use the LSU),
        so greedy GTO re-picks it; and no strike, detection, conveyor
        pop, checkpoint capture, or convergence check can observe the
        intermediate cycles.  Bulk-applying the issues is therefore
        indistinguishable from cycle-by-cycle issue.
        """
        s = info.hazard_free[j]
        pending = warp.pending
        if pending:
            uses = info.uses
            for op, ready in pending.items():
                if ready <= cycle:
                    continue
                offs = uses.get(op)
                if offs is None:
                    continue
                u = offs[bisect_left(offs, j)] if offs[-1] >= j else -1
                if u >= j:
                    t = u - j
                    if t < s and cycle + t < ready:
                        s = t
        if s < 2:
            return 1
        cap = self._script_cap
        if cap is not None:
            horizon = cap(cycle)
            if cycle + s > horizon:
                s = horizon - cycle
        horizon = self.resilience.next_event(self)
        if cycle + s > horizon:
            s = horizon - cycle
        return s if s > 1 else 1

    def _apply_script(self, warp: Warp, pf, j: int, s: int, cycle: int,
                      pc: int) -> None:
        """Bulk-apply ``s`` prefetched records as if issued on cycles
        ``cycle .. cycle+s-1`` and mark the warp's scheduler scripted
        through the window (the issue prolog already counted record
        ``j`` and woke the warp)."""
        records = self.plan.records
        stats = self.stats
        ctx = warp.ctx
        i = warp._pf_i
        outs = pf.outs
        masks = pf.masks
        pending = warp.pending
        pc0 = pf.pc0
        count = stats.count_issue
        for u in range(s):
            rec = records[pc0 + j + u]
            if u:
                count(rec.fu, rec.shadow, rec.ckpt)
            out = outs[j + u]
            if out is not None:
                if rec.dst_is_pred:
                    ctx.preds[rec.dst_index][...] = out[i]
                else:
                    ctx.regs[rec.dst_index][...] = out[i]
            if rec.track_reg_write:
                warp.last_write = rec.dst
                warp.last_write_pc = pc + u
                warp.last_write_mask = masks[j + u][i]
            elif rec.track_pred_write:
                warp.last_pred_write = rec.dst
                warp.last_pred_write_pc = pc + u
                warp.last_pred_write_mask = masks[j + u][i]
            if rec.dst is not None:
                pending[rec.dst] = cycle + u + rec.latency
        warp.insts_since_boundary += s - 1
        stats.superblock_insts += s
        end = j + s
        if end < pf.n:
            warp._pf_j = end
        else:
            warp._pf = None
        warp.scheduler.script_until = cycle + s - 1
        # The issue prolog's wake() already bumped the version; the
        # final scripted issue leaves the warp wakeable at cycle+s.
        warp.wakeup_cycle = cycle + s
        warp.stack[-1].pc = pc + s
        warp._maybe_reconverge()
        self._after_pc_change(warp, cycle + s - 1)

    def _run_script_direct(self, warp: Warp, info, s: int, cycle: int,
                           pc: int) -> None:
        """Scripted window for a warp with no co-resident peers at its
        PC: execute records ``pc .. pc+s-1`` in order on the warp's own
        context as if issued on cycles ``cycle .. cycle+s-1``.

        Identical to the reference per-record semantics — same guard
        evaluation order, same in-place writes — except the values land
        within one issue slot; the window is event-free by the same
        ``_script_len`` caps as prefetched scripts, so nothing can
        observe the intermediate cycles.  The block's active mask is
        loop-invariant (no control flow, no exits inside a superblock).
        """
        records = self.plan.records
        stats = self.stats
        ctx = warp.ctx
        active = warp.stack[-1].mask & warp._not_exited
        pending = warp.pending
        count = stats.count_issue
        mem = self.global_mem
        shared = warp.block.shared
        for u in range(s):
            rec = records[pc + u]
            if u:
                count(rec.fu, rec.shadow, rec.ckpt)
            mask = rec.guard(ctx, active)
            rec.run(ctx, mask, mem, shared)
            if rec.track_reg_write:
                warp.last_write = rec.dst
                warp.last_write_pc = pc + u
                warp.last_write_mask = mask
            elif rec.track_pred_write:
                warp.last_pred_write = rec.dst
                warp.last_pred_write_pc = pc + u
                warp.last_pred_write_mask = (rec.guard(ctx, active)
                                             if rec.guard_recheck else mask)
            if rec.dst is not None:
                pending[rec.dst] = cycle + u + rec.latency
        warp.insts_since_boundary += s - 1
        stats.superblocks_executed += 1
        stats.superblock_insts += s
        warp.scheduler.script_until = cycle + s - 1
        warp.wakeup_cycle = cycle + s
        warp.stack[-1].pc = pc + s
        warp._maybe_reconverge()
        self._after_pc_change(warp, cycle + s - 1)

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
            addrs = access.addresses
            sigs = self._mem_sigs
            stride = (sigs.get(warp.stack[-1].pc)
                      if sigs is not None else None)
            n = addrs.shape[0]
            if (stride is not None and stride != 0 and n == 32
                    and config.warp_size == 32
                    and int(addrs[-1]) - int(addrs[0]) == stride * 31):
                # Endpoint-verified full-warp affine sweep: lane i hits
                # bank (a0 + stride*i) & 31, so each touched bank is
                # hit by exactly gcd(|stride|, 32) distinct addresses.
                degree = gcd(stride if stride > 0 else -stride, 32)
            else:
                degree = _bank_degree(addrs)
            latency = config.shared_latency + (degree - 1)
            occupancy = degree
            self.stats.shared_accesses += 1
            self.stats.shared_bank_conflicts += degree - 1
        else:
            line_words = config.l1.line_words
            addrs = access.addresses
            sigs = self._mem_sigs
            stride = (sigs.get(warp.stack[-1].pc)
                      if sigs is not None else None)
            n = addrs.shape[0]
            segments = None
            if stride is not None and stride != 0 and n > 1:
                first = int(addrs[0])
                last = int(addrs[-1])
                if stride == 1:
                    # Contiguity check via endpoints alone: the span
                    # equals the count, and a line-sized hole would
                    # need a gap wider than the whole span allows.
                    if (last - first == n - 1
                            and n <= line_words + 1):
                        segments = np.arange(
                            first // line_words,
                            last // line_words + 1, dtype=np.int64)
                elif stride == -1:
                    if (first - last == n - 1
                            and n <= line_words + 1):
                        segments = np.arange(
                            last // line_words,
                            first // line_words + 1, dtype=np.int64)
                elif ((stride >= line_words
                       or -stride >= line_words)
                      and n == config.warp_size
                      and last - first == stride * (n - 1)):
                    # Verified full-warp sweep with one line (at
                    # least) per lane step: line indices are
                    # strictly monotonic, so they are already the
                    # deduplicated ascending/descending segment set.
                    lines = addrs // line_words
                    segments = lines if stride > 0 else lines[::-1]
            if segments is None:
                segments = _coalesce_segments(addrs, line_words)
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
        segs = self._win_segs
        if segs is not None:
            # Scripted window active: the next issue cycle is the next
            # dense segment's start (windows always end on an issue
            # cycle, so a dense segment always follows a gap).
            i = self._win_i
            n = len(segs)
            while i < n and segs[i][1] < cycle:
                i += 1
            self._win_i = i
            if i < n:
                if segs[i][2] is None:
                    return max(cycle, segs[i][0])
                if i + 1 < n:
                    return segs[i + 1][0]
            self._win_segs = None
            self._win_i = 0
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
