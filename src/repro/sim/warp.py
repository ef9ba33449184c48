"""Warp state: SIMT divergence stack, scoreboard, and recovery snapshots."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import SimError
from ..isa import Kernel
from .functional import LaneContext


class WarpState(enum.Enum):
    ACTIVE = "active"          # eligible for issue (deps permitting)
    AT_BARRIER = "at_barrier"  # waiting for the block's barrier
    IN_RBQ = "in_rbq"          # descheduled for WCDL verification (Flame)
    DONE = "done"              # all lanes exited and final region verified


@dataclass
class StackEntry:
    """One SIMT reconvergence stack entry."""

    reconv_pc: int
    pc: int
    mask: np.ndarray

    def copy(self) -> "StackEntry":
        return StackEntry(self.reconv_pc, self.pc, self.mask.copy())


@dataclass
class WarpSnapshot:
    """Control-flow context captured at a region boundary for recovery.

    Registers need no snapshot — idempotence guarantees re-execution from
    the recovery PC regenerates them — but the SIMT stack and the warp's
    monotonic barrier-arrival counter are microarchitectural state the
    RPT must restore alongside the PC (a few dozen bits per warp in
    hardware).  Restoring the barrier counter is what makes rollback
    across barrier instructions deadlock-free: a warp that re-executes a
    BAR re-arrives at the same logical barrier generation, while warps
    that never rolled back across it already satisfy the release
    condition."""

    pc: int
    stack: list[StackEntry]
    exited: np.ndarray
    barrier_count: int

    @staticmethod
    def capture(warp: "Warp") -> "WarpSnapshot":
        return WarpSnapshot(
            pc=warp.pc,
            stack=[entry.copy() for entry in warp.stack],
            exited=warp.exited.copy(),
            barrier_count=warp.barrier_count,
        )

    def restore(self, warp: "Warp") -> None:
        warp.stack = [entry.copy() for entry in self.stack]
        warp.exited = self.exited.copy()
        warp.stack[-1].pc = self.pc
        warp.barrier_count = self.barrier_count

    # -- checkpoint support (plain-data round trip) --------------------
    def to_state(self) -> tuple:
        return (self.pc,
                tuple((e.reconv_pc, e.pc, e.mask.copy()) for e in self.stack),
                self.exited.copy(), self.barrier_count)

    @staticmethod
    def from_state(state: tuple) -> "WarpSnapshot":
        pc, stack, exited, barrier_count = state
        return WarpSnapshot(
            pc=pc,
            stack=[StackEntry(r, p, m.copy()) for r, p, m in stack],
            exited=exited.copy(), barrier_count=barrier_count)


class Warp:
    """One warp: 32 lanes sharing a PC, plus scheduling metadata."""

    def __init__(self, warp_id: int, block, kernel: Kernel,
                 num_regs: int, warp_size: int,
                 specials: list[np.ndarray],
                 params: np.ndarray, age: int,
                 num_preds: int | None = None) -> None:
        self.id = warp_id
        self.block = block
        self.kernel = kernel
        self.warp_size = warp_size
        self.age = age                      # global dispatch order (for GTO/OLD)
        self.state = WarpState.ACTIVE
        if num_preds is None:
            num_preds = max(kernel.num_preds, 1)
        self.ctx = LaneContext(num_regs, num_preds, warp_size,
                               specials, params)
        full = np.ones(warp_size, dtype=bool)
        if block.num_threads < (warp_id - block.first_warp_id + 1) * warp_size:
            # Partial trailing warp: mask off lanes beyond the block size.
            local = block.num_threads - (warp_id - block.first_warp_id) * warp_size
            full = np.arange(warp_size) < local
        self.stack: list[StackEntry] = [StackEntry(-1, 0, full)]
        self.exited = ~full
        # Scoreboard: destination key -> cycle the value becomes usable.
        # Keys are ints (``repro.isa.scoreboard_key``: a register's
        # index, ``-1 - index`` for a predicate), resolved at plan
        # lowering, so the issue path hashes no operand objects.
        self.pending: dict[int, int] = {}
        # Stall attribution: destination key -> ready cycle, written only
        # by timed memory loads.  An entry is *live* (the blocking producer
        # is an in-flight load) exactly when it equals the ``pending``
        # entry for the same operand: WAW is blocked by the scoreboard,
        # so a stale entry always names an earlier cycle than any newer
        # producer's.  Never cleaned on the hot path; cleared on rollback.
        self.pending_mem: dict[int, int] = {}
        self.wakeup_cycle = 0               # earliest cycle the warp may issue
        # Event-driven fast-forward support: ``version`` bumps on every
        # state change that can affect readiness (wakeup, scoreboard
        # write, recovery); ``Sm.next_event`` caches the computed ready
        # cycle per warp and revalidates it against the version, so a
        # long stall costs O(changed warps) instead of O(all warps).
        self.version = 0
        self.ready_version = -1             # version the cache was built at
        self.ready_cache = 0                # cached earliest ready cycle
        self.ready_timed = False            # cached "next inst uses the LSU"
        self.scheduler = None               # set when attached to an SM
        self.insts_since_boundary = 0       # dynamic region-size accounting
        self.barrier_count = 0              # monotonic barrier generation
        # Injection target: index of the in-flight destination register.
        self.last_write: int | None = None
        self.last_write_mask: np.ndarray | None = None  # lanes written
        self.last_write_pc = -1             # def site of the last write
        # Additional in-flight fault-surface tracking (multi-site model):
        # the words of the block's shared memory most recently stored by
        # this warp in its current (unverified) region, and the index of
        # the predicate register most recently produced in flight.
        self.last_shared_write: np.ndarray | None = None
        self.last_pred_write: int | None = None
        self.last_pred_write_mask: np.ndarray | None = None
        self.last_pred_write_pc = -1

    def clear_inflight(self) -> None:
        """Nothing of this warp's is in flight anymore (region boundary
        reached, or the pipeline was flushed by a rollback): strikes can
        no longer corrupt values it produced."""
        self.last_write = None
        self.last_write_mask = None
        self.last_shared_write = None
        self.last_pred_write = None
        self.last_pred_write_mask = None

    # ------------------------------------------------------------------
    # Execution state
    # ------------------------------------------------------------------
    @property
    def pc(self) -> int:
        return self.stack[-1].pc

    @pc.setter
    def pc(self, value: int) -> None:
        self.stack[-1].pc = value

    @property
    def exited(self) -> np.ndarray:
        return self._exited

    @exited.setter
    def exited(self, value: np.ndarray) -> None:
        # ``~exited`` and the all-exited test are on the issue hot path;
        # exits are rare, so recompute both once per assignment instead
        # of per query.  (In-place mutation of the array bypasses this
        # cache — all simulator code assigns, as does WarpSnapshot.)
        self._exited = value
        self._not_exited = ~value
        self._finished = not bool(self._not_exited.any())

    @property
    def active_mask(self) -> np.ndarray:
        return self.stack[-1].mask & self._not_exited

    @property
    def finished(self) -> bool:
        return self._finished

    def retire_pending(self, cycle: int) -> None:
        """Drop scoreboard entries whose values are now available."""
        pending = self.pending
        if pending:
            for ready in pending.values():
                if ready <= cycle:
                    self.pending = {k: c for k, c in pending.items()
                                    if c > cycle}
                    return

    def wake(self, cycle: int) -> None:
        """Set the earliest issue cycle and invalidate the ready cache."""
        self.wakeup_cycle = cycle
        self.version += 1

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Move to the next sequential instruction, reconverging if needed."""
        top = self.stack[-1]
        top.pc += 1
        if top.pc == top.reconv_pc:
            self._maybe_reconverge()

    def _maybe_reconverge(self) -> None:
        stack = self.stack
        while len(stack) > 1 and stack[-1].pc == stack[-1].reconv_pc:
            stack.pop()

    def take_branch(self, rec) -> None:
        """Resolve a branch (possibly divergent) and update the SIMT
        stack; target, reconvergence PC and guard come from the
        branch's :class:`~repro.sim.plan.PlannedInst` record."""
        entry = self.stack[-1]
        target = rec.target
        if rec.guard_index is None:
            entry.pc = target
            self._maybe_reconverge()
            return
        active = entry.mask & self._not_exited
        taken = rec.guard(self.ctx, active)
        not_taken = active & ~taken
        if not np.count_nonzero(not_taken):
            self.stack[-1].pc = target
            self._maybe_reconverge()
            return
        if not np.count_nonzero(taken):
            self.advance()
            return
        # Divergence: current entry reconverges at reconv_pc; run the
        # taken path first, then the fall-through, then reconverge.
        # A path that starts *at* the reconvergence point is empty (an
        # if-without-else arm) — pushing it would execute the join point
        # with a partial mask, so those lanes simply wait in the outer
        # entry instead.
        reconv_pc = rec.reconv_pc
        fallthrough = self.stack[-1].pc + 1
        self.stack[-1].pc = reconv_pc
        if fallthrough != reconv_pc:
            self.stack.append(StackEntry(reconv_pc, fallthrough, not_taken))
        if target != reconv_pc:
            self.stack.append(StackEntry(reconv_pc, target, taken))
        self._maybe_reconverge()

    def exit_lanes(self, rec) -> None:
        """Retire lanes reaching EXIT; unwind empty stack entries."""
        active = self.stack[-1].mask & self._not_exited
        self.exited = self._exited | rec.guard(self.ctx, active)
        if rec.guard_index is not None:
            self.advance()
        self._pop_empty()

    def _pop_empty(self) -> None:
        while len(self.stack) > 1 and not self.active_mask.any():
            self.stack.pop()
            self._maybe_reconverge()

    def sanity_check(self) -> None:
        if not self.stack:
            raise SimError(f"warp {self.id} lost its SIMT stack")
        if len(self.stack) > 64:
            raise SimError(f"warp {self.id} SIMT stack overflow")

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Deep copy of every mutable field, as plain data (scoreboard
        keys and fault-surface registers are ints already).  The
        readiness memo (``version``/``ready_*``) is deliberately left
        out: it is derived state, rebuilt on demand after restore."""
        return {
            "state": self.state.value,
            "age": self.age,
            "regs": self.ctx.regs.copy(),
            "preds": self.ctx.preds.copy(),
            "stack": tuple((e.reconv_pc, e.pc, e.mask.copy())
                           for e in self.stack),
            "exited": self.exited.copy(),
            "pending": dict(self.pending),
            "pending_mem": dict(self.pending_mem),
            "wakeup_cycle": self.wakeup_cycle,
            "insts_since_boundary": self.insts_since_boundary,
            "barrier_count": self.barrier_count,
            "last_write": self.last_write,
            "last_write_mask": None if self.last_write_mask is None
                               else self.last_write_mask.copy(),
            "last_write_pc": self.last_write_pc,
            "last_shared_write": None if self.last_shared_write is None
                                 else np.array(self.last_shared_write),
            "last_pred_write": self.last_pred_write,
            "last_pred_write_mask": None if self.last_pred_write_mask is None
                                    else self.last_pred_write_mask.copy(),
            "last_pred_write_pc": self.last_pred_write_pc,
        }

    def restore_state(self, data: dict) -> None:
        self.state = WarpState(data["state"])
        self.age = data["age"]
        np.copyto(self.ctx.regs, data["regs"])
        np.copyto(self.ctx.preds, data["preds"])
        self.stack = [StackEntry(r, p, m.copy())
                      for r, p, m in data["stack"]]
        self.exited = data["exited"].copy()
        self.pending = dict(data["pending"])
        self.pending_mem = dict(data["pending_mem"])
        self.wakeup_cycle = data["wakeup_cycle"]
        self.insts_since_boundary = data["insts_since_boundary"]
        self.barrier_count = data["barrier_count"]
        self.last_write = data["last_write"]
        lwm = data["last_write_mask"]
        self.last_write_mask = None if lwm is None else lwm.copy()
        self.last_write_pc = data["last_write_pc"]
        lsw = data["last_shared_write"]
        self.last_shared_write = None if lsw is None else np.array(lsw)
        self.last_pred_write = data["last_pred_write"]
        lpm = data["last_pred_write_mask"]
        self.last_pred_write_mask = None if lpm is None else lpm.copy()
        self.last_pred_write_pc = data["last_pred_write_pc"]
        # Invalidate the readiness memo: it embeds pre-restore state.
        self.version += 1
        self.ready_version = -1

    def state_equals(self, data: dict, include_regs: bool = True) -> bool:
        """Exact equality against a :meth:`capture_state` snapshot,
        without capturing (no copies; short-circuits on the first
        differing field).  ``include_regs=False`` skips the general
        register file — the convergence monitor compares data at rest
        separately, under golden read-liveness.  ``pending_mem`` is
        excluded: its stale entries are execution-history bookkeeping
        that never affect architectural behaviour."""
        if (self.state.value != data["state"]
                or self.age != data["age"]
                or self.wakeup_cycle != data["wakeup_cycle"]
                or self.insts_since_boundary != data["insts_since_boundary"]
                or self.barrier_count != data["barrier_count"]
                or self.last_write_pc != data["last_write_pc"]
                or self.last_pred_write_pc != data["last_pred_write_pc"]
                or self.last_write != data["last_write"]
                or self.last_pred_write != data["last_pred_write"]):
            return False
        stack = data["stack"]
        if len(self.stack) != len(stack):
            return False
        for entry, (reconv_pc, pc, mask) in zip(self.stack, stack):
            if (entry.reconv_pc != reconv_pc or entry.pc != pc
                    or not np.array_equal(entry.mask, mask)):
                return False
        if self.pending != data["pending"]:
            return False
        if not _optional_equal(self.last_write_mask,
                               data["last_write_mask"]):
            return False
        if not _optional_equal(self.last_shared_write,
                               data["last_shared_write"]):
            return False
        if not _optional_equal(self.last_pred_write_mask,
                               data["last_pred_write_mask"]):
            return False
        if not np.array_equal(self.exited, data["exited"]):
            return False
        if not np.array_equal(self.ctx.preds, data["preds"]):
            return False
        return (not include_regs
                or np.array_equal(self.ctx.regs, data["regs"]))


def _optional_equal(live, ref) -> bool:
    """Equality for None-able array fields of a warp snapshot."""
    if live is None or ref is None:
        return live is None and ref is None
    return np.array_equal(live, ref)
