"""``ReferenceSanitizer``: the architectural sanitizer as a full sweep.

:class:`repro.sim.Sanitizer` re-verifies a warp's scoreboard and SIMT
stack only when the warp's ``version`` moved, and a Recovery PC Table
only when its ``changes`` counter moved.  This class is the
implementation that memo is held to: it walks every SM, every resident
warp and every table on every visited cycle, with the same invariants,
the same scan order and the same messages.  A launch under either must
raise the same first :class:`~repro.errors.SanitizerError` (invariant,
SM, warp, cycle and message) or none.

:func:`sanitizer_class` runs campaign trials under a given sanitizer
class (``repro.core.schemes.launcher`` looks ``repro.sim.Sanitizer`` up
when it is called); ``tests/integration/test_sanitizer_oracle.py``
compares the journals of the two classes.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np

from repro.errors import SanitizerError
from repro.isa import Op
from repro.sim.sanitizer import MAX_STACK_DEPTH


class ReferenceSanitizer:
    """Every invariant on every SM, warp and table at every check."""

    def __init__(self) -> None:
        self.checks = 0
        self._region_starts: tuple[weakref.ref, frozenset[int]] | None = None

    # ------------------------------------------------------------------
    def check(self, gpu, cycle: int) -> None:
        """Verify every invariant on every SM; raise on the first hit."""
        self.checks += 1
        for sm in gpu.sms:
            self._check_sm(sm, cycle)

    def _check_sm(self, sm, cycle: int) -> None:
        self._check_stalls(sm, cycle)
        for warp in sm.warps:
            self._check_scoreboard(sm, warp, cycle)
            self._check_stack(sm, warp, cycle)
        runtime = sm.resilience
        if runtime.rbqs is not None:
            for rbq in runtime.rbqs.values():
                self._check_rbq(sm, rbq, cycle)
        rpt = runtime.rpt
        if rpt is not None and sm.kernel is not None:
            self._check_rpt(sm, rpt, cycle)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _check_stalls(self, sm, cycle: int) -> None:
        stats = sm.stats
        attributed = sum(stats.stall_cycles.values())
        if stats.issue_cycles + attributed != stats.active_cycles:
            self._fail("stall-conservation", sm, None, cycle,
                       f"issue ({stats.issue_cycles}) + attributed stalls "
                       f"({attributed}) != active cycles "
                       f"({stats.active_cycles})")
        if stats.idle_cycles != attributed:
            self._fail("stall-conservation", sm, None, cycle,
                       f"idle cycles ({stats.idle_cycles}) != attributed "
                       f"stalls ({attributed})")
        per_warp: dict[str, int] = {}
        for ledger in stats.warp_stalls.values():
            for cause, count in ledger.items():
                per_warp[cause] = per_warp.get(cause, 0) + count
        if per_warp != stats.stall_cycles:
            self._fail("stall-conservation", sm, None, cycle,
                       f"per-warp ledger {per_warp} does not partition "
                       f"the per-cause ledger {stats.stall_cycles}")

    def _check_scoreboard(self, sm, warp, cycle: int) -> None:
        num_regs = warp.ctx.regs.shape[0]
        num_preds = warp.ctx.preds.shape[0]
        for key, ready in warp.pending.items():
            # Keys decode as ``repro.isa.scoreboard_key`` encodes them.
            if not isinstance(key, int):
                self._fail("scoreboard", sm, warp, cycle,
                           f"pending entry keyed by non-int {key!r}")
            if key >= 0:
                name = f"r{key}"
                if key >= num_regs:
                    self._fail("scoreboard", sm, warp, cycle,
                               f"pending entry for nonexistent register "
                               f"{name} (file holds {num_regs})")
            else:
                name = f"p{-1 - key}"
                if -1 - key >= num_preds:
                    self._fail("scoreboard", sm, warp, cycle,
                               f"pending entry for nonexistent predicate "
                               f"{name} (file holds {num_preds})")
            if not isinstance(ready, (int, np.integer)) or ready < 0:
                self._fail("scoreboard", sm, warp, cycle,
                           f"pending ready cycle {ready!r} for {name}")

    def _check_stack(self, sm, warp, cycle: int) -> None:
        stack = warp.stack
        if not stack:
            self._fail("simt-stack", sm, warp, cycle, "empty SIMT stack")
        if len(stack) > MAX_STACK_DEPTH:
            self._fail("simt-stack", sm, warp, cycle,
                       f"SIMT stack depth {len(stack)} exceeds "
                       f"{MAX_STACK_DEPTH}")
        top = len(warp.kernel.instructions)
        for depth, entry in enumerate(stack):
            if not 0 <= entry.pc <= top:
                self._fail("simt-stack", sm, warp, cycle,
                           f"stack[{depth}] pc {entry.pc} outside "
                           f"kernel [0, {top}]")
            mask = entry.mask
            if (not isinstance(mask, np.ndarray) or mask.dtype != np.bool_
                    or mask.shape != (warp.warp_size,)):
                self._fail("simt-stack", sm, warp, cycle,
                           f"stack[{depth}] mask malformed "
                           f"({getattr(mask, 'shape', None)!r}, "
                           f"{getattr(mask, 'dtype', None)!r})")
            if depth and bool((mask & ~stack[depth - 1].mask).any()):
                self._fail("simt-stack", sm, warp, cycle,
                           f"stack[{depth}] activates lanes outside its "
                           f"parent entry (divergence masks must nest)")

    def _check_rbq(self, sm, rbq, cycle: int) -> None:
        previous = None
        for slot, entry in enumerate(rbq._entries):
            if previous is not None and entry.enqueued_at <= previous:
                self._fail("rbq-conveyor", sm, entry.warp, cycle,
                           f"slot {slot} enqueued at {entry.enqueued_at}, "
                           f"not after its predecessor ({previous}) — the "
                           f"conveyor advances one slot per cycle")
            previous = entry.enqueued_at
            if cycle - entry.enqueued_at > rbq.wcdl:
                self._fail("rbq-conveyor", sm, entry.warp, cycle,
                           f"slot {slot} has ridden the conveyor "
                           f"{cycle - entry.enqueued_at} cycles "
                           f"(> WCDL={rbq.wcdl}) without popping")

    def _check_rpt(self, sm, rpt, cycle: int) -> None:
        starts = self._kernel_region_starts(sm.kernel)
        for warp_id, snapshot in rpt.entries.items():
            if snapshot.pc not in starts:
                self._fail("rpt-region-start", sm, None, cycle,
                           f"RPT entry of warp {warp_id} points at pc "
                           f"{snapshot.pc}, which is not a region start",
                           warp_id=warp_id)
            if snapshot.barrier_count < 0:
                self._fail("rpt-region-start", sm, None, cycle,
                           f"RPT entry of warp {warp_id} carries negative "
                           f"barrier generation {snapshot.barrier_count}",
                           warp_id=warp_id)

    # ------------------------------------------------------------------
    def _kernel_region_starts(self, kernel) -> frozenset[int]:
        """Valid recovery PCs: kernel entry, every boundary marker, and
        the instruction after each marker (the marker itself is a legal
        recovery PC — ``skip_markers`` re-delivers it on restore)."""
        cached = self._region_starts
        if cached is not None and cached[0]() is kernel:
            return cached[1]
        starts = {0}
        for index, inst in enumerate(kernel.instructions):
            if inst.op is Op.RB:
                starts.add(index)
                starts.add(index + 1)
        frozen = frozenset(starts)
        self._region_starts = (weakref.ref(kernel), frozen)
        return frozen

    def _fail(self, invariant: str, sm, warp, cycle: int, message: str,
              warp_id: int | None = None) -> None:
        if warp_id is None and warp is not None:
            warp_id = warp.id
        raise SanitizerError(invariant, message, sm_id=sm.id,
                             warp_id=warp_id, cycle=cycle)


@contextmanager
def sanitizer_class(cls):
    """Attach ``cls`` instead of :class:`repro.sim.Sanitizer` to every
    launch that ``repro.core.schemes.launcher`` builds inside the block.

    The per-process golden cache is emptied on entry and on exit: its
    entries hold launch closures bound to the class in force when they
    were built.
    """
    import repro.sim
    from repro.core.campaign import _GOLDEN_CACHE

    saved = repro.sim.Sanitizer
    _GOLDEN_CACHE.clear()
    repro.sim.Sanitizer = cls
    try:
        yield
    finally:
        repro.sim.Sanitizer = saved
        _GOLDEN_CACHE.clear()

