"""Competitor resilience runtimes: DMR, partial protection, ABFT.

These give the compile-time competitor schemes real detection/recovery
semantics under the six-site fault injector, reproducing the paper's
comparative axis (Flame's sub-percent overhead against 15-45% for
duplication-based protection, Figure 16) plus two schemes from the
related work: Yang et al.'s partial thread protection (only the
vulnerability-ranked warp subset pays the duplication/verify cost) and
Wu et al.'s online-ABFT GEMM (checksum verification with single-warp
correction).

All three share one mechanism — *compare at region end*: when a warp
crosses an idempotent-region boundary it parks (``IN_RBQ``) for the
scheme's check latency; a strike recorded against the warp since its
last verified boundary fails the check and triggers recovery through
the :class:`~repro.core.runtime.RecoveryRuntime` rollback Flame uses.
Unlike Flame there is no sensor and no conveyor: detection rides the
redundant computation itself, which is exactly why these schemes pay
per-region cost on the fault-free path.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..sim import NEVER, Sm, Warp, WarpSnapshot, WarpState
from .runtime import RecoveryRuntime

#: Injection sites a compare/checksum check cannot observe: a strike on
#: the recovery metadata itself corrupts the rollback target, not the
#: warp's redundantly-computed architectural work.
_UNOBSERVABLE_SITES = frozenset({"rpt", "rbq"})


class CompareRuntime(RecoveryRuntime):
    """Base for compare-at-region-end schemes.

    Subclasses define :meth:`_check_delay` (cycles a warp parks at a
    boundary; ``None`` means this warp crosses unprotected) and may
    override :meth:`_detected` (recovery policy on a failed check).
    """

    verify_cause = "verify_dmr"

    def bind(self, sm: Sm) -> "CompareRuntime":
        runtime = super().bind(sm)
        #: Warp id -> strikes landed on its work since its last verified
        #: boundary.  A non-zero count at check time is a mismatch.
        runtime._dirty: dict[int, int] = {}
        return runtime

    def on_warp_detached(self, sm: Sm, warp: Warp) -> None:
        super().on_warp_detached(sm, warp)
        self._dirty.pop(warp.id, None)

    def on_strike(self, sm: Sm, record, cycle: int) -> None:
        if record.site in _UNOBSERVABLE_SITES or record.warp_id is None:
            return
        wid = record.warp_id
        self._dirty[wid] = self._dirty.get(wid, 0) + 1

    def _cross(self, sm: Sm, warp: Warp, cycle: int, insts: int,
               final: bool) -> bool:
        self._account_region(warp, insts)
        delay = self._check_delay(sm, warp, insts)
        if delay is None:
            # Unprotected crossing: the recovery point still advances
            # (commit whatever the region produced — corrupted or not:
            # this is exactly where partial protection trades SDC risk
            # for overhead), and the warp keeps running.
            self._note_unprotected(sm)
            if not final:
                self.rpt.update(warp, WarpSnapshot.capture(warp))
                sm.skip_markers(warp, cycle)
            return False
        entry = self._park(warp, cycle, final, ready_at=cycle + delay)
        self._parked.append(entry)
        self._note_check(sm)
        if sm.tracer is not None:
            sm.tracer.event("verify_park", cycle, sm.id, warp.id,
                            {"final": final, "ready": entry.ready_at})
        return True

    def tick(self, sm: Sm, cycle: int) -> None:
        if not self._parked:
            return
        due = [e for e in self._parked if e.ready_at <= cycle]
        for entry in due:
            if entry not in self._parked:
                continue  # flushed by a rollback earlier this same cycle
            self._parked.remove(entry)
            warp = entry.warp
            if warp.state is WarpState.IN_RBQ and self._dirty.get(warp.id):
                self._detected(sm, entry, cycle)
            else:
                self._release(sm, entry, cycle)

    def next_event(self, sm: Sm) -> int:
        best = NEVER
        for entry in self._parked:
            if entry.ready_at < best:
                best = entry.ready_at
        return best

    def _detected(self, sm: Sm, entry, cycle: int) -> None:
        """A check failed.  Default policy: SM-wide rollback (the
        compared streams disagree; nothing localizes the corruption)."""
        self._rollback(sm, cycle)

    def _flush(self) -> None:
        super()._flush()
        self._dirty.clear()

    def capture_state(self, sm: Sm) -> dict:
        state = super().capture_state(sm)
        state["dirty"] = dict(self._dirty)
        return state

    def restore_state(self, state: dict, sm: Sm, warp_map: dict) -> None:
        super().restore_state(state, sm, warp_map)
        self._dirty = dict(state["dirty"])

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    def _check_delay(self, sm: Sm, warp: Warp, insts: int) -> int | None:
        raise NotImplementedError

    def _account_region(self, warp: Warp, insts: int) -> None:
        """Per-boundary accounting hook (vulnerability tracking)."""

    def _note_check(self, sm: Sm) -> None:
        """A warp parked for a check (scheme-specific counter)."""

    def _note_unprotected(self, sm: Sm) -> None:
        """A warp crossed unprotected (scheme-specific counter)."""


# ==========================================================================
# DMR / full duplication
# ==========================================================================

class DmrRuntime(CompareRuntime):
    """Full duplication (DMR) with compare-at-region-end.

    Binds to the ``duplication_renaming`` compile scheme: every eligible
    instruction issues twice (the compiler's shadow stream — the 15-45%
    overhead the paper positions Flame against), and at each region
    boundary the two result streams are compared for ``compare_cycles``
    before the region may commit.  A mismatch rolls every warp of the SM
    back to its recovery PC (DUE, never SDC: the region's stores are not
    committed past a failed compare).
    """

    def __init__(self, compare_cycles: int = 2, rollback_cycles: int = 1,
                 harden_rpt: bool = True) -> None:
        if compare_cycles < 1:
            raise ConfigError("DMR compare must take at least one cycle")
        super().__init__(rollback_cycles, harden_rpt)
        self.compare_cycles = compare_cycles

    def _check_delay(self, sm: Sm, warp: Warp, insts: int) -> int:
        return self.compare_cycles

    def _note_check(self, sm: Sm) -> None:
        sm.stats.dmr_compares += 1


# ==========================================================================
# Partial thread protection
# ==========================================================================

class PartialThreadRuntime(CompareRuntime):
    """Vulnerability-ranked partial protection.

    Only the top ``protect_fraction`` of resident warps — ranked by a
    vulnerability score fed from the stall/liveness ledger (cumulative
    region instructions plus accumulated ``memory_latency`` stall
    cycles, i.e. how long values sit exposed in registers) — pay the
    duplication/verify cost: a protected warp re-executes its region
    redundantly before committing (``dup_factor`` cycles per original
    instruction: the redundant pass runs while the warp is parked, so
    unlike the primary pass it cannot hide its latency behind other
    warps' memory traffic).  Unprotected warps commit regions
    unverified, converting any strike on their work into SDC risk.
    """

    def __init__(self, protect_fraction: float = 0.5,
                 dup_factor: float = 3.0, compare_cycles: int = 2,
                 rollback_cycles: int = 1, harden_rpt: bool = True) -> None:
        if not 0.0 < protect_fraction <= 1.0:
            raise ConfigError("protect_fraction must be in (0, 1]")
        if dup_factor <= 0.0:
            raise ConfigError("dup_factor must be positive")
        if compare_cycles < 1:
            raise ConfigError("compare must take at least one cycle")
        super().__init__(rollback_cycles, harden_rpt)
        self.protect_fraction = protect_fraction
        self.dup_factor = dup_factor
        self.compare_cycles = compare_cycles

    def bind(self, sm: Sm) -> "PartialThreadRuntime":
        runtime = super().bind(sm)
        #: Warp id -> cumulative instructions retired across regions
        #: (the liveness half of the vulnerability score).
        runtime._exposure: dict[int, int] = {}
        return runtime

    def on_warp_detached(self, sm: Sm, warp: Warp) -> None:
        super().on_warp_detached(sm, warp)
        self._exposure.pop(warp.id, None)

    def _account_region(self, warp: Warp, insts: int) -> None:
        self._exposure[warp.id] = self._exposure.get(warp.id, 0) + insts

    def _score(self, sm: Sm, warp: Warp) -> int:
        """Vulnerability: work retired (register-file residency proxy)
        plus memory-latency stall cycles (values parked in registers
        across long-latency loads are the classic AVF hotspot)."""
        stalls = sm.stats.warp_stalls.get(warp.id, {})
        return (self._exposure.get(warp.id, 0)
                + stalls.get("memory_latency", 0))

    def _protected(self, sm: Sm, warp: Warp) -> bool:
        warps = sm.warps
        count = max(1, math.ceil(self.protect_fraction * len(warps)))
        if count >= len(warps):
            return True
        ranked = sorted(warps,
                        key=lambda w: (-self._score(sm, w), w.id))
        for candidate in ranked[:count]:
            if candidate is warp:
                return True
        return False

    def _check_delay(self, sm: Sm, warp: Warp, insts: int) -> int | None:
        if not self._protected(sm, warp):
            return None
        # The redundant re-execution of the region plus the compare.
        return self.compare_cycles + int(math.ceil(insts * self.dup_factor))

    def _note_check(self, sm: Sm) -> None:
        sm.stats.partial_protected_regions += 1

    def _note_unprotected(self, sm: Sm) -> None:
        sm.stats.partial_unprotected_regions += 1

    def capture_state(self, sm: Sm) -> dict:
        state = super().capture_state(sm)
        state["exposure"] = dict(self._exposure)
        return state

    def restore_state(self, state: dict, sm: Sm, warp_map: dict) -> None:
        super().restore_state(state, sm, warp_map)
        self._exposure = dict(state["exposure"])


# ==========================================================================
# ABFT checksum SGEMM
# ==========================================================================

class AbftSgemmRuntime(CompareRuntime):
    """Online-ABFT GEMM verification.

    The kernel carries checksum-encoded inputs (the ``SGEMM_ABFT``
    workload variant computes row/column checksum vectors alongside C);
    at each region boundary the runtime validates the checksum relation
    in ``check_cycles``.  Because the checksum localizes a mismatch to
    the single corrupted warp, recovery is online: only that warp
    re-derives its region from its recovery PC — no SM-wide rollback
    unless the corruption cannot be localized.
    """

    verify_cause = "abft_check"

    def __init__(self, check_cycles: int = 3, rollback_cycles: int = 1,
                 harden_rpt: bool = True) -> None:
        if check_cycles < 1:
            raise ConfigError("ABFT check must take at least one cycle")
        super().__init__(rollback_cycles, harden_rpt)
        self.check_cycles = check_cycles

    def _check_delay(self, sm: Sm, warp: Warp, insts: int) -> int:
        return self.check_cycles

    def _note_check(self, sm: Sm) -> None:
        sm.stats.abft_checks += 1

    def _detected(self, sm: Sm, entry, cycle: int) -> None:
        if len(self._dirty) == 1:
            self._correct(sm, entry.warp, cycle)
        else:
            # Corruption spread across warps: the checksum flags the
            # mismatch but cannot localize it — fall back to rollback.
            self._rollback(sm, cycle)

    def _correct(self, sm: Sm, warp: Warp, cycle: int) -> None:
        """Online correction: re-derive only the corrupted warp's region
        from its recovery point; the rest of the SM keeps running."""
        resume = cycle + self.rollback_cycles
        self._dirty.pop(warp.id, None)
        self._reset(sm, warp, resume)
        self._rollback_until = resume
        sm.stats.recoveries += 1
        sm.stats.detected_errors += 1
        sm.stats.abft_corrections += 1
        if sm.tracer is not None:
            sm.tracer.event("abft_correct", cycle, sm.id, warp.id,
                            {"resume": resume})
