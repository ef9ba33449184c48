"""Cycle-accurate fault injection (the paper's fault model, Section III-B).

A particle strike deposits charge somewhere on the struck SM.  *Where*
is the fault site — a pluggable taxonomy registered in
:data:`FAULT_SITES`:

``dest_reg``
    the in-flight destination register of a warp (the register file
    itself is ECC-protected, so errors enter through pipeline logic —
    i.e. through values being produced);
``shared_mem``
    the store datapath of an in-flight shared-memory store (the SRAM
    array is ECC-protected at rest; the value is corruptible while
    being written);
``predicate``
    an in-flight predicate-register write (guards of pure arithmetic —
    guards that bound addresses or steer branches are excluded under
    the paper's hardened-AGU assumption, like address-feeding general
    registers);
``simt_stack``
    one lane bit of a divergence-stack entry's active mask;
``rpt`` / ``rbq``
    Flame's own recovery structures.  Both default to ``hardened``
    (parity-protected, Section IV Discussion) and then absorb strikes;
    un-hardening them exposes the recovery path itself to corruption.

The acoustic sensors report a strike within a bounded delay; the
:class:`~repro.arch.SensorModel` adds per-strike miss probability and
detection-latency jitter on top of the WCDL bound.  On detection the
SM's Flame runtime performs all-warp rollback.

Running the injector against a non-Flame GPU models an unprotected
machine: the corruption lands and nothing recovers it (the SDC case the
negative tests assert).
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..arch import SensorModel
from ..errors import ConfigError
from ..sim import CONTROL_TID, Gpu, Sm, WarpState

_ACTIVE_STATES = (WarpState.ACTIVE, WarpState.IN_RBQ)


@dataclass
class InjectionRecord:
    """One injected strike and its outcome."""

    strike_cycle: int
    detect_cycle: int            # -1 when the sensors missed the strike
    sm_id: int
    site: str = "dest_reg"
    warp_id: int | None = None
    corrupted_reg: int | None = None
    landed: bool = False
    recovered: bool = False
    missed: bool = False         # sensors never heard this strike
    absorbed: bool = False       # struck structure is hardened
    detail: str = ""


class FaultSite:
    """Where on the SM a strike deposits charge.

    Subclasses implement :meth:`inject`, which corrupts simulator state
    and fills in the record's ``warp_id``/``landed``/``absorbed``/
    ``detail`` fields.  A strike that finds nothing corruptible (no
    in-flight value, hardened structure, non-Flame scheme) leaves
    ``landed`` False — the sensors still hear it (false positives
    included).
    """

    name = "?"
    description = ""

    def inject(self, injector: "FaultInjector", gpu: Gpu, sm: Sm,
               record: InjectionRecord, rng: np.random.Generator) -> None:
        raise NotImplementedError


FAULT_SITES: dict[str, FaultSite] = {}


def register_fault_site(site: FaultSite) -> FaultSite:
    """Add a site to the taxonomy (extension point for new structures)."""
    if not site.name or site.name == "?":
        raise ConfigError("fault site needs a name")
    if site.name in FAULT_SITES:
        raise ConfigError(f"fault site {site.name!r} already registered")
    FAULT_SITES[site.name] = site
    return site


def fault_site_by_name(name: str) -> FaultSite:
    try:
        return FAULT_SITES[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_SITES))
        raise ConfigError(
            f"unknown fault site {name!r} (known: {known})") from None


class DestRegSite(FaultSite):
    """Corrupt the in-flight destination register of a resident warp."""

    name = "dest_reg"
    description = "in-flight destination register write"

    def inject(self, injector, gpu, sm, record, rng):
        candidates = []
        for warp in sm.warps:
            if warp.state not in _ACTIVE_STATES:
                continue
            if warp.last_write is None:
                continue
            if warp.last_write_pc in injector._address_defs(warp.kernel):
                continue
            candidates.append(warp)
        if not candidates:
            record.detail = "no in-flight register write"
            return
        warp = candidates[int(rng.integers(len(candidates)))]
        reg = warp.last_write.index
        record.warp_id = warp.id
        record.corrupted_reg = reg
        record.landed = True
        record.detail = f"r{reg}"
        lanes = warp.ctx.regs[reg]
        garbage = rng.uniform(-1e9, 1e9, size=lanes.shape)
        mask = warp.last_write_mask
        if mask is None:
            mask = np.ones(lanes.shape, dtype=bool)
        np.copyto(lanes, garbage, where=mask)


class SharedMemSite(FaultSite):
    """Corrupt one word just stored to shared memory (store datapath)."""

    name = "shared_mem"
    description = "in-flight shared-memory store datapath"

    def inject(self, injector, gpu, sm, record, rng):
        candidates = [w for w in sm.warps
                      if w.state in _ACTIVE_STATES
                      and w.last_shared_write is not None
                      and len(w.last_shared_write)]
        if not candidates:
            record.detail = "no in-flight shared store"
            return
        warp = candidates[int(rng.integers(len(candidates)))]
        addrs = warp.last_shared_write
        addr = int(addrs[int(rng.integers(len(addrs)))])
        record.warp_id = warp.id
        record.landed = True
        record.detail = f"shared[{addr}]"
        warp.block.shared[addr] = rng.uniform(-1e9, 1e9)


class PredicateSite(FaultSite):
    """Flip an in-flight predicate write (arithmetic guards only)."""

    name = "predicate"
    description = "in-flight predicate-register write"

    def inject(self, injector, gpu, sm, record, rng):
        candidates = []
        for warp in sm.warps:
            if warp.state not in _ACTIVE_STATES:
                continue
            if warp.last_pred_write is None:
                continue
            # A corrupted guard of a branch/memory op would misaddress,
            # which the hardened front end rules out (Section IV).
            if warp.last_pred_write_pc in injector._address_defs(warp.kernel):
                continue
            candidates.append(warp)
        if not candidates:
            record.detail = "no in-flight predicate write"
            return
        warp = candidates[int(rng.integers(len(candidates)))]
        pred = warp.last_pred_write.index
        record.warp_id = warp.id
        record.landed = True
        record.detail = f"p{pred}"
        row = warp.ctx.preds[pred]
        mask = warp.last_pred_write_mask
        if mask is None:
            mask = np.ones(row.shape, dtype=bool)
        row[mask] = ~row[mask]


class SimtStackSite(FaultSite):
    """Flip one lane bit of a divergence-stack entry's active mask."""

    name = "simt_stack"
    description = "SIMT divergence-stack entry (active mask bit)"

    def inject(self, injector, gpu, sm, record, rng):
        candidates = [w for w in sm.warps
                      if w.state in _ACTIVE_STATES and w.stack]
        if not candidates:
            record.detail = "no resident warp"
            return
        warp = candidates[int(rng.integers(len(candidates)))]
        depth = int(rng.integers(len(warp.stack)))
        entry = warp.stack[depth]
        lane = int(rng.integers(len(entry.mask)))
        entry.mask[lane] = not entry.mask[lane]
        record.warp_id = warp.id
        record.landed = True
        record.detail = f"stack[{depth}] lane{lane}"


class RptSite(FaultSite):
    """Corrupt a Recovery PC Table entry (absorbed when hardened)."""

    name = "rpt"
    description = "Recovery PC Table entry (Flame structure)"

    def inject(self, injector, gpu, sm, record, rng):
        rpt = getattr(sm.resilience, "rpt", None)
        if rpt is None:
            record.detail = "no RPT on this scheme"
            return
        if rpt.hardened:
            record.absorbed = True
            record.detail = "absorbed (RPT hardened)"
            return
        warps = {w.id: w for w in sm.warps if w.state is not WarpState.DONE}
        ids = sorted(set(rpt.entries) & set(warps))
        if not ids:
            record.detail = "no live RPT entry"
            return
        warp_id = ids[int(rng.integers(len(ids)))]
        snapshot = rpt.entries[warp_id]
        kernel = warps[warp_id].kernel
        bad_pc = int(rng.integers(len(kernel.instructions)))
        record.warp_id = warp_id
        record.landed = True
        record.detail = f"recovery pc {snapshot.pc} -> {bad_pc}"
        snapshot.pc = bad_pc


class RbqSite(FaultSite):
    """Corrupt an in-flight RBQ conveyor entry (absorbed when hardened)."""

    name = "rbq"
    description = "Region Boundary Queue entry (Flame structure)"

    def inject(self, injector, gpu, sm, record, rng):
        rbqs = getattr(sm.resilience, "_rbqs", None)
        if rbqs is None:
            record.detail = "no RBQ on this scheme"
            return
        if getattr(sm.resilience, "harden_rbq", True):
            record.absorbed = True
            record.detail = "absorbed (RBQ hardened)"
            return
        entries = [e for rbq in rbqs.values() for e in rbq._entries]
        if not entries:
            record.detail = "no in-flight verification"
            return
        entry = entries[int(rng.integers(len(entries)))]
        kernel = entry.warp.kernel
        bad_pc = int(rng.integers(len(kernel.instructions)))
        record.warp_id = entry.warp.id
        record.landed = True
        record.detail = f"conveyor snapshot pc {entry.snapshot.pc} -> {bad_pc}"
        entry.snapshot.pc = bad_pc


for _site in (DestRegSite(), SharedMemSite(), PredicateSite(),
              SimtStackSite(), RptSite(), RbqSite()):
    register_fault_site(_site)

#: Every registered site name, in registration order.
ALL_FAULT_SITES: tuple[str, ...] = tuple(FAULT_SITES)


@dataclass
class FaultInjector:
    """Injects strikes at given cycles and drives sensor detection.

    Attach via ``gpu.fault_injector = injector`` before launching.
    ``site`` names the struck structure (see :data:`FAULT_SITES`).
    ``sensor`` models the detector; when omitted a perfect sensor with
    this injector's ``wcdl`` is used (detection delay uniform in
    [1, wcdl], never missed).  Passing a sensor overrides ``wcdl``.
    """

    strike_cycles: list[int]
    wcdl: int = 20
    seed: int = 0
    site: str = "dest_reg"
    sensor: SensorModel | None = None
    records: list[InjectionRecord] = field(default_factory=list)
    _pending_detect: list[tuple[int, int]] = field(default_factory=list)
    _next_strike: int = 0

    def __post_init__(self) -> None:
        if self.wcdl < 1:
            raise ConfigError("WCDL must be at least one cycle")
        cycles = []
        for c in self.strike_cycles:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ConfigError(
                    f"strike cycles must be integers, got {c!r}")
            if c < 0:
                raise ConfigError(f"strike cycles must be >= 0, got {c}")
            cycles.append(int(c))
        self.strike_cycles = sorted(cycles)
        if self.sensor is None:
            self.sensor = SensorModel(wcdl=self.wcdl)
        else:
            self.wcdl = self.sensor.wcdl
        self._site = fault_site_by_name(self.site)
        self._rng = np.random.default_rng(self.seed)
        # Keyed by id(kernel) but validated against a weakref: ids are
        # reused after garbage collection, and a recycled id must not
        # serve another kernel's address-def set.
        self._addr_cache: dict[int, tuple[weakref.ref, set[int]]] = {}

    # ------------------------------------------------------------------
    def tick(self, gpu: Gpu, cycle: int) -> None:
        """Process due strikes and detections."""
        while (self._next_strike < len(self.strike_cycles)
               and self.strike_cycles[self._next_strike] <= cycle):
            self._strike(gpu, cycle)
            self._next_strike += 1
        if self._pending_detect:
            due = [(c, s) for (c, s) in self._pending_detect if c <= cycle]
            self._pending_detect = [(c, s) for (c, s) in self._pending_detect
                                    if c > cycle]
            for _, sm_id in due:
                self._detect(gpu, sm_id, cycle)

    def next_event(self, cycle: int) -> int:
        candidates = []
        if self._next_strike < len(self.strike_cycles):
            candidates.append(max(self.strike_cycles[self._next_strike],
                                  cycle + 1))
        candidates.extend(c for c, _ in self._pending_detect)
        return min(candidates) if candidates else 1 << 62

    # ------------------------------------------------------------------
    def _strike(self, gpu: Gpu, cycle: int) -> None:
        sm = gpu.sms[int(self._rng.integers(len(gpu.sms)))]
        record = InjectionRecord(strike_cycle=cycle, detect_cycle=-1,
                                 sm_id=sm.id, site=self.site)
        self.records.append(record)
        self._site.inject(self, gpu, sm, record, self._rng)
        if record.landed:
            # Compare/checksum runtimes observe corruption of a warp's
            # architectural work (the acoustic sensor below is a separate,
            # always-on channel that only the flame runtime consumes).
            notify = getattr(sm.resilience, "on_strike", None)
            if notify is not None:
                notify(sm, record, cycle)
        tracer = getattr(gpu, "tracer", None)
        if tracer is not None:
            tracer.event("strike", cycle, sm.id, CONTROL_TID,
                         {"site": self.site, "landed": record.landed})
        delay = self.sensor.sample_delay(self._rng)
        if delay is None:
            record.missed = True
            return
        # The sensor hears the strike regardless of whether it flipped
        # architecturally relevant bits (false positives included).
        record.detect_cycle = cycle + delay
        self._pending_detect.append((record.detect_cycle, sm.id))

    def _address_defs(self, kernel) -> set[int]:
        """Definition sites whose values (transitively) become memory
        addresses.

        The paper assumes hardened address-generation units and register
        file controllers (Section IV, Discussion), so strikes never
        produce misaddressed loads or stores; we honour that by keeping
        every address-feeding definition out of the victim pool.  The
        analysis is def-site precise (via reaching definitions), so
        register reuse after allocation does not over-exclude values.
        """
        cached = self._addr_cache.get(id(kernel))
        if cached is not None and cached[0]() is kernel:
            return cached[1]
        from ..compiler.dataflow import ReachingDefs
        from ..isa import Cfg, Reg

        rdefs = ReachingDefs(Cfg(kernel))
        tainted: set[int] = set()
        work = []

        def seed(use_index, var):
            for d in rdefs.defs_reaching_use(use_index, var):
                if d >= 0 and d not in tainted:
                    tainted.add(d)
                    work.append(d)

        for u, inst in enumerate(kernel.instructions):
            info = inst.info
            is_mem = info.is_load or info.is_store or info.is_atomic
            if is_mem and isinstance(inst.srcs[0], Reg):
                seed(u, inst.srcs[0])
            # Predicates steering branches or predicating memory ops
            # bound addresses (e.g. `if i < n` before a load); a
            # corrupted guard would misaddress, which the hardened
            # front end rules out.
            if inst.guard is not None and (info.is_branch or is_mem
                                           or info.is_exit):
                seed(u, inst.guard)
        while work:
            d = work.pop()
            inst = kernel.instructions[d]
            for src in (*inst.read_regs(), *inst.read_preds()):
                for d2 in rdefs.defs_reaching_use(d, src):
                    if d2 >= 0 and d2 not in tainted:
                        tainted.add(d2)
                        work.append(d2)
        self._addr_cache[id(kernel)] = (weakref.ref(kernel), tainted)
        return tainted

    def _detect(self, gpu: Gpu, sm_id: int, cycle: int) -> None:
        sm = next(s for s in gpu.sms if s.id == sm_id)
        runtime = sm.resilience
        recover = getattr(runtime, "recover", None)
        tracer = getattr(gpu, "tracer", None)
        if tracer is not None:
            tracer.event("detection", cycle, sm_id, CONTROL_TID,
                         {"recoverable": recover is not None})
        for record in self.records:
            # Only credit records whose own sensing delay has elapsed:
            # with overlapping strikes on one SM, a later strike must
            # not be attributed to an earlier detection event (its
            # corruption may land *after* this rollback).
            if (record.sm_id == sm_id and not record.recovered
                    and not record.missed
                    and record.detect_cycle <= cycle):
                record.recovered = recover is not None
        if recover is not None:
            recover(cycle)

    @property
    def undetected(self) -> int:
        return sum(1 for r in self.records if r.landed and not r.recovered)

    def quiescent(self) -> bool:
        """True once every strike has fired and every sensed detection
        has been delivered — after this the injector can never perturb
        the machine again (the precondition for early-outcome state
        comparison against the golden run)."""
        return (self._next_strike >= len(self.strike_cycles)
                and not self._pending_detect)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Corruption tracking and the trial RNG stream, as plain data.
        The address-def memo is derived (and keyed by object identity)
        so it is rebuilt, not serialized."""
        return {
            "records": tuple(dataclasses.replace(r) for r in self.records),
            "pending_detect": tuple(self._pending_detect),
            "next_strike": self._next_strike,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_state(self, state: dict) -> None:
        self.records = [dataclasses.replace(r) for r in state["records"]]
        self._pending_detect = [tuple(p) for p in state["pending_detect"]]
        self._next_strike = state["next_strike"]
        self._rng.bit_generator.state = state["rng_state"]
