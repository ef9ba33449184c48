"""Whole-machine checkpoint/restore and convergence detection.

The campaign engine re-simulates the fault-free prefix of every trial
and runs every faulty suffix to completion, even after the architectural
state has re-converged with the golden run.  This module removes both
redundancies:

* :func:`capture_gpu` / :meth:`Gpu launch's <repro.sim.gpu.Gpu.launch>`
  ``resume_from`` implement an explicit snapshot protocol over the whole
  machine — GPU/SM/warp execution state (PC, SIMT stack, register and
  predicate lanes, scoreboard, barrier counters, LSU occupancy), cache
  replacement state, the resilience runtime (RPT/RBQ conveyors,
  in-flight rollback bookkeeping), the fault injector's corruption
  tracking and trial RNG stream, and the stats counters.  Checkpoints
  are deep (restoring never aliases the checkpoint, so one golden
  checkpoint can seed any number of trials), version-tagged, and
  independent of the decode-once plan cache: plans are launch
  configuration, re-derived by the restore target's setup and never
  serialized.

* :class:`ConvergenceMonitor` compares the live machine against the
  recorded checkpoints through the same snapshot protocol (minus the
  stats observer and the injector, which the golden run does not
  carry), so state equality is *stronger* than "evolves identically":
  the two machines are checkpoint-for-checkpoint the same.  A faulty
  run whose state matches golden at a checkpoint boundary — after
  every strike has fired and every detection has been delivered — is
  guaranteed to finish with golden-identical memory and cycle count.
  The comparison is exact value equality field by field (each layer's
  ``state_equals`` mirrors its ``capture_state``), never a hash, and
  it short-circuits on the first differing field, so a non-converging
  trial pays microseconds per boundary rather than a serialization of
  the whole machine.

The capture point is pinned to the top of the launch loop, before that
cycle's block dispatch and injector tick; restore re-enters the loop at
the same point, which is what makes a restored trial byte-identical to
a direct one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimError
from ..isa import Space

#: Bump when the checkpoint layout changes; restore refuses mismatches.
SNAPSHOT_VERSION = 3


@dataclass
class GpuCheckpoint:
    """One deep snapshot of the whole machine at a launch-loop boundary."""

    version: int
    cycle: int
    age: int
    dispatched: int
    global_mem: np.ndarray
    l2: tuple
    sms: tuple
    injector: dict | None
    #: Cheap control-flow fingerprint (see :func:`machine_probe`):
    #: compared before the full state walk so runs that are visibly
    #: divergent (different PCs / timing) skip the per-field check.
    probe: tuple = ()


def capture_gpu(gpu, cycle: int, age: int, dispatched: int,
                global_mem: np.ndarray) -> GpuCheckpoint:
    """Snapshot a GPU mid-launch (at the top of the launch loop)."""
    injector = gpu.fault_injector
    return GpuCheckpoint(
        version=SNAPSHOT_VERSION,
        cycle=cycle, age=age, dispatched=dispatched,
        global_mem=global_mem.copy(),
        l2=gpu.l2.capture_state(),
        sms=tuple(sm.capture_state() for sm in gpu.sms),
        injector=None if injector is None else injector.capture_state(),
        probe=machine_probe(gpu, dispatched),
    )


def restore_gpu(gpu, checkpoint: GpuCheckpoint, all_blocks: list,
                global_mem: np.ndarray) -> tuple[int, int, int]:
    """Overlay a checkpoint onto a freshly configured GPU.

    ``all_blocks`` is the deterministic block roster the launch setup
    just re-created (``Gpu._make_blocks``); the checkpoint references
    blocks and warps by id and this maps them back to live objects.
    Returns ``(cycle, age, dispatched)`` for the launch loop to resume
    from.
    """
    if checkpoint.version != SNAPSHOT_VERSION:
        raise SimError(
            f"checkpoint version {checkpoint.version} does not match "
            f"snapshot protocol version {SNAPSHOT_VERSION}")
    if len(checkpoint.sms) != len(gpu.sms):
        raise SimError(
            f"checkpoint spans {len(checkpoint.sms)} SMs, GPU has "
            f"{len(gpu.sms)} — configs differ")
    np.copyto(global_mem, checkpoint.global_mem)
    gpu.l2.restore_state(checkpoint.l2)
    block_map = {block.id: block for block in all_blocks}
    warp_map = {warp.id: warp
                for block in all_blocks for warp in block.warps}
    for sm, state in zip(gpu.sms, checkpoint.sms):
        sm.restore_state(state, block_map, warp_map)
    if checkpoint.injector is not None and gpu.fault_injector is not None:
        gpu.fault_injector.restore_state(checkpoint.injector)
    return checkpoint.cycle, checkpoint.age, checkpoint.dispatched


# ----------------------------------------------------------------------
# Convergence comparison
# ----------------------------------------------------------------------
def plain_equal(a, b) -> bool:
    """Exact structural equality over capture-protocol plain data.

    Arrays compare by dtype, shape, and value; dicts by key set and
    recursive values; sequences element-wise.  Everything the capture
    protocol emits is covered, the walk short-circuits on the first
    difference, and nothing is serialized — this is the workhorse the
    per-layer ``state_equals`` methods lean on for nested plain data.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, dict):
        if not isinstance(b, dict) or len(a) != len(b):
            return False
        for key, value in a.items():
            if key not in b or not plain_equal(value, b[key]):
                return False
        return True
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(plain_equal(x, y) for x, y in zip(a, b)))
    return a == b


def machine_probe(gpu, dispatched: int) -> tuple:
    """Cheap control-flow fingerprint: per-warp (state, PC, wakeup)
    plus LSU occupancy.

    A strict necessary condition for full state equality that costs
    microseconds to compute: any run whose *timing* has diverged from
    the golden one (different PCs, sleep schedules, or port occupancy)
    fails the probe, so the convergence monitor only pays for a full
    structural comparison when the machines genuinely look aligned.
    Probe equality is never treated as convergence — the full
    comparison still decides.
    """
    return (dispatched, tuple(
        (sm._lsu_free_at,
         tuple((w.state.value,
                w.stack[-1].pc if w.stack else -1,
                w.wakeup_cycle) for w in sm.warps))
        for sm in gpu.sms))


# ----------------------------------------------------------------------
# Golden-run data liveness
# ----------------------------------------------------------------------
class MemoryLiveness:
    """Last-access cycle maps recorded during the golden run.

    For every global-memory word: the cycle of its last read and last
    write.  For every block's shared memory and every warp's register
    rows: the cycle of the last read (neither enters the final-memory
    comparison, so writes are irrelevant).  Atomics count as reads
    *and* writes; register reads come from the scoreboard's own
    operand enumeration (``Instruction.read_regs``), so every read the
    machine can issue is covered.

    This is what makes the inert-divergence early-out sound: a faulty
    value the golden run never reads from some cycle onward can never
    influence the continuation, so its fate — overwritten (masked) or
    left to stand in the output (SDC) — is decided by golden's write
    liveness alone.
    """

    def __init__(self, global_words: int, num_warps: int = 0,
                 num_regs: int = 0) -> None:
        self.global_read = np.full(global_words, -1, dtype=np.int64)
        self.global_write = np.full(global_words, -1, dtype=np.int64)
        self.shared_read: dict[int, np.ndarray] = {}
        #: ``reg_read[warp_id][reg_row]`` — last golden cycle the row
        #: was a source operand of an issued instruction of that warp.
        self.reg_read = np.full((num_warps, num_regs), -1, dtype=np.int64)

    def note(self, access, block, cycle: int) -> None:
        """Record one :class:`~repro.sim.functional.MemAccess`."""
        if access.space is Space.GLOBAL:
            if access.is_atomic:
                self.global_read[access.addresses] = cycle
                self.global_write[access.addresses] = cycle
            elif access.is_store:
                self.global_write[access.addresses] = cycle
            else:
                self.global_read[access.addresses] = cycle
        elif not access.is_store or access.is_atomic:
            reads = self.shared_read.get(block.id)
            if reads is None:
                reads = np.full(block.shared.size, -1, dtype=np.int64)
                self.shared_read[block.id] = reads
            reads[access.addresses] = cycle


# ----------------------------------------------------------------------
# Recording and convergence monitoring
# ----------------------------------------------------------------------
class CheckpointRecorder:
    """Periodic checkpointer driven from the top of the launch loop.

    With an explicit ``interval`` it checkpoints every ``interval``
    cycles.  With ``interval=0`` it adapts to the (unknown) run length:
    it starts dense and, whenever more than ``2 * target`` checkpoints
    accumulate, keeps every other one and doubles the interval — one
    golden pass yields ``target``..``2 * target`` checkpoints spaced
    ~``golden_cycles / target`` apart, without knowing the cycle count
    in advance.
    """

    def __init__(self, interval: int = 0, target: int = 64) -> None:
        if interval < 0:
            raise SimError("checkpoint interval must be >= 0 (0 = auto)")
        if target < 1:
            raise SimError("checkpoint target must be positive")
        self.adaptive = interval == 0
        self.interval = interval if interval else 32
        self.target = target
        self.checkpoints: list[GpuCheckpoint] = []
        self.next_due = 0
        #: :class:`MemoryLiveness` filled in by the recorded launch.
        self.liveness: MemoryLiveness | None = None

    def take(self, gpu, cycle: int, age: int, dispatched: int,
             global_mem: np.ndarray) -> None:
        self.checkpoints.append(
            capture_gpu(gpu, cycle, age, dispatched, global_mem))
        if self.adaptive and len(self.checkpoints) > 2 * self.target:
            self.checkpoints = self.checkpoints[::2]
            self.interval *= 2
        self.next_due = cycle + self.interval

    def best_at_or_below(self, cycle: int) -> GpuCheckpoint | None:
        """Latest checkpoint usable as a fast-start for a strike at
        ``cycle`` (the machine state at any checkpoint at or below the
        first strike cycle is exactly the faulty trial's state there)."""
        best = None
        for checkpoint in self.checkpoints:
            if checkpoint.cycle <= cycle:
                best = checkpoint
            else:
                break
        return best


class ConvergenceMonitor:
    """Early-outcome termination for faulty runs.

    Holds the golden run's recorded checkpoints as reference points.
    The launch loop consults :meth:`check` at every visited cycle; when
    the faulty machine sits exactly on a reference cycle *and* the
    injector is quiescent (all strikes fired, all detections
    delivered), the live machine is compared field by field against
    the golden checkpoint through the snapshot protocol's
    ``state_equals`` mirrors (excluding the pure observers: the
    per-SM stats clone, and the resilience runtime's rollback-window
    end, which is read only when a future sensor detection coalesces
    into a running rollback — impossible once the injector is
    quiescent).  Full equality proves the continuation is
    byte-identical to the golden run — the launch stops immediately
    and reports the golden final cycle count.

    A second, weaker-looking but equally exact rule handles faulty
    runs whose corruption is *inert*: when all control, timing, cache,
    and runtime state matches golden and every differing datum —
    global word, shared word, or register row — is one the golden run
    never reads again (see :class:`MemoryLiveness`), the continuation
    is provably the golden instruction stream, so the trial terminates
    with golden cycles and a final-memory verdict computed from
    golden's write liveness.

    Neither rule can change a classification: both prove the final
    cycle count and final-memory equality a full run would produce
    (and the masked/recovered split by landed strikes and recovery
    counts is already final once the injector is quiescent).
    Inequality just means the run continues.
    """

    #: Probe-matched comparison misses tolerated before the monitor
    #: stops checking.  Misses short-circuit on the first differing
    #: field, so the cap is generous — late convergence (corrupted
    #: values going dead only near kernel end) is still caught — and
    #: exists only to bound pathological checkpoint-dense configs.
    #: Giving up is always sound: the run continues to completion.
    MAX_MISSES = 64

    #: Sentinel "no more boundaries" next-check cycle.
    _DONE = 1 << 62

    def __init__(self, checkpoints: list[GpuCheckpoint],
                 final_cycles: int,
                 liveness: MemoryLiveness | None = None) -> None:
        self.points = list(checkpoints)
        self.final_cycles = final_cycles
        self.liveness = liveness
        self.index = 0
        #: Earliest cycle at which the next boundary could match; the
        #: launch loop's per-cycle call returns immediately below it.
        self.next_cycle = 0
        self.converged_at: int | None = None
        #: Set on convergence: will this trial's *final* memory equal
        #: golden's?  True on a full state match; computed from write
        #: liveness on an inert-divergence match.
        self.memory_equal: bool | None = None
        self._misses = 0

    def check(self, gpu, cycle: int, age: int, dispatched: int,
              global_mem: np.ndarray) -> bool:
        if cycle < self.next_cycle:
            return False
        points = self.points
        i = self.index
        while i < len(points) and points[i].cycle < cycle:
            i += 1
        self.index = i
        if i >= len(points):
            self.next_cycle = self._DONE
            return False
        if points[i].cycle != cycle:
            self.next_cycle = points[i].cycle
            return False
        # Sitting exactly on a boundary; cycles are strictly increasing,
        # so this point is consulted at most once.
        self.next_cycle = cycle + 1
        injector = gpu.fault_injector
        if injector is not None and not injector.quiescent():
            return False
        self.index = i + 1
        golden = points[i]
        if machine_probe(gpu, dispatched) != golden.probe:
            return False
        # Data first: on a probe-matched miss the control state almost
        # always matches and it is the liveness rule that rejects, so
        # the cheap numpy data verdict gates the structural walk.  A
        # misaligned block zip in the verdict cannot produce a wrong
        # convergence: the walk checks block ids in order, so whenever
        # it passes the verdict was computed under the same alignment.
        verdict = self._data_verdict(gpu, cycle, global_mem, golden)
        if verdict is not None and not (
                age == golden.age and dispatched == golden.dispatched
                and gpu.l2.state_equals(golden.l2)
                and all(sm.state_equals(state, include_data=False)
                        for sm, state in zip(gpu.sms, golden.sms))):
            verdict = None
        if verdict is not None:
            self.converged_at = cycle
            self.memory_equal = verdict
            return True
        self._misses += 1
        if self._misses >= self.MAX_MISSES:
            self.index = len(points)
            self.next_cycle = self._DONE
        return False

    def _data_verdict(self, gpu, cycle: int, global_mem: np.ndarray,
                      golden: GpuCheckpoint) -> bool | None:
        """Decide a trial whose control/timing state fully matches
        golden and whose divergence, if any, is confined to data at
        rest (global words, shared words, register rows).

        No differing data at all is full convergence.  Otherwise every
        differing datum must have a golden last-read strictly before
        ``cycle`` (a read *at* ``cycle`` happens after this boundary's
        capture point and would observe the corruption).  Under that
        condition the continuation executes the exact golden
        instruction and access stream — the differing data is
        write-only or untouched from here on — so the final cycle
        count is golden's and the final memory is golden's except at
        differing global words golden never overwrites.  Returns the
        resulting final-memory equality, or ``None`` when the
        divergence is not provably inert (the run just continues).
        """
        liveness = self.liveness
        diff = np.flatnonzero(global_mem != golden.global_mem)
        clean = not diff.size
        if diff.size:
            if liveness is None or bool(
                    (liveness.global_read[diff] >= cycle).any()):
                return None
        for sm, sm_state in zip(gpu.sms, golden.sms):
            for block, ref in zip(sm.blocks, sm_state["blocks"]):
                unequal = np.flatnonzero(block.shared != ref[1])
                if not unequal.size:
                    continue
                clean = False
                if liveness is None:
                    return None
                reads = liveness.shared_read.get(block.id)
                if reads is not None and bool(
                        (reads[unequal] >= cycle).any()):
                    return None
            for warp in sm.warps:
                ref_regs = sm_state["warps"][warp.id]["regs"]
                rows = np.flatnonzero(
                    (warp.ctx.regs != ref_regs).any(axis=1))
                if not rows.size:
                    continue
                clean = False
                if liveness is None or bool(
                        (liveness.reg_read[warp.id][rows] >= cycle).any()):
                    return None
        if clean or not diff.size:
            return True
        return bool((liveness.global_write[diff] >= cycle).all())


__all__ = ["CheckpointRecorder", "ConvergenceMonitor", "GpuCheckpoint",
           "MemoryLiveness", "SNAPSHOT_VERSION", "capture_gpu",
           "machine_probe", "plain_equal", "restore_gpu"]
