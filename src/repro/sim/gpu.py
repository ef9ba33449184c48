"""GPU top level: kernel launch, occupancy, block dispatch, run loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch import GpuConfig, GTX480
from ..errors import LaunchError, SimError, SimTimeout
from ..isa import Cfg, Kernel, Special
from ..isa.cfg import reconvergence_table_for
from .caches import Cache
from .plan import get_plan
from .sm import NEVER, ResilienceRuntime, NULL_RESILIENCE, Sm, ThreadBlock
from .stats import SimStats
from .warp import Warp, WarpState

#: Hard safety valve against runaway/livelocked simulations.
MAX_CYCLES = 500_000_000


@dataclass
class LaunchConfig:
    """Grid/block geometry and scalar parameters of one kernel launch."""

    grid: tuple[int, int] = (1, 1)
    block: tuple[int, int] = (32, 1)
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        gx, gy = self.grid
        bx, by = self.block
        if gx < 1 or gy < 1 or bx < 1 or by < 1:
            raise LaunchError("grid and block dimensions must be positive")
        if bx * by > 1024:
            raise LaunchError("at most 1024 threads per block")

    @property
    def num_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]


@dataclass
class RunResult:
    """Outcome of one simulated kernel launch.

    ``converged`` marks a launch stopped early by a
    :class:`~repro.sim.snapshot.ConvergenceMonitor`: the machine state
    matched the golden run's state at a checkpoint boundary, so the
    reported ``cycles`` are the golden final count and ``global_mem``
    holds the (mid-execution, golden-identical-from-here) state at the
    convergence point rather than the final image.
    """

    cycles: int
    stats: SimStats
    global_mem: np.ndarray
    per_sm: list[SimStats] = field(default_factory=list)
    converged: bool = False


def occupancy_blocks(config: GpuConfig, kernel: Kernel,
                     launch: LaunchConfig, regs_per_thread: int) -> int:
    """Resident blocks per SM under warp/block/register/shared limits."""
    threads = launch.threads_per_block
    warps_per_block = -(-threads // config.warp_size)
    limits = [
        config.max_blocks_per_sm,
        config.max_warps_per_sm // warps_per_block,
    ]
    if kernel.shared_words:
        limits.append(config.shared_words_per_sm // kernel.shared_words)
    if regs_per_thread:
        regs_per_block = regs_per_thread * warps_per_block * config.warp_size
        limits.append(config.regfile_words_per_sm // regs_per_block)
    blocks = min(limits)
    if blocks < 1:
        raise LaunchError(
            f"kernel {kernel.name!r} cannot fit one block on an SM "
            f"(threads={threads}, regs/thread={regs_per_thread}, "
            f"shared={kernel.shared_words})"
        )
    return blocks


class Gpu:
    """The simulated GPU: a set of SMs, a shared L2, and a block dispatcher."""

    def __init__(self, config: GpuConfig = GTX480,
                 resilience: ResilienceRuntime = NULL_RESILIENCE,
                 scheduler: str = "GTO", sanitizer=None,
                 fast: bool = True, tracer=None) -> None:
        self.config = config
        self.scheduler = scheduler
        #: Drive the SMs from decode-once execution plans (repro.sim.plan).
        #: ``fast=False`` selects the reference interpreter; both paths
        #: produce byte-identical cycles, stats, and memory.
        self.fast = fast
        self.l2 = Cache(config.l2, name="l2")
        self.sms = [Sm(i, config, self.l2, resilience)
                    for i in range(config.sim_sms)]
        self.fault_injector = None  # set by repro.core.injection
        #: Opt-in per-cycle invariant checker (repro.sim.sanitizer).
        self.sanitizer = sanitizer
        #: Opt-in event tracer (``repro.obs.Tracer``); None disables all
        #: emission at the cost of one truthiness check per SM tick.
        self.tracer = tracer
        for sm in self.sms:
            sm.tracer = tracer

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel, launch: LaunchConfig,
               global_mem: np.ndarray,
               regs_per_thread: int | None = None,
               max_cycles: int | None = None,
               recorder=None, resume_from=None, monitor=None) -> RunResult:
        """Run one kernel to completion and return timing + final memory.

        ``max_cycles`` bounds the simulated cycle count; exceeding it
        raises :class:`SimTimeout` (a corrupted register can loop a
        kernel forever — callers running fault-injection trials pass a
        budget derived from the fault-free cycle count so a hung trial
        surfaces as a catchable DUE instead of wedging its worker).

        Checkpoint hooks (all from :mod:`repro.sim.snapshot`):

        * ``recorder`` — a :class:`CheckpointRecorder` capturing deep
          machine snapshots at the top of the launch loop;
        * ``resume_from`` — a :class:`GpuCheckpoint` to overlay after
          setup: the loop resumes at the checkpoint's cycle with all
          machine state restored (the kernel/launch/memory arguments
          must match the capturing launch — setup re-derives the
          deterministic parts, including the decode-once plan, which is
          never serialized);
        * ``monitor`` — a :class:`ConvergenceMonitor` holding golden
          checkpoints; a state match at a boundary stops the run early
          with ``converged=True`` and the golden final cycle count.
        """
        kernel.validate()
        if max_cycles is not None and max_cycles < 1:
            raise LaunchError("max_cycles must be at least one cycle")
        budget = MAX_CYCLES if max_cycles is None else min(MAX_CYCLES,
                                                           max_cycles)
        if len(launch.params) != kernel.num_params:
            raise LaunchError(
                f"kernel {kernel.name!r} takes {kernel.num_params} params, "
                f"got {len(launch.params)}"
            )
        if global_mem.dtype != np.float64:
            raise LaunchError("global memory must be a float64 array")
        regs = regs_per_thread if regs_per_thread is not None else kernel.num_regs
        blocks_per_sm = occupancy_blocks(self.config, kernel, launch, regs)
        reconv = reconvergence_table_for(kernel)
        plan = get_plan(kernel, self.config) if self.fast else None
        params = np.asarray(launch.params, dtype=np.float64)
        for sm in self.sms:
            sm.configure(kernel, global_mem, reconv, self.scheduler,
                         plan=plan)
        all_blocks = list(self._make_blocks(kernel, launch, params))
        total_blocks = len(all_blocks)
        if recorder is not None:
            from .snapshot import MemoryLiveness

            if recorder.liveness is None:
                num_warps = 1 + max(
                    (warp.id for block in all_blocks
                     for warp in block.warps), default=-1)
                num_regs = (all_blocks[0].warps[0].ctx.regs.shape[0]
                            if all_blocks and all_blocks[0].warps else 0)
                recorder.liveness = MemoryLiveness(
                    global_mem.size, num_warps=num_warps, num_regs=num_regs)
            for sm in self.sms:
                sm.liveness = recorder.liveness

        cycle = 0
        age = 0
        dispatched = 0
        converged = False
        if resume_from is not None:
            from .snapshot import restore_gpu

            cycle, age, dispatched = restore_gpu(self, resume_from,
                                                 all_blocks, global_mem)
        pending = all_blocks[dispatched:]
        pending.reverse()  # pop() dispatches in grid order
        # FP exceptions are already value-handled per op (clamps, NaN
        # scrubbing); silencing them once around the whole loop spares
        # every ALU apply an errstate context switch.
        with np.errstate(all="ignore"):
            while True:
                # Checkpoint/convergence hooks run at the loop top,
                # before this cycle's dispatch and injector tick — the
                # same point ``resume_from`` re-enters at, which is what
                # makes a restored run byte-identical to a direct one.
                if recorder is not None and cycle >= recorder.next_due:
                    recorder.take(self, cycle, age, dispatched, global_mem)
                if (monitor is not None and cycle >= monitor.next_cycle
                        and monitor.check(self, cycle, age, dispatched,
                                          global_mem)):
                    converged = True
                    break
                # Dispatch blocks into free slots.
                for sm in self.sms:
                    while pending and sm.resident_blocks < blocks_per_sm:
                        block = pending.pop()
                        dispatched += 1
                        for warp in block.warps:
                            warp.age = age
                            age += 1
                        sm.add_block(block, cycle)
                # Detection must precede this cycle's conveyor pops: an
                # error detected exactly WCDL cycles after a region end
                # invalidates that region's verification (the tie goes to
                # the detector).
                if self.fault_injector is not None:
                    self.fault_injector.tick(self, cycle)
                if self.tracer is not None:
                    self.tracer.now = cycle
                issued = 0
                for sm in self.sms:
                    # Per-SM idle elision (fast path only, so the
                    # ``fast=False`` oracle keeps ticking every SM every
                    # cycle): an SM that classified a stall on its last
                    # tick and whose next possible issue lies in the
                    # future would re-derive the same stall cause —
                    # account the idle cycle directly.  Same next_event
                    # trust as ``_fast_forward``, applied per SM.
                    if (plan is not None and self.tracer is None
                            and sm._stall_cause is not None
                            and sm.next_event(cycle) > cycle):
                        sm.account_stall_skip(1)
                        continue
                    issued += sm.tick(cycle)
                # Retire finished blocks (live-warp counters hit zero).
                for sm in self.sms:
                    if sm._done_blocks:
                        for block in sm.take_done_blocks():
                            sm.remove_block(block, cycle)
                if self.sanitizer is not None:
                    self.sanitizer.check(self, cycle)
                if not pending and all(not sm.busy for sm in self.sms):
                    break
                if issued:
                    cycle += 1
                else:
                    nxt = self._fast_forward(cycle)
                    skipped = nxt - cycle - 1
                    if skipped > 0:
                        # The elided cycles inherit the stall cause each
                        # busy SM recorded this cycle (nothing changes
                        # while no SM issues), keeping attribution exact.
                        for sm in self.sms:
                            sm.account_stall_skip(skipped)
                    cycle = nxt
                if cycle > budget:
                    raise SimTimeout(
                        f"kernel {kernel.name!r} exceeded its cycle budget "
                        f"of {budget} cycles — likely hung or livelocked",
                        cycles=cycle)

        if self.tracer is not None:
            for sm in self.sms:
                sm.trace_flush(cycle)
        stats = SimStats()
        per_sm = []
        for sm in self.sms:
            sm.stats.l1_hits, sm.stats.l1_misses = sm.l1.hits, sm.l1.misses
            stats.merge(sm.stats)
            per_sm.append(sm.stats)
        stats.l2_hits, stats.l2_misses = self.l2.hits, self.l2.misses
        # On convergence the continuation is byte-identical to the
        # golden run, so the golden final cycle count *is* this run's.
        final_cycles = monitor.final_cycles if converged else cycle + 1
        stats.cycles = final_cycles
        stats.regs_per_thread = regs
        stats.occupancy_warps = blocks_per_sm * (
            -(-launch.threads_per_block // self.config.warp_size))
        stats.blocks_launched = total_blocks
        return RunResult(cycles=final_cycles, stats=stats,
                         global_mem=global_mem, per_sm=per_sm,
                         converged=converged)

    def _fast_forward(self, cycle: int) -> int:
        nxt = NEVER
        for sm in self.sms:
            nxt = min(nxt, sm.next_event(cycle))
        if self.fault_injector is not None:
            nxt = min(nxt, self.fault_injector.next_event(cycle))
        if nxt >= NEVER:
            self._raise_deadlock(cycle)
        return max(cycle + 1, nxt)

    def _raise_deadlock(self, cycle: int) -> None:
        lines = [f"simulation deadlocked at cycle {cycle}:"]
        for sm in self.sms:
            for warp in sm.warps:
                lines.append(
                    f"  sm{sm.id} warp{warp.id} state={warp.state.value} "
                    f"pc={warp.pc} wakeup={warp.wakeup_cycle}"
                )
        raise SimError("\n".join(lines))

    def _make_blocks(self, kernel: Kernel, launch: LaunchConfig, params):
        config = self.config
        gx, _ = launch.grid
        bx, by = launch.block
        threads = launch.threads_per_block
        warps_per_block = -(-threads // config.warp_size)
        # num_regs/num_preds are O(instructions) scans: compute them once
        # per launch, not once per warp.
        num_regs = max(kernel.num_regs, 1)
        num_preds = max(kernel.num_preds, 1)
        warp_counter = 0
        for block_id in range(launch.num_blocks):
            ctaid = (block_id % gx, block_id // gx)
            block = ThreadBlock(block_id, ctaid, threads,
                                first_warp_id=warp_counter,
                                shared_words=kernel.shared_words)
            for w in range(warps_per_block):
                warp_id = warp_counter
                warp_counter += 1
                specials = self._specials(ctaid, launch, w)
                warp = Warp(warp_id, block, kernel,
                            num_regs=num_regs,
                            warp_size=config.warp_size,
                            specials=specials, params=params, age=warp_id,
                            num_preds=num_preds)
                block.warps.append(warp)
            yield block

    def _specials(self, ctaid: tuple[int, int], launch: LaunchConfig,
                  warp_in_block: int) -> dict[Special, np.ndarray]:
        # Specials are launch-invariant per (geometry, warp slot) and only
        # ever read (no op writes a Special), so every warp in the same
        # slot across all blocks — and across launches — shares the same
        # frozen arrays instead of re-deriving ten vectors per warp.
        config = self.config
        bx, by = launch.block
        tid_x, tid_y, laneid = _lane_specials(config.warp_size, bx,
                                              warp_in_block)
        scalar = _scalar_special
        ws = config.warp_size
        return {
            Special.TID_X: tid_x,
            Special.TID_Y: tid_y,
            Special.NTID_X: scalar(ws, bx),
            Special.NTID_Y: scalar(ws, by),
            Special.CTAID_X: scalar(ws, ctaid[0]),
            Special.CTAID_Y: scalar(ws, ctaid[1]),
            Special.NCTAID_X: scalar(ws, launch.grid[0]),
            Special.NCTAID_Y: scalar(ws, launch.grid[1]),
            Special.LANEID: laneid,
            Special.WARPID: scalar(ws, warp_in_block),
        }


_LANE_SPECIALS: dict[tuple[int, int, int],
                     tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_SCALAR_SPECIALS: dict[tuple[int, float], np.ndarray] = {}


def _lane_specials(warp_size: int, bx: int, warp_in_block: int):
    key = (warp_size, bx, warp_in_block)
    cached = _LANE_SPECIALS.get(key)
    if cached is None:
        lanes = np.arange(warp_size, dtype=np.float64)
        linear = warp_in_block * warp_size + lanes
        tid_x = np.mod(linear, bx)
        tid_y = np.floor(linear / bx)
        for arr in (tid_x, tid_y, lanes):
            arr.flags.writeable = False
        cached = _LANE_SPECIALS[key] = (tid_x, tid_y, lanes)
    return cached


def _scalar_special(warp_size: int, value: float) -> np.ndarray:
    key = (warp_size, float(value))
    arr = _SCALAR_SPECIALS.get(key)
    if arr is None:
        arr = np.full(warp_size, float(value))
        arr.flags.writeable = False
        _SCALAR_SPECIALS[key] = arr
    return arr


def run_kernel(kernel: Kernel, launch: LaunchConfig, global_mem: np.ndarray,
               config: GpuConfig = GTX480, scheduler: str = "GTO",
               resilience: ResilienceRuntime = NULL_RESILIENCE,
               regs_per_thread: int | None = None,
               max_cycles: int | None = None, sanitizer=None,
               fast: bool = True, tracer=None) -> RunResult:
    """Convenience one-shot: build a GPU, launch, return the result.

    ``fast=False`` runs the reference per-issue interpreter instead of
    the decode-once execution plan; results are byte-identical.
    """
    gpu = Gpu(config, resilience, scheduler, sanitizer=sanitizer, fast=fast,
              tracer=tracer)
    return gpu.launch(kernel, launch, global_mem, regs_per_thread,
                      max_cycles=max_cycles)
