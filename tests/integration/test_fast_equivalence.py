"""A/B proof that the decode-once fast path is byte-identical to the
reference interpreter: every workload's tiny instance, plus a scheduler ×
resilience-scheme matrix, must produce the same cycle count, the same
stats dictionary, and the same final global memory bytes."""

import numpy as np
import pytest

from repro.arch import GTX480
from repro.compiler import compile_kernel, prepare_launch
from repro.core import runtime_scheme_by_name
from repro.sim import Gpu, LaunchConfig
from repro.sim.stats import SUPERBLOCK_TELEMETRY
from repro.workloads import WORKLOADS, workload_by_name


def run_scheme(instance, scheme_name: str, scheduler: str, fast: bool,
               wcdl: int = 20, injector=None):
    """Compile + launch one instance; return (cycles, stats dict, bytes)."""
    rscheme = runtime_scheme_by_name(scheme_name)
    compiled = compile_kernel(instance.kernel, rscheme.compile_scheme,
                              wcdl=wcdl)
    runtime = rscheme.build(wcdl=wcdl)
    gpu = Gpu(GTX480, resilience=runtime, scheduler=scheduler, fast=fast)
    gpu.fault_injector = injector
    mem = instance.fresh_memory()
    params, mem = prepare_launch(
        compiled, instance.launch.params, mem,
        instance.launch.num_blocks, instance.launch.threads_per_block)
    launch = LaunchConfig(grid=instance.launch.grid,
                          block=instance.launch.block, params=params)
    result = gpu.launch(compiled.kernel, launch, mem,
                        regs_per_thread=compiled.regs_per_thread)
    return result.cycles, result.stats.as_dict(), mem.tobytes()


def assert_paths_identical(instance, scheme: str, scheduler: str,
                           injector=None):
    make = injector or (lambda: None)
    fast = run_scheme(instance, scheme, scheduler, fast=True,
                      injector=make())
    ref = run_scheme(instance, scheme, scheduler, fast=False,
                     injector=make())
    assert fast[0] == ref[0], "cycle counts diverge"
    # Superblock telemetry is fast-path bookkeeping by construction (the
    # reference interpreter never batches); strip it before comparing.
    fast_stats = {k: v for k, v in fast[1].items()
                  if k not in SUPERBLOCK_TELEMETRY}
    ref_stats = {k: v for k, v in ref[1].items()
                 if k not in SUPERBLOCK_TELEMETRY}
    assert fast_stats == ref_stats, "stats diverge"
    assert fast[2] == ref[2], "final global memory diverges"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_tiny(name):
    """Baseline scheme, default scheduler, every workload."""
    instance = workload_by_name(name).instance("tiny")
    assert_paths_identical(instance, "baseline", "GTO")


@pytest.mark.parametrize("scheduler", ["GTO", "OLD", "LRR", "2LV"])
@pytest.mark.parametrize("scheme",
                         ["baseline", "flame", "dmr", "partial_thread"])
def test_scheduler_scheme_matrix(scheduler, scheme):
    """All four schedulers under every campaign-runnable runtime that
    works on arbitrary workloads: baseline, the full Flame runtime
    (boundary markers, RBQ descheduling, deferred retirement), the DMR
    strawman (compare-park at every region end), and partial thread
    protection (only the ranked vulnerable warps park)."""
    for name in ("LBM", "Histogram"):
        instance = workload_by_name(name).instance("tiny")
        assert_paths_identical(instance, scheme, scheduler)


@pytest.mark.parametrize("scheduler", ["GTO", "OLD", "LRR", "2LV"])
def test_abft_sgemm_matrix(scheduler):
    """The ABFT runtime on its checksum-augmented workload variant,
    across all four schedulers."""
    instance = workload_by_name("SGEMM_ABFT").instance("tiny")
    assert_paths_identical(instance, "abft_sgemm", scheduler)


def test_barrier_workload_matrix():
    """A shared-memory + barrier workload through the Flame and DMR
    runtimes on the age-based schedulers (the ones with the insort
    attach path)."""
    instance = workload_by_name("Transpose").instance("tiny")
    for scheduler in ("GTO", "OLD"):
        for scheme in ("flame", "dmr"):
            assert_paths_identical(instance, scheme, scheduler)


def superblock_spans(instance, scheme: str, scheduler: str):
    """The scripted-issue windows ``(first_cycle, last_cycle)`` of one
    fault-free fast run, recorded by wrapping the SM's three scripted
    applicators: prefetched and direct superblock scripts, plus the
    SM-level memory windows (which subsume superblocks on GTO +
    null-resilience launches)."""
    from repro.sim.sm import Sm

    spans = []
    orig_direct, orig_apply = Sm._run_script_direct, Sm._apply_script
    orig_open = Sm._open_window

    def direct(self, warp, info, s, cycle, pc):
        spans.append((cycle, cycle + s - 1))
        return orig_direct(self, warp, info, s, cycle, pc)

    def apply(self, warp, pf, j, s, cycle, pc):
        spans.append((cycle, cycle + s - 1))
        return orig_apply(self, warp, pf, j, s, cycle, pc)

    def open_window(self, cycle):
        opened = orig_open(self, cycle)
        if opened:
            spans.append((self._win_segs[0][0], self._win_segs[-1][1]))
        return opened

    Sm._run_script_direct, Sm._apply_script = direct, apply
    Sm._open_window = open_window
    try:
        run_scheme(instance, scheme, scheduler, fast=True)
    finally:
        Sm._run_script_direct, Sm._apply_script = orig_direct, orig_apply
        Sm._open_window = orig_open
    return spans


def widest_span(spans):
    """The widest scripted window — the superblock whose boundary
    cycles are furthest apart, hence the sharpest boundary test."""
    assert spans, "workload never executed a superblock"
    return max(spans, key=lambda span: span[1] - span[0])


def memory_window_spans(instance, scheme: str, scheduler: str):
    """The ``(first_cycle, last_cycle)`` spans of SM-level memory
    windows only (``Sm._open_window``) in one fault-free fast run."""
    from repro.sim.sm import Sm

    spans = []
    orig_open = Sm._open_window

    def open_window(self, cycle):
        opened = orig_open(self, cycle)
        if opened:
            spans.append((self._win_segs[0][0], self._win_segs[-1][1]))
        return opened

    Sm._open_window = open_window
    try:
        run_scheme(instance, scheme, scheduler, fast=True)
    finally:
        Sm._open_window = orig_open
    return spans


class TestMemoryWindows:
    """SM-level memory-window scripting (``Sm._open_window``): the
    windows must actually open on the memory-bound workload, break
    exactly at observer horizons, and never move a counter or byte."""

    WCDL = 20

    def _injector(self, cycle, site="dest_reg"):
        from repro.arch import SensorModel
        from repro.core.injection import FaultInjector

        return lambda: FaultInjector(
            strike_cycles=[cycle], wcdl=self.WCDL, seed=13, site=site,
            sensor=SensorModel(wcdl=self.WCDL))

    def test_windows_open_under_gto(self):
        """Fault-free LBM under GTO + the stateless baseline runs
        memory windows, byte-identically."""
        instance = workload_by_name("LBM").instance("tiny")
        spans = memory_window_spans(instance, "baseline", "GTO")
        assert spans, "memory windows never opened"
        assert_paths_identical(instance, "baseline", "GTO")

    @pytest.mark.parametrize("scheduler", ["OLD", "LRR", "2LV"])
    def test_non_gto_schedulers_fall_back(self, scheduler):
        """The window engine encodes GTO pick semantics; other
        schedulers must never open one (the "scheduler" fallback is
        booked instead) and still match the reference exactly."""
        instance = workload_by_name("LBM").instance("tiny")
        spans = memory_window_spans(instance, "baseline", scheduler)
        assert spans == []
        assert_paths_identical(instance, "baseline", scheduler)

    def test_window_telemetry_counts(self):
        """The window counters surface through stats: every LBM warp
        instruction stream is memory-laden enough that windows cover
        most of the dynamic instructions."""
        instance = workload_by_name("LBM").instance("tiny")
        _, stats, _ = run_scheme(instance, "baseline", "GTO", fast=True)
        windows = stats["mem_windows_executed"]
        insts = stats["mem_window_insts"]
        assert windows > 0
        assert insts / windows > 15, "windows too short to pay off"

    def test_strike_on_load_inside_window(self):
        """Strikes at the first, middle, and last cycle of the widest
        window (LBM windows are load/store-dominated, so the interior
        cycles sit on timed memory ops): the injector's next-event
        horizon must stop the window so each strike lands on the exact
        cycle-accurate machine."""
        instance = workload_by_name("LBM").instance("tiny")
        first, last = widest_span(
            memory_window_spans(instance, "baseline", "GTO"))
        assert last > first, "need a multi-cycle memory window"
        for cycle in (first, (first + last) // 2, last):
            assert_paths_identical(instance, "baseline", "GTO",
                                   injector=self._injector(cycle))

    @pytest.mark.parametrize("scheduler", ["GTO", "OLD", "LRR", "2LV"])
    @pytest.mark.parametrize("scheme", ["baseline", "flame"])
    def test_mid_window_strike_matrix(self, scheduler, scheme):
        """A strike aimed at a cycle the GTO + baseline run covers with
        one memory window, replayed across the scheduler × scheme
        matrix: under GTO + baseline the window must break at the
        injector horizon; under flame the stateful runtime disables
        windows ("resilience" fallback) and non-GTO schedulers never
        open them ("scheduler") — every combination must stay
        byte-identical on its own path."""
        instance = workload_by_name("LBM").instance("tiny")
        first, last = widest_span(
            memory_window_spans(instance, "baseline", "GTO"))
        assert_paths_identical(instance, scheme, scheduler,
                               injector=self._injector((first + last) // 2))


class TestMidSuperblockStrikes:
    """Strikes aimed at the exact cycles a fault-free fast run covers
    with one scripted superblock: the injector's next-event horizon must
    break the script so the strike lands on a cycle-accurate machine,
    and the run must stay byte-identical to the reference interpreter.
    """

    WCDL = 20

    def _injector(self, cycle, site="dest_reg"):
        from repro.arch import SensorModel
        from repro.core.injection import FaultInjector

        return lambda: FaultInjector(
            strike_cycles=[cycle], wcdl=self.WCDL, seed=13, site=site,
            sensor=SensorModel(wcdl=self.WCDL))

    def test_strike_on_superblock_boundary_cycles(self):
        instance = workload_by_name("SGEMM").instance("tiny")
        first, last = widest_span(
            superblock_spans(instance, "baseline", "GTO"))
        assert last > first, "need a multi-cycle superblock window"
        for cycle in (first, (first + last) // 2, last):
            assert_paths_identical(instance, "baseline", "GTO",
                                   injector=self._injector(cycle))

    def test_predicate_corruption_mid_superblock(self):
        """A predicate-write strike mid-window: corrupting a guard can
        change which lanes a later in-block instruction touches, so the
        fast path must abandon batching at the strike."""
        instance = workload_by_name("SGEMM").instance("tiny")
        first, last = widest_span(
            superblock_spans(instance, "baseline", "GTO"))
        mid = (first + last) // 2
        assert_paths_identical(
            instance, "baseline", "GTO",
            injector=self._injector(mid, site="predicate"))

    def test_strike_mid_superblock_under_flame(self):
        """Same boundary pressure with the full rollback runtime: the
        strike triggers sensing + rollback whose replay re-enters the
        superblock region."""
        instance = workload_by_name("SGEMM").instance("tiny")
        first, last = widest_span(
            superblock_spans(instance, "flame", "GTO"))
        assert_paths_identical(
            instance, "flame", "GTO",
            injector=self._injector((first + last) // 2))
