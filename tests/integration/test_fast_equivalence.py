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
    assert fast[1] == ref[1], "stats diverge"
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


#: Cycles ``(first, middle, last)`` of the widest span that the
#: since-deleted superblock-script and memory-window tiers covered in
#: one go on a fault-free fast GTO run; the strikes below keep aiming
#: at them.
SGEMM_BASELINE_SPAN = (0, 190, 381)
SGEMM_FLAME_SPAN = (0, 2, 4)
LBM_BASELINE_SPAN = (0, 283, 567)


def _strike(cycle, site="dest_reg", wcdl=20):
    """A factory for a one-strike injector at ``cycle``."""
    from repro.arch import SensorModel
    from repro.core.injection import FaultInjector

    return lambda: FaultInjector(
        strike_cycles=[cycle], wcdl=wcdl, seed=13, site=site,
        sensor=SensorModel(wcdl=wcdl))


class TestMemoryWindows:
    """Strikes on memory-bound LBM, at the cycles of its widest former
    memory window: loads and stores dominate those cycles, so the
    strikes land on timed memory operations."""

    def test_strike_on_load_inside_window(self):
        instance = workload_by_name("LBM").instance("tiny")
        for cycle in LBM_BASELINE_SPAN:
            assert_paths_identical(instance, "baseline", "GTO",
                                   injector=_strike(cycle))

    @pytest.mark.parametrize("scheduler", ["GTO", "OLD", "LRR", "2LV"])
    @pytest.mark.parametrize("scheme", ["baseline", "flame"])
    def test_mid_window_strike_matrix(self, scheduler, scheme):
        """The middle strike across the scheduler × scheme matrix."""
        instance = workload_by_name("LBM").instance("tiny")
        assert_paths_identical(instance, scheme, scheduler,
                               injector=_strike(LBM_BASELINE_SPAN[1]))


class TestMidSuperblockStrikes:
    """Strikes on SGEMM at the cycles of its widest former superblock
    script: straight-line value code between barriers."""

    def test_strike_on_superblock_boundary_cycles(self):
        instance = workload_by_name("SGEMM").instance("tiny")
        for cycle in SGEMM_BASELINE_SPAN:
            assert_paths_identical(instance, "baseline", "GTO",
                                   injector=_strike(cycle))

    def test_predicate_corruption_mid_superblock(self):
        """A predicate-write strike: corrupting a guard changes which
        lanes later instructions touch."""
        instance = workload_by_name("SGEMM").instance("tiny")
        assert_paths_identical(
            instance, "baseline", "GTO",
            injector=_strike(SGEMM_BASELINE_SPAN[1], site="predicate"))

    def test_strike_mid_superblock_under_flame(self):
        """The full rollback runtime: the strike triggers sensing and a
        rollback whose replay re-executes the struck region."""
        instance = workload_by_name("SGEMM").instance("tiny")
        assert_paths_identical(
            instance, "flame", "GTO",
            injector=_strike(SGEMM_FLAME_SPAN[1]))
