"""A/B proof that the planned issue path is byte-identical to the
decode-per-issue oracle (``tests.oracle``): every workload's tiny
instance, a scheduler × resilience-scheme matrix and seeded strikes must
produce the same cycle count, the same stats dictionary, and the same
final global memory bytes."""

import pytest

from repro.compiler import compile_kernel
from repro.core import runtime_scheme_by_name
from repro.workloads import WORKLOADS, workload_by_name
from tests.conftest import prepared_launch
from tests.oracle import assert_matches_oracle


def assert_paths_identical(instance, scheme: str, scheduler: str,
                           injector=None, wcdl: int = 20):
    """Compile ``instance`` for ``scheme``'s runtime and hold the planned
    launch to the oracle; returns the planned run's result and the
    injectors of both runs."""
    rscheme = runtime_scheme_by_name(scheme)
    compiled = compile_kernel(instance.kernel, rscheme.compile_scheme,
                              wcdl=wcdl)
    launch, mem = prepared_launch(compiled, instance)
    return assert_matches_oracle(
        compiled.kernel, launch, mem,
        regs_per_thread=compiled.regs_per_thread,
        resilience=rscheme.build(wcdl=wcdl), scheduler=scheduler,
        injector=injector)


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


def assert_strike_identical(instance, scheme: str, scheduler: str,
                            cycle: int, landed: bool, site="dest_reg"):
    """One seeded strike at ``cycle``: both paths must agree, and the
    strike must land (corrupt a resident warp's state) exactly when
    ``landed`` says.  Returns the planned run's result."""
    from repro.arch import SensorModel
    from repro.core.injection import FaultInjector

    # Seed 1's first draw strikes SM 0, which holds every block at tiny
    # scale.
    result, injectors = assert_paths_identical(
        instance, scheme, scheduler,
        injector=lambda: FaultInjector(strike_cycles=[cycle], seed=1,
                                       site=site,
                                       sensor=SensorModel(wcdl=20)))
    record, = injectors[0].records
    assert record.sm_id == 0
    assert record.landed is landed, record
    return result


class TestMemoryWindows:
    """Strikes on memory-bound LBM, at the cycles of its widest former
    memory window: loads and stores dominate those cycles, so the
    strikes land on timed memory operations."""

    def test_strike_on_load_inside_window(self):
        instance = workload_by_name("LBM").instance("tiny")
        # Nothing is in flight at cycle 0.
        assert_strike_identical(instance, "baseline", "GTO", 0, False)
        for cycle in (*LBM_BASELINE_SPAN[1:], 300):
            assert_strike_identical(instance, "baseline", "GTO", cycle, True)

    @pytest.mark.parametrize("scheduler", ["GTO", "OLD", "LRR", "2LV"])
    @pytest.mark.parametrize("scheme", ["baseline", "flame"])
    def test_mid_window_strike_matrix(self, scheduler, scheme):
        """The middle strike across the scheduler × scheme matrix."""
        instance = workload_by_name("LBM").instance("tiny")
        assert_strike_identical(instance, scheme, scheduler,
                                LBM_BASELINE_SPAN[1], True)


class TestMidSuperblockStrikes:
    """Strikes on SGEMM at the cycles of its widest former superblock
    script: straight-line value code between barriers."""

    def test_strike_on_superblock_boundary_cycles(self):
        instance = workload_by_name("SGEMM").instance("tiny")
        first, *rest = SGEMM_BASELINE_SPAN
        assert_strike_identical(instance, "baseline", "GTO", first, False)
        for cycle in rest:
            assert_strike_identical(instance, "baseline", "GTO", cycle, True)

    def test_predicate_corruption_mid_superblock(self):
        """A predicate-write strike: corrupting a guard changes which
        lanes later instructions touch.  SGEMM has no predicate write in
        flight at this cycle, so the strike must find nothing."""
        instance = workload_by_name("SGEMM").instance("tiny")
        assert_strike_identical(instance, "baseline", "GTO",
                                SGEMM_BASELINE_SPAN[1], False,
                                site="predicate")

    def test_strike_mid_superblock_under_flame(self):
        """The full rollback runtime: the strike triggers sensing and a
        rollback whose replay re-executes the struck region.  The early
        strike finds nothing in flight, yet the sensor still hears it
        and rolls the SM back."""
        instance = workload_by_name("SGEMM").instance("tiny")
        for cycle, landed in ((SGEMM_FLAME_SPAN[1], False), (400, True)):
            result = assert_strike_identical(instance, "flame", "GTO",
                                             cycle, landed)
            assert result.stats.recoveries == 1


class TestCompareRecoveryStrikes:
    """The compare runtimes recover without the sensor: a landed strike
    fails the struck warp's end-of-region check."""

    @pytest.mark.parametrize("scheme", ["dmr", "partial_thread"])
    def test_compare_rollback(self, scheme):
        instance = workload_by_name("SGEMM").instance("tiny")
        result = assert_strike_identical(instance, scheme, "GTO", 400, True)
        assert result.stats.recoveries == 1

    def test_abft_single_warp_correction(self):
        instance = workload_by_name("SGEMM_ABFT").instance("tiny")
        result = assert_strike_identical(instance, "abft_sgemm", "GTO", 400,
                                         True)
        assert result.stats.recoveries == 1
        assert result.stats.abft_corrections == 1
