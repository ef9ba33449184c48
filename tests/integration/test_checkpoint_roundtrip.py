"""Snapshot protocol round-trips: restore(capture(c)) must be invisible.

Property: for any checkpoint taken at cycle ``c`` of a run, restoring
it into a freshly configured GPU and running to completion is
byte-identical to the original run — same cycle count, same stats
counters, same final memory — with the per-cycle sanitizer attached
and silent throughout.  Exercised across every scheduler, both
schemes, and (the hard case) a double strike whose second hit lands
inside the first one's rollback window, so the restored state carries
in-flight RPT/RBQ bookkeeping and a mid-window fault injector.
"""

import numpy as np
import pytest

from repro.arch import SensorModel, gpu_by_name
from repro.compiler import compile_kernel, prepare_launch, scheme_by_name
from repro.core.injection import FaultInjector
from repro.core.runtime import FlameRuntime
from repro.sim import (CheckpointRecorder, Gpu, LaunchConfig,
                       NULL_RESILIENCE, SCHEDULERS, Sanitizer)
from repro.workloads import workload_by_name

WCDL = 20


def _launcher(scheme_name: str, scheduler: str, workload: str = "SGEMM",
              sanitize: bool = True):
    """A launch closure over a compiled workload, mirroring the
    campaign layer's golden-run setup (sanitizer attached by default)."""
    instance = workload_by_name(workload).instance("tiny")
    scheme = scheme_by_name(scheme_name)
    compiled = compile_kernel(instance.kernel, scheme, wcdl=WCDL)
    config = gpu_by_name("GTX480")

    def launch_once(injector=None, **kwargs):
        runtime = (FlameRuntime(WCDL) if scheme.uses_sensor_runtime
                   else NULL_RESILIENCE)
        gpu = Gpu(config, resilience=runtime, scheduler=scheduler,
                  sanitizer=Sanitizer() if sanitize else None)
        gpu.fault_injector = injector
        mem = instance.fresh_memory()
        params, mem = prepare_launch(
            compiled, instance.launch.params, mem,
            instance.launch.num_blocks, instance.launch.threads_per_block,
            warp_size=config.warp_size)
        launch = LaunchConfig(grid=instance.launch.grid,
                              block=instance.launch.block, params=params)
        result = gpu.launch(compiled.kernel, launch, mem,
                            regs_per_thread=compiled.regs_per_thread,
                            **kwargs)
        return result, mem

    return launch_once


def _assert_identical(restored, reference):
    result_a, mem_a = restored
    result_b, mem_b = reference
    assert result_a.cycles == result_b.cycles
    assert np.array_equal(mem_a, mem_b)
    assert result_a.stats.as_dict() == result_b.stats.as_dict()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("scheme", ["baseline", "flame"])
def test_fault_free_roundtrip(scheme, scheduler):
    """Every (scheduler, scheme): restore from a mid-run checkpoint and
    finish byte-identically to an uncheckpointed run."""
    launch_once = _launcher(scheme, scheduler)
    reference = launch_once()
    recorder = CheckpointRecorder()  # adaptive spacing
    _assert_identical(launch_once(recorder=recorder), reference)
    assert len(recorder.checkpoints) >= 2
    middle = recorder.checkpoints[len(recorder.checkpoints) // 2]
    assert 0 < middle.cycle < reference[0].cycles
    _assert_identical(launch_once(resume_from=middle), reference)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("scheme", ["baseline", "flame"])
def test_strike_mid_rollback_roundtrip(scheme, scheduler):
    """Double strike with the second landing inside the first one's
    rollback window; restore points bracket the strikes (before, on
    the strike cycle, and after the window)."""
    launch_once = _launcher(scheme, scheduler)
    strikes = [500, 505]

    def injector():
        return FaultInjector(strike_cycles=list(strikes), wcdl=WCDL,
                             seed=7, sensor=SensorModel(wcdl=WCDL))

    ref_injector = injector()
    reference = launch_once(ref_injector)
    recorder = CheckpointRecorder(interval=100)
    _assert_identical(launch_once(injector(), recorder=recorder), reference)
    for checkpoint in recorder.checkpoints:
        if checkpoint.cycle not in (300, 500, 800):
            continue
        restored_injector = injector()
        _assert_identical(
            launch_once(restored_injector, resume_from=checkpoint),
            reference)
        # Injector state round-trips too: identical strike records.
        assert len(restored_injector.records) == len(ref_injector.records)
        for restored, original in zip(restored_injector.records,
                                      ref_injector.records):
            assert restored == original


def _restore_at(launch_once, interval: int, cycle: int) -> None:
    """Record checkpoints every ``interval`` cycles, then resume from
    the one captured at ``cycle``; both runs must match a plain one."""
    reference = launch_once()
    recorder = CheckpointRecorder(interval=interval)
    _assert_identical(launch_once(recorder=recorder), reference)
    (checkpoint,) = [c for c in recorder.checkpoints if c.cycle == cycle]
    _assert_identical(launch_once(resume_from=checkpoint), reference)


def test_restore_inside_superblock_window():
    """Resume SGEMM at cycle 2, inside the widest span (cycles 0-4)
    that the since-deleted superblock scripts covered when the memory
    windows were off: warps restored mid straight-line code."""
    _restore_at(_launcher("baseline", "GTO", sanitize=False),
                interval=2, cycle=2)


def test_restore_inside_memory_window():
    """Resume LBM at cycle 425, inside the widest span (cycles 0-567)
    that the since-deleted memory windows covered, with checkpoints
    spaced at half that span: warps restored mid-stream, with the cache
    state repopulated from the snapshot."""
    _restore_at(_launcher("baseline", "GTO", workload="LBM",
                          sanitize=False),
                interval=283, cycle=425)


def test_checkpoint_is_reusable():
    """Restoring must never mutate the checkpoint: two consecutive
    restores from the same snapshot give identical runs."""
    launch_once = _launcher("flame", "GTO")
    recorder = CheckpointRecorder()
    reference = launch_once(recorder=recorder)
    middle = recorder.checkpoints[len(recorder.checkpoints) // 2]
    _assert_identical(launch_once(resume_from=middle), reference)
    _assert_identical(launch_once(resume_from=middle), reference)


def test_version_mismatch_refused():
    import dataclasses

    from repro.errors import SimError

    launch_once = _launcher("baseline", "GTO")
    recorder = CheckpointRecorder()
    launch_once(recorder=recorder)
    stale = dataclasses.replace(recorder.checkpoints[0], version=0)
    with pytest.raises(SimError):
        launch_once(resume_from=stale)
