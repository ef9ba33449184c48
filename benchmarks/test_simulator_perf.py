"""Microbenchmarks of the infrastructure itself: simulator throughput
and compiler pass latency (useful to track regressions in the repo)."""

import numpy as np

from repro.compiler import (allocate_registers, clear_compile_memo,
                            compile_kernel, form_regions)
from repro.sim import LaunchConfig, run_kernel
from repro.workloads import WORKLOADS


def _throughput(benchmark, name):
    """Warp-instructions simulated per second on one workload; the
    instance (and hence the cached ExecPlan) is built once so rounds
    measure the steady-state hot path, and memory is refreshed per
    round so every run starts from the same image."""
    instance = WORKLOADS[name].instance("tiny")

    def run():
        mem = instance.fresh_memory()
        return run_kernel(instance.kernel, instance.launch, mem)

    result = benchmark(run)
    benchmark.extra_info["instructions"] = result.stats.instructions


def test_simulator_throughput(benchmark):
    """Memory-latency-bound streaming kernel."""
    _throughput(benchmark, "LBM")


def test_simulator_throughput_sgemm(benchmark):
    """Compute-heavy tiled kernel with barriers and shared-memory
    traffic."""
    _throughput(benchmark, "SGEMM")


def test_simulator_throughput_triad(benchmark):
    """Short streaming kernel with a guard tail (unit-stride loads
    under a bounds predicate)."""
    _throughput(benchmark, "Triad")


def test_compile_flame_pipeline(benchmark):
    """Full Flame compilation (regalloc + regions + renaming + compaction)
    of a barrier-heavy kernel.  The compile memo is emptied before every
    round, so each round times the passes rather than a memo hit."""
    kernel = WORKLOADS["SGEMM"].instance("tiny").kernel
    compiled = benchmark.pedantic(compile_kernel, args=(kernel, "flame"),
                                  setup=clear_compile_memo, rounds=20)
    assert compiled.regions.boundaries > 0


def test_register_allocation(benchmark):
    kernel = WORKLOADS["BS"].instance("tiny").kernel
    result = benchmark(allocate_registers, kernel)
    assert result.num_regs > 0


def test_region_formation(benchmark):
    kernel = allocate_registers(
        WORKLOADS["LUD"].instance("tiny").kernel).kernel
    formed = benchmark(form_regions, kernel)
    assert formed.boundaries > 0
