"""Benchmark for the Section IV analysis: measured region sizes plus
the fault-rate arithmetic, and recovery-latency microbenchmarks."""

import numpy as np
from conftest import SUBSET

from repro.compiler import compile_kernel
from repro.core import FaultInjector, FlameRuntime
from repro.harness import section4
from repro.sim import Gpu
from repro.arch import GTX480
from repro.workloads import WORKLOADS


def test_section4_measured(benchmark, runner):
    report = benchmark.pedantic(
        section4, kwargs=dict(scale="tiny", benchmarks=SUBSET,
                              runner=runner),
        iterations=1, rounds=1)
    assert report["avg_region_instructions"] > 0
    benchmark.extra_info["measured_region_size"] = round(
        report["avg_region_instructions"], 2)
    benchmark.extra_info["paper_region_size"] = 50.23


def test_recovery_latency(benchmark):
    """Cost of one strike-detect-rollback-reexecute episode."""
    instance = WORKLOADS["LBM"].instance("tiny")
    compiled = compile_kernel(instance.kernel, "flame")

    def run(strikes):
        gpu = Gpu(GTX480, resilience=FlameRuntime(20))
        if strikes:
            gpu.fault_injector = FaultInjector(strike_cycles=strikes,
                                               wcdl=20, seed=1)
        result, mem = instance.run(compiled, gpu)
        assert instance.verify(mem)
        return result.cycles

    def episode():
        return run([100]) - run([])

    delta = benchmark.pedantic(episode, iterations=1, rounds=3)
    # One recovery re-executes at most ~one region per warp: cheap.
    benchmark.extra_info["recovery_delta_cycles"] = delta
