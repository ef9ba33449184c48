#!/usr/bin/env python
"""Fault injection demo: watch Flame absorb a particle-strike storm.

Launches the SGEMM benchmark three ways:

* fault-free under Flame (the golden run);
* under Flame with 15 injected strikes — every one is sensed within
  WCDL, all warps roll back to their Recovery-PC-Table entries, and the
  final output is bit-identical to the golden run;
* on an unprotected baseline GPU with the same strikes — silent data
  corruption.

Run:  python examples/fault_injection_demo.py
"""

import numpy as np

from repro.arch import GTX480
from repro.compiler import compile_kernel
from repro.core import FaultInjector, FlameRuntime
from repro.sim import NULL_RESILIENCE, Gpu
from repro.workloads import WORKLOADS

WCDL = 20
STRIKES = [100 + 211 * k for k in range(15)]


def launch(compiled, instance, runtime=NULL_RESILIENCE, injector=None):
    gpu = Gpu(GTX480, resilience=runtime)
    gpu.fault_injector = injector
    return instance.run(compiled, gpu)


def main():
    instance = WORKLOADS["SGEMM"].instance("tiny")
    flame = compile_kernel(instance.kernel, "flame", wcdl=WCDL)
    baseline = compile_kernel(instance.kernel, "baseline")

    golden_result, golden = launch(flame, instance, FlameRuntime(WCDL))
    print(f"golden run : {golden_result.cycles} cycles, output verified: "
          f"{instance.verify(golden)}")

    injector = FaultInjector(strike_cycles=STRIKES, wcdl=WCDL, seed=42)
    faulty_result, faulty = launch(flame, instance, FlameRuntime(WCDL),
                                   injector)
    landed = sum(1 for r in injector.records if r.landed)
    print(f"\nflame run under fire:")
    print(f"  strikes injected   : {len(injector.records)} "
          f"({landed} corrupted a live register)")
    for record in injector.records[:5]:
        where = (f"warp {record.warp_id} r{record.corrupted_reg}"
                 if record.landed else "no in-flight value (masked)")
        print(f"    strike @ {record.strike_cycle:5d} -> detected @ "
              f"{record.detect_cycle:5d} ({where})")
    print("    ...")
    print(f"  recoveries          : {faulty_result.stats.recoveries}")
    print(f"  cycles              : {faulty_result.cycles} "
          f"(golden {golden_result.cycles})")
    identical = np.array_equal(faulty, golden)
    print(f"  output == golden    : {identical}   <- idempotent recovery")
    assert identical

    sdc_runs = 0
    for seed in range(6):
        inj = FaultInjector(strike_cycles=STRIKES, wcdl=WCDL, seed=seed)
        _, mem = launch(baseline, instance, injector=inj)
        if not instance.verify(mem):
            sdc_runs += 1
    print(f"\nunprotected baseline, same storm, 6 seeds: "
          f"{sdc_runs}/6 runs ended in silent data corruption")


if __name__ == "__main__":
    main()
