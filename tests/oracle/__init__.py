"""Test oracles: the decode-per-issue reference interpreter and the
full-sweep sanitizer.

``repro.sim`` issues from decode-once plans (:mod:`repro.sim.plan`) and
sanitizes only what a cycle changed.  This package keeps a second,
independent implementation of each for tests to hold it to:

* :mod:`tests.oracle.functional` — ``execute``, one instruction's value
  semantics read straight off the :class:`~repro.isa.Instruction`;
* :mod:`tests.oracle.sm` — :class:`ReferenceSm`, an ``Sm`` that decodes
  on every issue and ticks every cycle in full;
* :mod:`tests.oracle.sanitizer` — :class:`ReferenceSanitizer`, the
  architectural sanitizer sweeping every warp and table at every check
  (``repro.sim.Sanitizer`` re-verifies only what changed).

:func:`oracle_gpu` builds an ordinary ``Gpu`` and swaps its SMs for
reference ones (``ResilienceRuntime.bind`` is a per-SM factory, so each
reference SM binds fresh runtime state).  :func:`assert_matches_oracle`
runs one launch on the planned path and on the oracle and requires the
same cycles, the same ``SimStats.as_dict()`` and the same final memory
bytes.  Nothing under ``src/`` imports this package.
"""

from __future__ import annotations

import numpy as np

from repro.arch import GTX480, GpuConfig
from repro.sim import NULL_RESILIENCE, Gpu, ResilienceRuntime, RunResult

from .functional import execute
from .sanitizer import ReferenceSanitizer, sanitizer_class
from .sm import ReferenceSm, bank_conflict_degree

__all__ = ["ReferenceSanitizer", "ReferenceSm", "assert_matches_oracle",
           "bank_conflict_degree", "execute", "oracle_gpu",
           "sanitizer_class"]


def oracle_gpu(config: GpuConfig = GTX480,
               resilience: ResilienceRuntime = NULL_RESILIENCE,
               scheduler: str = "GTO") -> Gpu:
    """A ``Gpu`` whose SMs run the reference interpreter."""
    gpu = Gpu(config, resilience, scheduler)
    gpu.sms = [ReferenceSm(sm.id, config, gpu.l2, resilience)
               for sm in gpu.sms]
    return gpu


def assert_matches_oracle(kernel, launch, memory: np.ndarray, *,
                          regs_per_thread: int | None = None,
                          resilience: ResilienceRuntime = NULL_RESILIENCE,
                          scheduler: str = "GTO",
                          injector=None) -> tuple[RunResult, list]:
    """Launch ``kernel`` on the planned path and on the oracle, each on
    its own copy of ``memory``; assert identical cycles, stats and final
    memory bytes.  Returns the planned run's result and the injectors
    of the planned and oracle runs (empty without ``injector``).

    ``injector`` is a zero-argument factory: each run gets a fresh
    fault injector, and both must record the same strikes.
    """
    runs = []
    injectors = []
    for make in (Gpu, oracle_gpu):
        gpu = make(GTX480, resilience, scheduler)
        if injector is not None:
            gpu.fault_injector = injector()
            injectors.append(gpu.fault_injector)
        runs.append(gpu.launch(kernel, launch, memory.copy(),
                               regs_per_thread=regs_per_thread))
    planned, oracle = runs
    where = f"{kernel.name} under {scheduler}, {type(resilience).__name__}"
    assert planned.cycles == oracle.cycles, f"cycles diverge: {where}"
    assert planned.stats.as_dict() == oracle.stats.as_dict(), \
        f"stats diverge: {where}"
    assert planned.global_mem.tobytes() == oracle.global_mem.tobytes(), \
        f"final memory diverges: {where}"
    if injectors:
        assert injectors[0].records == injectors[1].records, \
            f"strike records diverge: {where}"
    return planned, injectors
