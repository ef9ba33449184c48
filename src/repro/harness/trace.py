"""Traced single runs: one workload, full event timeline, stall ledger.

``run_traced`` runs a configuration through the same
:func:`repro.core.schemes.launcher` as
:func:`repro.harness.runner.execute`, with the observability stack
attached: a :class:`~repro.obs.Tracer` collects the cycle-level event
stream and, when injection is enabled, a single strike is scheduled
mid-kernel so the trace also exhibits the detection/recovery machinery
(strike, detection, rollback, region verification).  The strike cycle is sampled from an untraced golden
pre-run, which guarantees it lands while the kernel is still live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.injection import FaultInjector
from ..core.schemes import launcher, runtime_scheme_by_name
from ..errors import ConfigError, ReproError
from ..obs import Tracer


@dataclass
class TracedRun:
    """Everything the trace CLI renders: timeline + stall ledger."""

    workload: str
    scheme: str
    scheduler: str
    scale: str
    cycles: int
    verified: bool
    tracer: Tracer
    stats: object  # merged SimStats of the traced run
    strike_cycle: int | None = None
    injections: list = field(default_factory=list)


def run_traced(workload: str, scheme: str = "flame",
               scheduler: str = "GTO", scale: str = "tiny",
               gpu: str = "GTX480", wcdl: int = 20, seed: int = 0,
               inject: bool = True, site: str = "dest_reg",
               capacity: int = 1 << 20) -> TracedRun:
    """Run one configuration with the tracer attached.

    With ``inject=True`` (the default) an untraced golden pre-run first
    measures the kernel's cycle count, then the traced run takes one
    strike at a seeded cycle in ``[1, golden_cycles // 2]`` — early
    enough that its detection and recovery land inside the trace.
    Injection requires a scheme whose runtime detects strikes; it is
    skipped (not an error) for unprotected ``baseline`` runs.
    """
    rscheme = runtime_scheme_by_name(scheme)
    if not rscheme.supports_workload(workload):
        raise ConfigError(
            f"scheme {scheme!r} only supports workloads "
            f"{', '.join(rscheme.workloads)}; cannot trace {workload!r}")
    inject = inject and rscheme.detects
    instance, _, launch = launcher(workload, scheme, scale, gpu=gpu,
                                   scheduler=scheduler, wcdl=wcdl)
    strike_cycle = None
    injector = None
    if inject:
        golden, _ = launch()
        rng = np.random.default_rng(seed)
        strike_cycle = int(rng.integers(1, max(2, golden.cycles // 2)))
        injector = FaultInjector(strike_cycles=[strike_cycle], wcdl=wcdl,
                                 seed=seed, site=site)

    tracer = Tracer(capacity=capacity)
    result, mem = launch(injector, tracer)
    verified = instance.verify(mem)
    if not verified and not inject:
        raise ReproError(
            f"{workload} produced wrong output under {scheme}")
    return TracedRun(
        workload=workload, scheme=scheme, scheduler=scheduler,
        scale=scale, cycles=result.cycles, verified=verified,
        tracer=tracer, stats=result.stats, strike_cycle=strike_cycle,
        injections=list(injector.records) if injector is not None else [])


__all__ = ["TracedRun", "run_traced"]
