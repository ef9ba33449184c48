"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation disables one compiler design decision and measures its
effect on Flame's compiled-code shape and runtime overhead:

* ``no_provenance`` — alias analysis without pointer-provenance
  disambiguation: every load/store pair on different bases may alias,
  so the region former cuts far more often;
* ``no_compaction`` — renaming without idempotence-aware register
  reuse: one fresh register per renamed definition, inflating register
  pressure and potentially occupancy;
* ``no_region_opt`` — Flame without the Section III-E region-extension
  optimization (this is exactly the paper's Figure 16 and is included
  here for completeness of the ablation matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch import GTX480
from ..compiler import compile_kernel
from ..core import FlameRuntime
from ..sim import NULL_RESILIENCE, Gpu
from ..workloads import WORKLOADS

#: Representative mix: streaming, tiled-barrier, reduction, scatter.
DEFAULT_BENCHMARKS = ("SGEMM", "LBM", "CS", "SP", "Kmeans", "GUPS")

ABLATIONS = ("full", "no_provenance", "no_compaction", "no_region_opt")


@dataclass
class AblationRow:
    """One (benchmark, variant) measurement."""

    benchmark: str
    variant: str
    cycles: int
    normalized: float
    boundaries: int
    regs_per_thread: int
    avg_region_size: float


def _compile_variant(kernel, variant: str, wcdl: int):
    if variant == "full":
        return compile_kernel(kernel, "flame", wcdl=wcdl)
    if variant == "no_provenance":
        return compile_kernel(kernel, "flame", wcdl=wcdl,
                              use_provenance=False)
    if variant == "no_compaction":
        return compile_kernel(kernel, "flame", wcdl=wcdl, compact=False)
    if variant == "no_region_opt":
        return compile_kernel(kernel, "sensor_renaming", wcdl=wcdl)
    raise ValueError(f"unknown ablation variant {variant!r}")


def run_ablation(benchmarks=DEFAULT_BENCHMARKS, scale: str = "tiny",
                 wcdl: int = 20) -> list[AblationRow]:
    """Run every ablation variant on every benchmark.

    Returns one row per (benchmark, variant), normalized against the
    unprotected baseline of the same benchmark.
    """
    rows: list[AblationRow] = []
    for abbr in benchmarks:
        instance = WORKLOADS[abbr].instance(scale)

        def launch(compiled, runtime):
            result, mem = instance.run(compiled, Gpu(GTX480, runtime))
            assert instance.verify(mem), (abbr, "ablation broke semantics")
            return result

        base_compiled = compile_kernel(instance.kernel, "baseline")
        base = launch(base_compiled, NULL_RESILIENCE)
        for variant in ABLATIONS:
            compiled = _compile_variant(instance.kernel, variant, wcdl)
            result = launch(compiled, FlameRuntime(wcdl))
            rows.append(AblationRow(
                benchmark=abbr,
                variant=variant,
                cycles=result.cycles,
                normalized=result.cycles / base.cycles,
                boundaries=compiled.regions.boundaries,
                regs_per_thread=compiled.regs_per_thread,
                avg_region_size=result.stats.avg_region_size,
            ))
    return rows


def render_ablation(rows: list[AblationRow]) -> str:
    from .reporting import render_table

    body = [[r.benchmark, r.variant, f"{r.normalized:.3f}", r.boundaries,
             r.regs_per_thread, f"{r.avg_region_size:.1f}"]
            for r in rows]
    return render_table(
        ["Benchmark", "Variant", "Norm. time", "Boundaries", "Regs",
         "Avg region"],
        body,
        title="Ablation: Flame design choices (normalized to baseline)")
