"""Experiment runner: compile + launch + verify one configuration.

Results are cached on disk (keyed by the full run specification) so the
figure harnesses can share baselines and re-render cheaply; pass
``fresh=True`` to bypass the cache.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
from dataclasses import asdict, dataclass

from ..arch import gpu_by_name
from ..compiler import compile_kernel, prepare_launch, scheme_by_name
from ..core import runtime_scheme_by_name
from ..errors import ReproError
from ..sim import Gpu, LaunchConfig
from ..workloads import workload_by_name

#: Bump to invalidate cached results after behaviour-changing edits.
CACHE_VERSION = 5

_DEFAULT_CACHE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), ".repro_cache")


@dataclass(frozen=True)
class RunSpec:
    """Everything identifying one simulation run."""

    workload: str
    scheme: str = "baseline"
    scale: str = "small"
    gpu: str = "GTX480"
    scheduler: str = "GTO"
    wcdl: int = 20

    def cache_key(self) -> str:
        return (f"v{CACHE_VERSION}_{self.workload}_{self.scheme}_"
                f"{self.scale}_{self.gpu.replace(' ', '')}_"
                f"{self.scheduler}_w{self.wcdl}")


@dataclass
class RunOutcome:
    """Result of one run: timing plus the stats the figures need."""

    spec: RunSpec
    cycles: int
    instructions: int
    verified: bool
    avg_region_size: float
    boundaries: int
    static_regions: int
    renames: int
    shadow_instructions: int
    ckpt_instructions: int
    rbq_enqueues: int
    l1_miss_rate: float
    shared_bank_conflicts: int
    occupancy_warps: int
    regs_per_thread: int

    def as_dict(self) -> dict:
        data = asdict(self)
        data["spec"] = asdict(self.spec)
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunOutcome":
        spec = RunSpec(**data.pop("spec"))
        return RunOutcome(spec=spec, **data)


def execute(spec: RunSpec) -> RunOutcome:
    """Compile and simulate one configuration (no caching)."""
    workload = workload_by_name(spec.workload)
    instance = workload.instance(spec.scale)
    rscheme = runtime_scheme_by_name(spec.scheme)
    scheme = scheme_by_name(rscheme.compile_scheme)
    compiled = compile_kernel(instance.kernel, scheme, wcdl=spec.wcdl)
    config = gpu_by_name(spec.gpu)
    runtime = rscheme.build(wcdl=spec.wcdl)
    gpu = Gpu(config, resilience=runtime, scheduler=spec.scheduler)
    mem = instance.fresh_memory()
    params, mem = prepare_launch(
        compiled, instance.launch.params, mem,
        instance.launch.num_blocks, instance.launch.threads_per_block,
        warp_size=config.warp_size)
    launch = LaunchConfig(grid=instance.launch.grid,
                          block=instance.launch.block, params=params)
    result = gpu.launch(compiled.kernel, launch, mem,
                        regs_per_thread=compiled.regs_per_thread)
    verified = instance.verify(mem)
    if not verified:
        raise ReproError(
            f"{spec.workload} produced wrong output under {spec.scheme}")
    regions = compiled.regions
    return RunOutcome(
        spec=spec,
        cycles=result.cycles,
        instructions=result.stats.instructions,
        verified=verified,
        avg_region_size=result.stats.avg_region_size,
        boundaries=regions.boundaries if regions else 0,
        static_regions=compiled.static_region_count,
        renames=regions.renames if regions else 0,
        shadow_instructions=result.stats.shadow_instructions,
        ckpt_instructions=result.stats.ckpt_instructions,
        rbq_enqueues=result.stats.rbq_enqueues,
        l1_miss_rate=result.stats.l1_miss_rate,
        shared_bank_conflicts=result.stats.shared_bank_conflicts,
        occupancy_warps=result.stats.occupancy_warps,
        regs_per_thread=compiled.regs_per_thread,
    )


class Runner:
    """Caching, optionally parallel, experiment runner."""

    def __init__(self, cache_dir: str | None = None,
                 workers: int | None = None, fresh: bool = False) -> None:
        self.cache_dir = cache_dir or os.environ.get(
            "REPRO_CACHE_DIR", _DEFAULT_CACHE_DIR)
        self.workers = workers if workers is not None else \
            max(1, (os.cpu_count() or 1))
        self.fresh = fresh
        self._memory: dict[str, RunOutcome] = {}

    def _cache_path(self, spec: RunSpec) -> str:
        return os.path.join(self.cache_dir, spec.cache_key() + ".json")

    def _load(self, spec: RunSpec) -> RunOutcome | None:
        if self.fresh:
            return None
        key = spec.cache_key()
        if key in self._memory:
            return self._memory[key]
        path = self._cache_path(spec)
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    outcome = RunOutcome.from_dict(json.load(handle))
            except (json.JSONDecodeError, TypeError, KeyError):
                return None
            self._memory[key] = outcome
            return outcome
        return None

    def _store(self, outcome: RunOutcome) -> None:
        self._memory[outcome.spec.cache_key()] = outcome
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(outcome.spec)
        # Write-then-rename so a killed process can never leave a
        # truncated cache entry: the temp file lives in cache_dir to
        # keep os.replace on one filesystem (rename is atomic there).
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir,
                                        prefix=".tmp_",
                                        suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(outcome.as_dict(), handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def run(self, spec: RunSpec) -> RunOutcome:
        cached = self._load(spec)
        if cached is not None:
            return cached
        # A run's simulator state (SMs, warps, execution plans) sits
        # in reference cycles that only the cyclic collector frees; free
        # it when the run ends, so back-to-back runs peak at one run's
        # memory rather than whenever allocation churn next triggers the
        # collector.  Freezing what existed before the run first keeps
        # that collection to the run's own objects instead of every
        # import-time object; a caller that froze objects itself keeps
        # its GC state.
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            outcome = execute(spec)
        finally:
            gc.collect()
            if freeze:
                gc.unfreeze()
        self._store(outcome)
        return outcome

    def run_many(self, specs: list[RunSpec],
                 progress: bool = False) -> list[RunOutcome]:
        """Run a batch, using a process pool for uncached specs."""
        outcomes: dict[str, RunOutcome] = {}
        missing: list[RunSpec] = []
        seen: set[str] = set()
        for spec in specs:
            key = spec.cache_key()
            if key in seen:
                continue
            seen.add(key)
            cached = self._load(spec)
            if cached is not None:
                outcomes[key] = cached
            else:
                missing.append(spec)
        failures: list[tuple[RunSpec, BaseException]] = []
        if missing:
            if self.workers > 1 and len(missing) > 1:
                from concurrent.futures import (ProcessPoolExecutor,
                                                as_completed)

                # submit + as_completed (rather than pool.map) so one
                # failing spec surfaces its own error and the rest of
                # the batch still completes.
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    futures = {pool.submit(execute, spec): spec
                               for spec in missing}
                    for i, future in enumerate(as_completed(futures)):
                        spec = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:
                            failures.append((spec, exc))
                            if progress:
                                print(f"  [{i + 1}/{len(missing)}] "
                                      f"{spec.workload}/{spec.scheme} "
                                      f"FAILED: {exc}", flush=True)
                            continue
                        self._store(outcome)
                        outcomes[outcome.spec.cache_key()] = outcome
                        if progress:
                            print(f"  [{i + 1}/{len(missing)}] "
                                  f"{outcome.spec.workload}/"
                                  f"{outcome.spec.scheme} done", flush=True)
            else:
                for i, spec in enumerate(missing):
                    try:
                        outcome = self.run(spec)
                    except Exception as exc:
                        failures.append((spec, exc))
                        if progress:
                            print(f"  [{i + 1}/{len(missing)}] "
                                  f"{spec.workload}/{spec.scheme} "
                                  f"FAILED: {exc}", flush=True)
                        continue
                    outcomes[spec.cache_key()] = outcome
                    if progress:
                        print(f"  [{i + 1}/{len(missing)}] "
                              f"{spec.workload}/{spec.scheme} done",
                              flush=True)
        if failures:
            detail = "; ".join(
                f"{spec.workload}/{spec.scheme}/{spec.scale}: "
                f"{type(exc).__name__}: {exc}" for spec, exc in failures)
            raise ReproError(
                f"{len(failures)} of {len(missing)} uncached runs failed "
                f"({len(missing) - len(failures)} completed and were "
                f"cached) — {detail}")
        return [outcomes[spec.cache_key()] for spec in specs]


def normalized_time(runner: Runner, spec: RunSpec) -> float:
    """Execution time of ``spec`` normalized to its no-resilience
    baseline on the same GPU/scheduler/scale."""
    # The baseline ignores WCDL; pin it so WCDL sweeps share one baseline.
    baseline = RunSpec(workload=spec.workload, scheme="baseline",
                       scale=spec.scale, gpu=spec.gpu,
                       scheduler=spec.scheduler, wcdl=20)
    base = runner.run(baseline)
    run = runner.run(spec)
    return run.cycles / base.cycles
