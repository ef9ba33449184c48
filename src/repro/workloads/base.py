"""Workload framework for the 34 Table-I benchmarks.

Each workload builds, for a given scale, a :class:`WorkloadInstance`:
the kernel (written in the virtual ISA), the launch geometry, the
initial global memory image, and a NumPy reference computing the
expected final memory.  The reference is what makes every benchmark
double as a functional correctness test — including under fault
injection, where recovered runs must reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..compiler import CompiledKernel, prepare_launch
from ..errors import ConfigError
from ..isa import Kernel
from ..sim import Gpu, LaunchConfig, RunResult

#: Workload scales.  ``tiny`` keeps unit tests fast; ``small`` is the
#: default for the figure harness; ``medium`` for closer-to-paper runs.
SCALES = ("tiny", "small", "medium")


@dataclass
class WorkloadInstance:
    """One concrete, runnable benchmark configuration."""

    kernel: Kernel
    launch: LaunchConfig
    global_mem: np.ndarray
    expected: np.ndarray | None = None
    check_region: slice | None = None
    rtol: float = 1e-9
    atol: float = 1e-9

    def fresh_memory(self) -> np.ndarray:
        """A pristine copy of the initial global-memory image."""
        return self.global_mem.copy()

    def run(self, compiled: CompiledKernel, gpu: Gpu,
            **launch_kwargs) -> tuple[RunResult, np.ndarray]:
        """Launch ``compiled`` (this kernel under some scheme) on ``gpu``
        from fresh memory; returns ``(RunResult, final memory)``.

        The scheme's checkpoint storage, if any, is appended to memory
        and passed as the extra kernel parameter; ``launch_kwargs`` go
        to :meth:`repro.sim.Gpu.launch` (cycle budget, checkpoint
        recorder, resume point, convergence monitor).
        """
        launch = self.launch
        params, mem = prepare_launch(
            compiled, launch.params, self.fresh_memory(), launch.num_blocks,
            launch.threads_per_block, warp_size=gpu.config.warp_size)
        config = LaunchConfig(grid=launch.grid, block=launch.block,
                              params=params)
        result = gpu.launch(compiled.kernel, config, mem,
                            regs_per_thread=compiled.regs_per_thread,
                            **launch_kwargs)
        return result, mem

    def verify(self, final_mem: np.ndarray) -> bool:
        """Does the final memory match the NumPy reference?"""
        if self.expected is None:
            return True
        region = self.check_region or slice(0, self.expected.size)
        got = final_mem[region]
        want = self.expected[region] if self.expected.size >= got.size \
            else self.expected
        return bool(np.allclose(got, want, rtol=self.rtol, atol=self.atol))


@dataclass(frozen=True)
class Workload:
    """A named benchmark: metadata plus an instance factory."""

    abbr: str
    full_name: str
    suite: str
    build: Callable[[str], WorkloadInstance] = field(compare=False)
    uses_barriers: bool = False
    uses_atomics: bool = False
    notes: str = ""

    def instance(self, scale: str = "small") -> WorkloadInstance:
        if scale not in SCALES:
            raise ConfigError(
                f"unknown scale {scale!r}; choose from {SCALES}")
        return self.build(scale)


def pick(scale: str, tiny, small, medium):
    """Scale-indexed parameter selection."""
    return {"tiny": tiny, "small": small, "medium": medium}[scale]


def rng_for(name: str, scale: str) -> np.random.Generator:
    """Deterministic per-workload RNG (stable across processes, unlike
    the salted built-in ``hash``)."""
    import zlib

    seed = zlib.crc32(f"{name}:{scale}".encode())
    return np.random.default_rng(seed)
