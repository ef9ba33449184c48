"""Cycle-level GPU simulator (the GPGPU-Sim substitute).

Public surface:

* :class:`Gpu`, :func:`run_kernel`, :class:`LaunchConfig`, :class:`RunResult`
* :class:`Sm`, :class:`ThreadBlock`, :class:`ResilienceRuntime`
* :class:`Warp`, :class:`WarpState`, :class:`WarpSnapshot`
* :data:`SCHEDULERS` (GTO / OLD / LRR / 2LV), :func:`make_scheduler`
* :class:`SimStats`, :class:`Cache`
* :class:`ExecPlan`, :func:`get_plan` — decode-once dispatch plans
"""

from .caches import Cache
from .functional import LaneContext, MemAccess
from .gpu import (Gpu, LaunchConfig, MAX_CYCLES, RunResult, occupancy_blocks,
                  run_kernel)
from .plan import ExecPlan, PlannedInst, get_plan
from .schedulers import (GtoScheduler, LrrScheduler, OldestScheduler,
                         SCHEDULERS, TwoLevelScheduler, WarpScheduler,
                         make_scheduler)
from .sanitizer import Sanitizer
from .sm import (CONTROL_TID, NEVER, NULL_RESILIENCE, ResilienceRuntime, Sm,
                 ThreadBlock)
from .snapshot import (CheckpointRecorder, ConvergenceMonitor, GpuCheckpoint,
                       MemoryLiveness, SNAPSHOT_VERSION, capture_gpu,
                       machine_probe, plain_equal, restore_gpu)
from .stats import SimStats
from .warp import StackEntry, Warp, WarpSnapshot, WarpState

__all__ = [
    "CONTROL_TID",
    "Cache", "CheckpointRecorder", "ConvergenceMonitor", "ExecPlan", "Gpu",
    "GpuCheckpoint", "GtoScheduler", "LaneContext", "LaunchConfig",
    "LrrScheduler", "MAX_CYCLES", "MemAccess", "MemoryLiveness", "NEVER",
    "NULL_RESILIENCE",
    "OldestScheduler", "PlannedInst", "ResilienceRuntime", "RunResult",
    "SCHEDULERS", "SNAPSHOT_VERSION",
    "Sanitizer", "SimStats", "Sm", "StackEntry", "ThreadBlock",
    "TwoLevelScheduler", "capture_gpu", "get_plan", "machine_probe",
    "Warp", "WarpScheduler", "WarpSnapshot", "WarpState",
    "make_scheduler", "occupancy_blocks", "plain_equal",
    "restore_gpu", "run_kernel",
]
