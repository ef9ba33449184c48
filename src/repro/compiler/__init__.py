"""The Flame compiler: register allocation, idempotent region formation,
anti-dependent register renaming, live-out checkpointing, SwapCodes
duplication, and tail-DMR — composed into the paper's evaluated schemes.
"""

from .antidep import (MemLoc, RegionState, ScanResult, scan_kernel,
                      structural_boundaries)
from .checkpointing import CheckpointResult, insert_checkpoints
from .dataflow import (Liveness, ParamOrigin, Provenance, ReachingDefs)
from .duplication import DuplicationResult, duplicate_instructions
from .editing import insert_instructions, remove_instructions
from .pipeline import (CompiledKernel, Detection, Recovery, SCHEMES, Scheme,
                       clear_compile_memo, compile_kernel, prepare_launch,
                       scheme_by_name)
from .regalloc import AllocationResult, allocate_registers
from .regions import (RegionFormation, RegWarPolicy,
                      eligible_extension_barriers, form_regions,
                      region_size_profile)
from .renaming import try_rename
from .taildmr import apply_tail_dmr, tail_indices

__all__ = [
    "AllocationResult", "CheckpointResult", "CompiledKernel", "Detection",
    "DuplicationResult", "Liveness", "MemLoc", "ParamOrigin", "Provenance",
    "ReachingDefs", "Recovery", "RegWarPolicy", "RegionFormation",
    "RegionState", "SCHEMES", "ScanResult", "Scheme", "allocate_registers",
    "apply_tail_dmr", "clear_compile_memo", "compile_kernel",
    "duplicate_instructions", "eligible_extension_barriers", "form_regions",
    "insert_checkpoints", "insert_instructions", "prepare_launch",
    "region_size_profile", "remove_instructions", "scan_kernel",
    "scheme_by_name", "structural_boundaries", "tail_indices", "try_rename",
]
