"""Compilation pipeline: compose the Flame passes into the evaluated schemes.

Section VI-B's nine configurations are combinations of:

* recovery preparation — idempotent regions with register *renaming*
  (Flame) or live-out register *checkpointing* (Penny);
* detection — acoustic *sensors* (RBQ/RPT runtime), SwapCodes
  *duplication*, or the *hybrid* tail-DMR;
* the Section III-E region-extension optimization (Flame only).

Every scheme, including the baseline, goes through the same PTX-level
register allocation so comparisons are apples-to-apples.

Register allocation and region formation are pure and by far the
costliest passes, and the schemes share them: the four renaming-family
schemes form the same regions, as do the four checkpointing ones, and
a scheduler sweep recompiles the same scheme.  :func:`compile_kernel`
therefore memoizes both in one bounded LRU keyed by the source
kernel's content; every caller still gets its own kernel object.
"""

from __future__ import annotations

import enum
import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..isa import Imm, Kernel
from .checkpointing import CheckpointResult, insert_checkpoints
from .duplication import DuplicationResult, duplicate_instructions
from .regalloc import AllocationResult, allocate_registers
from .regions import RegionFormation, RegWarPolicy, form_regions
from .taildmr import apply_tail_dmr


class Recovery(enum.Enum):
    NONE = "none"
    RENAMING = "renaming"
    CHECKPOINTING = "checkpointing"


class Detection(enum.Enum):
    NONE = "none"
    SENSOR = "sensor"          # RBQ/RPT verification runtime
    DUPLICATION = "duplication"  # full SwapCodes DMR
    HYBRID = "hybrid"          # tail-DMR: sensors + tail duplication


@dataclass(frozen=True)
class Scheme:
    """One evaluated resilience configuration."""

    name: str
    recovery: Recovery
    detection: Detection
    extend_regions: bool = False

    @property
    def forms_regions(self) -> bool:
        return self.recovery is not Recovery.NONE

    @property
    def uses_sensor_runtime(self) -> bool:
        return self.detection is Detection.SENSOR


#: The paper's evaluated schemes (Section VI-B1).  ``flame`` is
#: Sensor+Renaming with the region-extension optimization enabled;
#: ``sensor_renaming`` is the same scheme with the optimization off
#: (the Figure 16 comparison point).
SCHEMES: dict[str, Scheme] = {
    "baseline": Scheme("baseline", Recovery.NONE, Detection.NONE),
    "renaming": Scheme("renaming", Recovery.RENAMING, Detection.NONE),
    "checkpointing": Scheme("checkpointing", Recovery.CHECKPOINTING,
                            Detection.NONE),
    "flame": Scheme("flame", Recovery.RENAMING, Detection.SENSOR,
                    extend_regions=True),
    "sensor_renaming": Scheme("sensor_renaming", Recovery.RENAMING,
                              Detection.SENSOR),
    "sensor_checkpointing": Scheme("sensor_checkpointing",
                                   Recovery.CHECKPOINTING, Detection.SENSOR),
    "duplication_renaming": Scheme("duplication_renaming", Recovery.RENAMING,
                                   Detection.DUPLICATION),
    "duplication_checkpointing": Scheme("duplication_checkpointing",
                                        Recovery.CHECKPOINTING,
                                        Detection.DUPLICATION),
    "hybrid_renaming": Scheme("hybrid_renaming", Recovery.RENAMING,
                              Detection.HYBRID),
    "hybrid_checkpointing": Scheme("hybrid_checkpointing",
                                   Recovery.CHECKPOINTING, Detection.HYBRID),
}


def scheme_by_name(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None


@dataclass
class CompiledKernel:
    """A kernel compiled under one scheme, plus pass metadata."""

    kernel: Kernel
    scheme: Scheme
    regs_per_thread: int
    allocation: AllocationResult
    regions: RegionFormation | None = None
    checkpoints: CheckpointResult | None = None
    duplication: DuplicationResult | None = None
    wcdl: int = 0

    @property
    def needs_ckpt_param(self) -> bool:
        return self.checkpoints is not None

    @property
    def static_region_count(self) -> int:
        return self.regions.static_regions if self.regions else 1


#: Most pass results the compile memo keeps: an allocation plus the
#: three distinct region formations (renaming with and without region
#: extension, checkpointing) of 32 kernels.
COMPILE_MEMO_SIZE = 128

#: LRU of pickled pass results: ``("alloc", digest)`` ->
#: ``AllocationResult`` and ``("regions", digest, policy, extend,
#: provenance, compact)`` -> ``RegionFormation``.  A pickle is a sixth
#: of the live objects' size, and every hit unpickles objects of its
#: own, so no caller shares a kernel, list, dict or instruction with
#: the memo or with another caller.
_COMPILE_MEMO: "OrderedDict[tuple, bytes]" = OrderedDict()


def clear_compile_memo() -> None:
    """Forget every memoized pass result (benchmarks time cold compiles)."""
    _COMPILE_MEMO.clear()


def _content_digest(kernel: Kernel) -> bytes:
    """16-byte digest of a kernel's full content: every instruction field
    (``comment`` too, which instruction equality ignores but ``to_asm``
    prints), the labels in order, the parameter count and the shared
    words.  An immediate's ``repr`` hides the value's type, so the type
    goes in beside it."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((kernel.name, kernel.num_params, kernel.shared_words,
                        list(kernel.labels.items()))).encode())
    for inst in kernel.instructions:
        imm_types = [type(src.value).__name__ for src in inst.srcs
                     if isinstance(src, Imm)]
        digest.update(f"\n{inst!r}{imm_types}".encode())
    return digest.digest()


def _memoized(key: tuple, compute):
    """``compute()``'s result for ``key``, from the memo when present."""
    blob = _COMPILE_MEMO.get(key)
    if blob is not None:
        _COMPILE_MEMO.move_to_end(key)
        return pickle.loads(blob)
    result = compute()
    _COMPILE_MEMO[key] = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    while len(_COMPILE_MEMO) > COMPILE_MEMO_SIZE:
        _COMPILE_MEMO.popitem(last=False)
    return result


def compile_kernel(kernel: Kernel, scheme: Scheme | str, wcdl: int = 20,
                   use_provenance: bool = True,
                   compact: bool = True) -> CompiledKernel:
    """Run the full pass pipeline for one scheme.

    ``use_provenance``/``compact`` toggle the alias-analysis and
    rename-compaction design choices for ablation studies.
    Allocation and region formation come from the compile memo when
    the same kernel content was compiled before.
    """
    if isinstance(scheme, str):
        scheme = scheme_by_name(scheme)
    digest = _content_digest(kernel)
    allocation = _memoized(("alloc", digest),
                           lambda: allocate_registers(kernel))
    work = allocation.kernel
    regions = None
    checkpoints = None
    duplication = None

    if scheme.forms_regions:
        policy = (RegWarPolicy.RENAME if scheme.recovery is Recovery.RENAMING
                  else RegWarPolicy.KEEP)
        regions = _memoized(
            ("regions", digest, policy, scheme.extend_regions,
             use_provenance, compact),
            lambda: form_regions(work, policy,
                                 extend_regions=scheme.extend_regions,
                                 use_provenance=use_provenance,
                                 compact=compact))
        work = regions.kernel
        if scheme.recovery is Recovery.CHECKPOINTING:
            war_regs = {var for _, var in regions.residual_reg_wars}
            checkpoints = insert_checkpoints(work, war_regs, prune=True)
            work = checkpoints.kernel

    # Occupancy counts architectural registers only: SwapCodes replicas
    # retire into the register file's ECC bits (that is the scheme's whole
    # point), so shadow registers exist functionally but cost no RF space.
    architectural_regs = max(work.num_regs, 1)

    if scheme.detection is Detection.DUPLICATION:
        duplication = duplicate_instructions(work)
        work = duplication.kernel
    elif scheme.detection is Detection.HYBRID:
        duplication = apply_tail_dmr(work, wcdl)
        work = duplication.kernel

    return CompiledKernel(
        kernel=work,
        scheme=scheme,
        regs_per_thread=architectural_regs,
        allocation=allocation,
        regions=regions,
        checkpoints=checkpoints,
        duplication=duplication,
        wcdl=wcdl,
    )


def prepare_launch(compiled: CompiledKernel, params: tuple[float, ...],
                   global_mem: np.ndarray, num_blocks: int,
                   threads_per_block: int,
                   warp_size: int = 32) -> tuple[tuple[float, ...], np.ndarray]:
    """Extend the launch with checkpoint storage when the scheme needs it.

    Returns (params, global_mem) ready for :func:`repro.sim.run_kernel`:
    the checkpoint area is appended to global memory and its base address
    passed as the extra parameter the checkpointing pass declared.
    """
    if not compiled.needs_ckpt_param:
        return params, global_mem
    warps_per_block = -(-threads_per_block // warp_size)
    total_warps = num_blocks * warps_per_block
    words = compiled.checkpoints.storage_words(total_warps, warp_size)
    base = float(global_mem.size)
    extended = np.concatenate([global_mem, np.zeros(max(words, 1))])
    return params + (base,), extended
