"""Live-out register checkpointing (Figure 3b, Penny-style).

Instead of renaming anti-dependent registers, each region saves the
registers it defines that are live across its ending boundary; on an
error, the faulty region's overwritten inputs are restored from the
checkpoint storage before re-execution.  Checkpoints are stores into a
reserved global-memory area, laid out so a warp's 32 lanes write
consecutive words (fully coalesced): for warp ``w``, slot ``k``, lane
``l`` the address is ``ckpt_base + (w * num_slots + k) * 32 + l``.

A kernel-entry prologue computes each thread's checkpoint base from its
block/warp coordinates; the checkpoint area base pointer arrives as an
extra kernel parameter appended by this pass.

With ``prune=True`` (Penny's optimal checkpoint pruning) only registers
that actually participate in a register anti-dependence anywhere in the
kernel are saved — the others can never lose their region-input value.

Note: real Penny double-buffers each slot by region parity so recovery
reads the previous generation; we model single-buffered slots, which has
identical instruction count and memory traffic (the fault-free cost the
evaluation measures).  Recovery-time restoration is therefore only
simulated for the renaming-based schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import (Cfg, Imm, Instruction, Kernel, Op, Reg, Space, Special)
from .dataflow import Liveness
from .editing import insert_instructions


@dataclass
class CheckpointResult:
    """Outcome of the checkpointing pass."""

    kernel: Kernel
    num_slots: int = 0
    checkpoint_stores: int = 0
    ckpt_param_index: int = -1
    slot_of: dict[Reg, int] = field(default_factory=dict)

    def storage_words(self, total_warps: int, warp_size: int = 32) -> int:
        """Global-memory words the launch must reserve."""
        return total_warps * self.num_slots * warp_size


def _region_defs_before(kernel: Kernel, cfg: Cfg, rb_index: int) -> set[Reg]:
    """Registers defined on some path from the region start to this RB
    (a conservative superset via a bounded backward block walk)."""
    defs: set[Reg] = set()
    start_block = cfg.block_at(rb_index)
    visited: set[int] = set()
    stack = [(start_block.index, rb_index)]
    while stack:
        block_index, stop = stack.pop()
        block = cfg.blocks[block_index]
        hit_boundary = False
        for i in range(stop - 1, block.start - 1, -1):
            inst = kernel.instructions[i]
            if inst.op is Op.RB:
                hit_boundary = True
                break
            dst = inst.written_reg()
            if dst is not None:
                defs.add(dst)
        if hit_boundary:
            continue
        for pred in block.preds:
            if pred not in visited:
                visited.add(pred)
                stack.append((pred, cfg.blocks[pred].end))
    return defs


def insert_checkpoints(kernel: Kernel, war_regs: set | None = None,
                       prune: bool = True) -> CheckpointResult:
    """Insert checkpoint stores before every region boundary.

    ``war_regs`` is the set of registers known to be anti-dependent
    somewhere (from the region-formation scan); pruning restricts the
    saved set to those.
    """
    cfg = Cfg(kernel)
    liveness = Liveness(cfg)
    rb_indices = [i for i, inst in enumerate(kernel.instructions)
                  if inst.op is Op.RB]
    live_at = liveness.live_before_each(rb_indices)
    plan: dict[int, list[Reg]] = {}
    all_regs: set[Reg] = set()
    for rb in rb_indices:
        live = {v for v in live_at[rb] if isinstance(v, Reg)}
        defs = _region_defs_before(kernel, cfg, rb)
        save = live & defs
        if prune and war_regs is not None:
            save &= {v for v in war_regs if isinstance(v, Reg)}
        if save:
            plan[rb] = sorted(save)
            all_regs |= save

    result = CheckpointResult(kernel=kernel.clone())
    result.ckpt_param_index = kernel.num_params
    slot_of = {reg: slot for slot, reg in enumerate(sorted(all_regs))}
    result.slot_of = slot_of
    result.num_slots = len(slot_of)

    regs = kernel.num_regs
    base = Reg(regs)                  # per-thread checkpoint base address
    t = Reg(regs + 1)                 # prologue scratch
    u = Reg(regs + 2)                 # prologue scratch
    warp_size = 32

    def alu(op: Op, dst: Reg, *srcs) -> Instruction:
        operands = tuple(s if isinstance(s, (Reg, Special)) else Imm(float(s))
                         for s in srcs)
        return Instruction(op=op, dst=dst, srcs=operands, comment="ckpt-pro")

    prologue = [
        alu(Op.MUL, t, Special.CTAID_Y, Special.NCTAID_X),
        alu(Op.ADD, t, t, Special.CTAID_X),          # linear block id
        alu(Op.MUL, u, Special.NTID_X, Special.NTID_Y),
        alu(Op.ADD, u, u, warp_size - 1),
        alu(Op.SHR, u, u, 5),                        # warps per block
        alu(Op.MUL, t, t, u),
        alu(Op.ADD, t, t, Special.WARPID),           # global warp index
        alu(Op.MUL, t, t, max(result.num_slots, 1) * warp_size),
        alu(Op.ADD, t, t, Special.LANEID),
        Instruction(op=Op.LD, dst=u,
                    srcs=(Imm(float(result.ckpt_param_index)),),
                    space=Space.PARAM),
        alu(Op.ADD, base, t, u),
    ]

    insertions: dict[int, list[Instruction]] = {}
    for rb, regs in plan.items():
        stores = [
            Instruction(op=Op.ST, srcs=(base, reg), space=Space.GLOBAL,
                        offset=slot_of[reg] * warp_size, ckpt=True)
            for reg in regs
        ]
        insertions[rb] = stores
        result.checkpoint_stores += len(stores)

    new_kernel = insert_instructions(kernel, insertions)
    if plan:
        # The prologue runs exactly once: labels at index 0 (a loop header
        # starting the kernel) must keep pointing past it.
        new_kernel = insert_instructions(new_kernel, {0: prologue},
                                         capture_labels=False)
    new_kernel = Kernel(
        name=new_kernel.name,
        instructions=new_kernel.instructions,
        labels=new_kernel.labels,
        num_params=kernel.num_params + 1,
        shared_words=kernel.shared_words,
    )
    new_kernel.validate()
    result.kernel = new_kernel
    return result
