"""Idempotent region formation (Sections II-C, III-A, III-E).

The driver inserts RB (region boundary) markers so that no region
contains a memory anti-dependence, then — depending on the chosen
register-WAR policy — renames anti-dependent registers or leaves them
for the checkpointing pass to circumvent.

Boundary sources:

* structural: control-flow merge points and loop headers;
* synchronization: barriers and atomics get their own single-instruction
  regions (synchronization-level error containment), except barriers
  proven eligible for the region-extension optimization (Figure 10);
* memory WAR cuts from the anti-dependence scan;
* register WAR cuts where renaming is unsound (definition merges).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import CompileError
from ..isa import Cfg, Instruction, Kernel, Op, Pred, Reg, Space
from .antidep import SegmentTable, structural_boundaries
from .compaction import compact_fresh_registers
from .dataflow import VarIndex
from .editing import insert_instructions, remove_instructions
from .renaming import rename_edits

_RB = Instruction(op=Op.RB)

#: Fixed-point iteration cap (each round renames or cuts at least once).
MAX_ROUNDS = 400


class RegWarPolicy(enum.Enum):
    """How register anti-dependences are handled."""

    RENAME = "rename"            # Flame: anti-dependent register renaming
    KEEP = "keep"                # checkpointing circumvents them later


@dataclass
class RegionFormation:
    """Result of region formation."""

    kernel: Kernel
    boundaries: int = 0
    war_cuts: int = 0
    renames: int = 0
    rename_fallback_cuts: int = 0
    extended_barriers: int = 0
    residual_reg_wars: list = field(default_factory=list)

    @property
    def static_regions(self) -> int:
        return self.boundaries + 1


def eligible_extension_barriers(kernel: Kernel) -> set[int]:
    """Barriers whose boundary can be removed by the Section III-E
    region-extension optimization.

    The paper's conservative pattern, operationalized flow-insensitively:
    a barrier is eligible iff (1) a shared-memory store (the
    initialization) precedes it with no global store/atomic in between,
    and (2) no global store/atomic occurs between it and the next barrier
    (or exit).  Within such a section every write goes to block-shared
    state, so errors cannot escape the block and all-warp rollback in
    the SM recovers them (Section III-E3).
    """
    instructions = kernel.instructions
    bars = [i for i, inst in enumerate(instructions) if inst.op is Op.BAR]
    if not bars:
        return set()
    hard = [i for i, inst in enumerate(instructions)
            if (inst.info.is_store and inst.space is Space.GLOBAL)
            or inst.info.is_atomic]
    shared_stores = [i for i, inst in enumerate(instructions)
                     if inst.info.is_store and inst.space is Space.SHARED]
    eligible = set()
    for pos, bar in enumerate(bars):
        prev_hard = max((h for h in hard if h < bar), default=-1)
        has_init = any(prev_hard < s < bar for s in shared_stores)
        next_bar = bars[pos + 1] if pos + 1 < len(bars) else len(instructions)
        clean_after = not any(bar < h < next_bar for h in hard)
        if has_init and clean_after:
            eligible.add(bar)
    return eligible


def _sync_boundaries(kernel: Kernel, extend: bool) -> tuple[set[int], int]:
    """Synchronization-level containment: a region boundary right
    *before* every barrier and atomic.

    Under WCDL-aware scheduling this boundary doubles as a verification
    gate: a warp only arrives at the barrier after its pre-barrier
    region has verified, so once the barrier releases, no warp can ever
    roll back past it — which is what makes cross-warp flow *and*
    anti-dependences through the barrier safe (Section IV, Error
    Containment).
    """
    points: set[int] = set()
    skipped = eligible_extension_barriers(kernel) if extend else set()
    for i, inst in enumerate(kernel.instructions):
        if inst.op is Op.BAR and i not in skipped:
            points.add(i)
        elif inst.info.is_atomic:
            points.add(i)
    points.discard(0)
    return points, len(skipped)


def form_regions(kernel: Kernel, policy: RegWarPolicy = RegWarPolicy.RENAME,
                 extend_regions: bool = False, use_provenance: bool = True,
                 compact: bool = True) -> RegionFormation:
    """Partition ``kernel`` into idempotent regions.

    Returns a kernel with RB markers inserted (and registers renamed
    under the RENAME policy) such that no region contains a memory WAR,
    and — under RENAME — no register WAR either.

    ``use_provenance`` and ``compact`` are ablation knobs: disabling
    provenance makes the alias analysis blind to pointer origins (more
    cuts), and disabling compaction keeps one fresh register per rename
    (more register pressure -> lower occupancy).
    """
    work = kernel.clone()
    result = RegionFormation(kernel=work)
    regs_before = kernel.num_regs

    # Seed boundaries: structural + synchronization.
    cfg = Cfg(work)
    seed = structural_boundaries(cfg)
    sync, extended = _sync_boundaries(work, extend_regions)
    result.extended_barriers = extended
    seed |= sync
    work = insert_instructions(work, {i: [_RB] for i in sorted(seed)})

    # Each round scans only the segments the last edit touched.  A
    # rename rewrites instructions in place (the blocks stay as they
    # are); an insertion shifts indices, so the CFG and the occurrence
    # index are rebuilt after one.
    cfg = Cfg(work)
    table = SegmentTable(work, cfg, use_provenance=use_provenance)
    names: VarIndex | None = None
    for _ in range(MAX_ROUNDS):
        scan = table.scan(work, cfg)
        table.retain()
        if scan.mem_cuts:
            cuts = {i: [_RB] for i in sorted(set(scan.mem_cuts))}
            work = insert_instructions(work, cuts)
            cfg, names = Cfg(work), None
            result.war_cuts += len(cuts)
            continue
        if scan.reg_wars and policy is RegWarPolicy.RENAME:
            index, var = scan.reg_wars[0]
            names = names or VarIndex(work)
            edits = rename_edits(cfg, index, var, names.positions(var),
                                 names.fresh(var))
            if edits is not None:
                for i, inst in edits.items():
                    names.replace(i, work.instructions[i], inst)
                    table.carry(work.instructions[i], inst)
                    work.instructions[i] = inst
                result.renames += 1
                continue
            if _reads_own_dst(work.instructions[index]):
                # Self-update (e.g. ``add i, i, 1``): no cut placement can
                # separate the read from the write, so split into a fresh
                # temporary plus a boundary-started copy-back — the WAR
                # then spans the boundary, which is harmless.
                work = _split_self_war(work, index, names.fresh(var), table)
            else:
                work = insert_instructions(work, {index: [_RB]})
            cfg, names = Cfg(work), None
            result.rename_fallback_cuts += 1
            continue
        result.residual_reg_wars = list(scan.reg_wars)
        break
    else:
        raise CompileError(
            f"region formation did not converge for kernel {kernel.name!r}"
        )

    # Collapse adjacent markers: dropping the *first* of each RB pair
    # keeps every control-flow path (including branches targeting the
    # second marker's label) crossing a boundary.
    redundant = {
        i for i in range(len(work.instructions) - 1)
        if work.instructions[i].op is Op.RB
        and work.instructions[i + 1].op is Op.RB
    }
    if redundant:
        work = remove_instructions(work, redundant)

    if compact and policy is RegWarPolicy.RENAME \
            and work.num_regs > regs_before:
        # Idempotence-aware reuse of the rename registers, so an unrolled
        # accumulator chain costs one fresh register instead of N.
        work = compact_fresh_registers(work, regs_before, table)

    work.validate()
    result.kernel = work
    result.boundaries = sum(
        1 for inst in work.instructions if inst.op is Op.RB)
    return result


def _reads_own_dst(inst: Instruction) -> bool:
    return inst.dst is not None and (
        inst.dst in inst.read_regs() or inst.dst in inst.read_preds())


def _split_self_war(kernel: Kernel, index: int, temp: Reg | Pred,
                    table: SegmentTable) -> Kernel:
    """Rewrite ``op d, ...d...`` into ``op t, ...d...; RB; mov d, t``."""
    inst = kernel.instructions[index]
    if isinstance(temp, Reg):
        copy_back = Instruction(op=Op.MOV, dst=inst.dst, srcs=(temp,),
                                guard=inst.guard,
                                guard_sense=inst.guard_sense)
    else:
        copy_back = Instruction(op=Op.POR, dst=inst.dst, srcs=(temp, temp),
                                guard=inst.guard,
                                guard_sense=inst.guard_sense)
    new_instructions = list(kernel.instructions)
    new_instructions[index] = inst.with_(dst=temp)
    table.carry(inst, new_instructions[index])
    split = Kernel(
        name=kernel.name,
        instructions=new_instructions,
        labels=dict(kernel.labels),
        num_params=kernel.num_params,
        shared_words=kernel.shared_words,
    )
    # Branch targets at index+1 never executed the op, so they must skip
    # the copy-back (their `dst` still holds the right value).
    return insert_instructions(split, {index + 1: [_RB, copy_back]},
                               capture_labels=False)


def region_size_profile(kernel: Kernel) -> list[int]:
    """Static straight-line distances between consecutive boundaries —
    a cheap proxy for the dynamic region-size statistic of Section IV."""
    sizes = []
    count = 0
    for inst in kernel.instructions:
        if inst.op is Op.RB:
            sizes.append(count)
            count = 0
        else:
            count += 1
    sizes.append(count)
    return [s for s in sizes if s > 0]
