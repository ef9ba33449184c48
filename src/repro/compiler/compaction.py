"""Idempotence-aware compaction of rename registers.

The renaming pass conservatively allocates one fresh register per
renamed definition, so a chained accumulator in an unrolled loop (``acc
= mad(..., acc)`` sixteen times) would cost sixteen fresh registers.  A
real idempotence-preserving allocator reuses one: consecutive chain
links may share a register because each write is covered by the
previous one (WARAW) within the region.

This pass merges fresh registers greedily: a merge is accepted iff the
two registers never simultaneously live (value correctness) *and* a
re-scan of the merged kernel reports no anti-dependence violations
(idempotence correctness).  Scan-validated merging is obviously sound,
unlike purely structural rules.  It stays cheap because a candidate
rewrites only the instructions that mention the merged register, and
the re-scan shares region formation's segment table: only the segments
holding those instructions are scanned again, with the formation's
provenance setting.
"""

from __future__ import annotations

import networkx as nx

from ..isa import Cfg, Instruction, Kernel, Reg
from .antidep import SegmentTable
from .dataflow import Liveness, VarIndex


def _swap(inst: Instruction, mapping: dict[Reg, Reg]) -> Instruction:
    def swap(operand):
        return mapping.get(operand, operand) if isinstance(operand, Reg) \
            else operand

    changes = {}
    if isinstance(inst.dst, Reg) and inst.dst in mapping:
        changes["dst"] = mapping[inst.dst]
    if any(isinstance(s, Reg) and s in mapping for s in inst.srcs):
        changes["srcs"] = tuple(swap(s) for s in inst.srcs)
    return inst.with_(**changes) if changes else inst


def _with_instructions(kernel: Kernel, instructions: list) -> Kernel:
    return Kernel(
        name=kernel.name,
        instructions=instructions,
        labels=dict(kernel.labels),
        num_params=kernel.num_params,
        shared_words=kernel.shared_words,
    )


def compact_fresh_registers(kernel: Kernel, first_fresh: int,
                            table: SegmentTable | None = None) -> Kernel:
    """Merge registers with indices >= ``first_fresh`` where sound.

    Returns a kernel whose fresh registers are renumbered compactly
    (``first_fresh``, ``first_fresh + 1``, ...) after merging.  Merges
    are validated with ``table``, the segment table of the formation
    that produced ``kernel`` (a fresh one, with provenance, when None).
    """
    names = VarIndex(kernel)
    fresh = sorted(reg.index for reg in names.registers()
                   if reg.index >= first_fresh)
    if len(fresh) <= 1:
        return kernel

    cfg = Cfg(kernel)
    liveness = Liveness(cfg)
    interference = nx.Graph()
    interference.add_nodes_from(Reg(i) for i in fresh)
    for block in cfg.blocks:
        live = {v for v in liveness.live_out[block.index]
                if isinstance(v, Reg) and v.index >= first_fresh}
        for i in range(block.end - 1, block.start - 1, -1):
            inst = kernel.instructions[i]
            dst = inst.dst if isinstance(inst.dst, Reg) else None
            if dst is not None and dst.index >= first_fresh:
                for other in live:
                    if other != dst:
                        interference.add_edge(dst, other)
                if inst.guard is None:
                    live.discard(dst)
                else:
                    live.add(dst)
            for reg in inst.read_regs():
                if reg.index >= first_fresh:
                    live.add(reg)

    # Greedy merge, validated by re-scanning for WAR violations.
    table = table or SegmentTable(kernel, cfg)
    if not table.scan(kernel, cfg).clean:
        return kernel  # only compact fully converged kernels
    table.retain()
    work = kernel
    groups: dict[Reg, set[Reg]] = {}
    for index in fresh:
        reg = Reg(index)
        merged = False
        for rep, members in groups.items():
            if any(interference.has_edge(reg, m) for m in members):
                continue
            instructions = list(work.instructions)
            edits = []
            for i in names.positions(reg):
                old = instructions[i]
                instructions[i] = _swap(old, {reg: rep})
                table.carry(old, instructions[i])
                edits.append((i, old, instructions[i]))
            candidate = _with_instructions(work, instructions)
            if table.scan(candidate, cfg).clean:
                table.retain()
                for i, old, new in edits:
                    names.replace(i, old, new)
                work = candidate
                members.add(reg)
                merged = True
                break
            table.forget()
        if not merged:
            groups[reg] = {reg}

    # Renumber the surviving representatives compactly.
    reps = sorted({rep.index for rep in groups})
    renumber = {Reg(old): Reg(first_fresh + new)
                for new, old in enumerate(reps)}
    work = _with_instructions(work, [_swap(inst, renumber)
                                     for inst in work.instructions])
    work.validate()
    return work
