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
unlike purely structural rules, but it is not cheap: every candidate
merge re-scans the whole kernel.  Forming SN's Flame regions (tiny)
re-scans 139 times, about 0.9 s of its 3.2 s, and LUD's 300 times,
about 3.8 s of 8.5 s (one core of a 2-CPU Xeon container).
"""

from __future__ import annotations

import networkx as nx

from ..isa import Cfg, Instruction, Kernel, Reg
from .antidep import scan_kernel
from .dataflow import Liveness


def _rewrite(kernel: Kernel, mapping: dict[Reg, Reg]) -> Kernel:
    def swap(operand):
        return mapping.get(operand, operand) if isinstance(operand, Reg) \
            else operand

    new_instructions = []
    for inst in kernel.instructions:
        changes = {}
        if isinstance(inst.dst, Reg) and inst.dst in mapping:
            changes["dst"] = mapping[inst.dst]
        if any(isinstance(s, Reg) and s in mapping for s in inst.srcs):
            changes["srcs"] = tuple(swap(s) for s in inst.srcs)
        new_instructions.append(inst.with_(**changes) if changes else inst)
    return Kernel(
        name=kernel.name,
        instructions=new_instructions,
        labels=dict(kernel.labels),
        num_params=kernel.num_params,
        shared_words=kernel.shared_words,
    )


def compact_fresh_registers(kernel: Kernel, first_fresh: int) -> Kernel:
    """Merge registers with indices >= ``first_fresh`` where sound.

    Returns a kernel whose fresh registers are renumbered compactly
    (``first_fresh``, ``first_fresh + 1``, ...) after merging.
    """
    fresh = sorted({r.index for inst in kernel.instructions
                    for r in list(inst.read_regs())
                    + ([inst.dst] if isinstance(inst.dst, Reg) else [])
                    if r.index >= first_fresh})
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
    baseline = scan_kernel(kernel)
    if not baseline.clean:
        return kernel  # only compact fully converged kernels
    work = kernel
    groups: dict[Reg, set[Reg]] = {}
    for index in fresh:
        reg = Reg(index)
        merged = False
        for rep, members in groups.items():
            if any(interference.has_edge(reg, m) for m in members):
                continue
            candidate = _rewrite(work, {reg: rep})
            if scan_kernel(candidate).clean:
                work = candidate
                members.add(reg)
                merged = True
                break
        if not merged:
            groups[reg] = {reg}

    # Renumber the surviving representatives compactly.
    reps = sorted({rep.index for rep in groups})
    renumber = {Reg(old): Reg(first_fresh + new)
                for new, old in enumerate(reps)}
    work = _rewrite(work, renumber)
    work.validate()
    return work
