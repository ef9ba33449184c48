"""Anti-dependent register renaming (Figure 3a).

For a register WAR — a write to ``r`` preceded in its region by a read
of ``r`` with no covering earlier write — the pass renames the writing
definition to a fresh register and rewrites every use reached by that
definition.  Renaming is only sound when those uses are reached by no
other definition (no merge) and the definition is unguarded (a
predicated write is a partial definition whose old lanes must survive);
otherwise the caller falls back to cutting the region, which is always
sound.
"""

from __future__ import annotations

from ..isa import Cfg, Instruction, Kernel
from .dataflow import ReachingDefs, Var, VarIndex


def rename_edits(cfg: Cfg, def_index: int, var: Var, positions,
                 fresh: Var) -> dict[int, Instruction] | None:
    """The instructions that rename the definition of ``var`` at
    ``def_index`` to ``fresh``, by index, or None when renaming is
    unsound.  ``positions`` are the ascending indices of the
    instructions of ``cfg.kernel`` that mention ``var``."""
    instructions = cfg.kernel.instructions
    inst = instructions[def_index]
    if inst.dst != var:
        return None
    if inst.guard is not None:
        return None  # partial definition: old lanes still need `var`
    rdefs = ReachingDefs.at(cfg, var, positions)
    uses = [(u, v) for (u, v) in rdefs.uses_of_def(def_index) if v == var]
    for use_index, _ in uses:
        if rdefs.defs_reaching_use(use_index, var) != {def_index}:
            return None  # merge with another definition: not renameable

    edits = {def_index: inst.with_(dst=fresh)}
    for use_index, _ in uses:
        use_inst = edits.get(use_index, instructions[use_index])
        changes = {}
        if use_inst.srcs:
            changes["srcs"] = tuple(
                fresh if s == var else s for s in use_inst.srcs)
        if use_inst.guard == var:
            changes["guard"] = fresh
        # A guarded redefinition of `var` also *uses* var as its partial
        # destination; rewriting its dst keeps the renamed chain intact.
        if use_inst.dst == var and use_inst.guard is not None:
            changes["dst"] = fresh
        if changes:
            edits[use_index] = use_inst.with_(**changes)
    return edits


def try_rename(kernel: Kernel, cfg: Cfg, def_index: int, var) -> Kernel | None:
    """Attempt to rename the definition of ``var`` at ``def_index``.

    Returns the rewritten kernel, or None when renaming is unsound and
    the caller must cut the region instead.
    """
    names = VarIndex(kernel)
    edits = rename_edits(cfg, def_index, var, names.positions(var),
                         names.fresh(var))
    if edits is None:
        return None
    new_instructions = list(kernel.instructions)
    for index, inst in edits.items():
        new_instructions[index] = inst
    return Kernel(
        name=kernel.name,
        instructions=new_instructions,
        labels=dict(kernel.labels),
        num_params=kernel.num_params,
        shared_words=kernel.shared_words,
    )
