"""Dataflow analyses used by the Flame compiler passes.

* :class:`Liveness` — backward live-variable analysis over registers and
  predicates (for checkpointing and register allocation).
* :class:`ReachingDefs` — forward reaching-definition analysis with
  def-use chains (for anti-dependent register renaming).
* :class:`VarIndex` — which instructions mention each register, so
  that a one-variable question visits only those.
* :class:`Provenance` — forward pointer-provenance analysis mapping each
  register to the kernel parameter its value (if an address) derives
  from.  Distinct pointer parameters are assumed to reference disjoint
  allocations (the standard CUDA ``__restrict__``-style contract all our
  workloads satisfy), which lets the anti-dependence analysis prove
  cross-array accesses disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Cfg, Imm, Instruction, Kernel, Op, Pred, Reg, Space

#: Lattice sentinels for provenance: TOP = not yet known, BOTTOM = unknown.
TOP = object()
BOTTOM = None

Var = Reg | Pred


def _defs_uses(inst: Instruction) -> tuple[Var | None, list[Var]]:
    """Definition and uses of one instruction.

    A guarded (predicated) write is a *partial* definition: lanes where
    the guard is false keep the old value, so the destination counts as a
    use as well and the def never kills.
    """
    uses: list[Var] = list(inst.read_regs()) + list(inst.read_preds())
    if inst.guard is not None and inst.dst is not None:
        uses.append(inst.dst)
    return inst.dst, uses


def _kills(inst: Instruction) -> bool:
    """True if the instruction's definition fully overwrites its dst."""
    return inst.guard is None


class Liveness:
    """Live variables (registers and predicates) per block and instruction."""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        self.live_in: list[set[Var]] = []
        self.live_out: list[set[Var]] = []
        self._compute()

    def _compute(self) -> None:
        cfg = self.cfg
        kernel = cfg.kernel
        num_blocks = len(cfg.blocks)
        use: list[set[Var]] = [set() for _ in range(num_blocks)]
        defs: list[set[Var]] = [set() for _ in range(num_blocks)]
        for block in cfg.blocks:
            for i in range(block.start, block.end):
                inst = kernel.instructions[i]
                dst, uses = _defs_uses(inst)
                for var in uses:
                    if var not in defs[block.index]:
                        use[block.index].add(var)
                if dst is not None and _kills(inst):
                    defs[block.index].add(dst)
        self.live_in = [set() for _ in range(num_blocks)]
        self.live_out = [set() for _ in range(num_blocks)]
        changed = True
        while changed:
            changed = False
            for block in reversed(cfg.blocks):
                b = block.index
                out: set[Var] = set()
                for succ in block.succs:
                    out |= self.live_in[succ]
                new_in = use[b] | (out - defs[b])
                if out != self.live_out[b] or new_in != self.live_in[b]:
                    self.live_out[b] = out
                    self.live_in[b] = new_in
                    changed = True

    def live_before(self, inst_index: int) -> set[Var]:
        """Variables live immediately before the given instruction."""
        return self.live_before_each([inst_index])[inst_index]

    def live_before_each(self, indices) -> dict[int, set[Var]]:
        """:meth:`live_before` of every index in ``indices``, with one
        backward walk per block that holds any of them."""
        wanted = set(indices)
        cfg = self.cfg
        kernel = cfg.kernel
        lowest: dict[int, int] = {}
        for i in wanted:
            b = cfg.block_of[i]
            lowest[b] = min(i, lowest.get(b, i))
        answers: dict[int, set[Var]] = {}
        for b, low in lowest.items():
            live = set(self.live_out[b])
            for i in range(cfg.blocks[b].end - 1, low - 1, -1):
                inst = kernel.instructions[i]
                dst, uses = _defs_uses(inst)
                if dst is not None and _kills(inst):
                    live.discard(dst)
                live.update(uses)
                if i in wanted:
                    answers[i] = set(live)
        return answers

    def live_after(self, inst_index: int) -> set[Var]:
        """Variables live immediately after the given instruction."""
        block = self.cfg.block_at(inst_index)
        live = set(self.live_out[block.index])
        kernel = self.cfg.kernel
        for i in range(block.end - 1, inst_index, -1):
            inst = kernel.instructions[i]
            dst, uses = _defs_uses(inst)
            if dst is not None and _kills(inst):
                live.discard(dst)
            live.update(uses)
        return live


def _mentions(inst: Instruction) -> set:
    """Every register and predicate ``inst`` reads or writes."""
    found = {src for src in inst.srcs if isinstance(src, (Reg, Pred))}
    if inst.dst is not None:
        found.add(inst.dst)
    if inst.guard is not None:
        found.add(inst.guard)
    return found


class VarIndex:
    """Which instructions mention each register and predicate, and a
    fresh register and predicate above every one the index has seen
    (``Kernel.num_regs`` and ``num_preds`` while none disappears, as
    under renaming).

    Renaming asks both every round; the index answers without a pass
    over the kernel.  It follows in-place replacements
    (:meth:`replace`); an insertion shifts indices, so build a new
    index after one.
    """

    def __init__(self, kernel: Kernel) -> None:
        self._at: dict[Var, set[int]] = {}
        self.num_regs = 0
        self.num_preds = 0
        for i, inst in enumerate(kernel.instructions):
            self._add(i, _mentions(inst))

    def _add(self, index: int, variables: set) -> None:
        for var in variables:
            self._at.setdefault(var, set()).add(index)
            if isinstance(var, Reg):
                self.num_regs = max(self.num_regs, var.index + 1)
            else:
                self.num_preds = max(self.num_preds, var.index + 1)

    def positions(self, var: Var) -> list[int]:
        """Ascending indices of the instructions that mention ``var``."""
        return sorted(self._at.get(var, ()))

    def registers(self) -> list[Reg]:
        """The general registers some instruction mentions."""
        return [var for var, at in self._at.items()
                if at and isinstance(var, Reg)]

    def fresh(self, like: Var) -> Var:
        """An unused register, or predicate when ``like`` is one."""
        return (Reg(self.num_regs) if isinstance(like, Reg)
                else Pred(self.num_preds))

    def replace(self, index: int, old: Instruction,
                new: Instruction) -> None:
        """``new`` took ``old``'s place at ``index``."""
        now = _mentions(new)
        for var in _mentions(old) - now:
            self._at[var].discard(index)
        self._add(index, now)


class ReachingDefs:
    """Reaching definitions with def->use and use->def chains.

    A "definition" is an instruction index that writes a variable.  The
    virtual entry definition of a variable (parameters / initial zero
    state) is represented as -1.

    :meth:`at` restricts the analysis to one variable: every query about
    that variable answers exactly as the whole-kernel analysis would
    (variables never interact in this problem), and every other
    variable is left out.
    """

    ENTRY = -1

    def __init__(self, cfg: Cfg) -> None:
        self._build(cfg, None, range(len(cfg.kernel.instructions)))

    @classmethod
    def at(cls, cfg: Cfg, var: Var, positions) -> "ReachingDefs":
        """The analysis of ``var`` alone, given the ascending indices of
        the instructions that mention it (:meth:`VarIndex.positions`):
        it never looks at any other instruction."""
        rdefs = cls.__new__(cls)
        rdefs._build(cfg, var, positions)
        return rdefs

    def _build(self, cfg: Cfg, only: Var | None, positions) -> None:
        self.cfg = cfg
        instructions = cfg.kernel.instructions
        self.defs_of: dict[Var, list[int]] = {}
        # Per block, the instructions that touch a tracked variable, as
        # (index, tracked uses, tracked def or None, def kills).
        self._events: list[list[tuple[int, list[Var], Var | None, bool]]] = [
            [] for _ in cfg.blocks]
        block_of = cfg.block_of
        for i in positions:
            inst = instructions[i]
            if only is None:
                dst, uses = _defs_uses(inst)
            else:
                dst = only if inst.dst == only else None
                reads = (only in inst.srcs or inst.guard == only
                         or (dst is not None and inst.guard is not None))
                uses = [only] if reads else []
            if dst is not None:
                self.defs_of.setdefault(dst, []).append(i)
            self._events[block_of[i]].append((i, uses, dst, _kills(inst)))
        self.in_sets: list[dict[Var, set[int]]] = []
        self.use_defs: dict[tuple[int, Var], set[int]] = {}
        self.def_uses: dict[int, set[tuple[int, Var]]] = {}
        self._compute()

    def _define(self, state: dict[Var, set[int]], i: int, dst: Var | None,
                kills: bool) -> None:
        if dst is not None:
            if kills:
                state[dst] = {i}
            else:
                state.setdefault(dst, {self.ENTRY}).add(i)

    def _compute(self) -> None:
        cfg = self.cfg
        num_blocks = len(cfg.blocks)
        all_vars = set(self.defs_of)
        entry_state = {var: {self.ENTRY} for var in all_vars}
        self.in_sets = [dict() for _ in range(num_blocks)]
        out_sets: list[dict[Var, set[int]]] = [dict() for _ in range(num_blocks)]

        def transfer(state: dict[Var, set[int]], b: int) -> dict[Var, set[int]]:
            state = {var: set(defs) for var, defs in state.items()}
            for i, _, dst, kills in self._events[b]:
                self._define(state, i, dst, kills)
            return state

        changed = True
        while changed:
            changed = False
            for block in cfg.blocks:
                b = block.index
                if b == 0:
                    merged = {var: set(defs) for var, defs in entry_state.items()}
                else:
                    merged = {}
                for pred in block.preds:
                    for var, defs in out_sets[pred].items():
                        merged.setdefault(var, set()).update(defs)
                if merged != self.in_sets[b]:
                    self.in_sets[b] = merged
                    out_sets[b] = transfer(merged, b)
                    changed = True
        # Build chains by an in-block walk.
        for block in cfg.blocks:
            state = {var: set(defs)
                     for var, defs in self.in_sets[block.index].items()}
            for i, uses, dst, kills in self._events[block.index]:
                for var in uses:
                    reaching = frozenset(state.get(var, {self.ENTRY}))
                    self.use_defs[(i, var)] = set(reaching)
                    for d in reaching:
                        self.def_uses.setdefault(d, set()).add((i, var))
                self._define(state, i, dst, kills)

    def uses_of_def(self, def_index: int) -> set[tuple[int, Var]]:
        return self.def_uses.get(def_index, set())

    def defs_reaching_use(self, use_index: int, var: Var) -> set[int]:
        return self.use_defs.get((use_index, var), {self.ENTRY})


@dataclass(frozen=True)
class ParamOrigin:
    """Provenance: the value derives from kernel parameter ``index``."""

    index: int


class Provenance:
    """Forward provenance analysis: which pointer parameter does each
    register's value derive from (if any)?"""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        self.block_in: list[dict[Reg, object]] = []
        self._compute()

    @staticmethod
    def _meet(a, b):
        if a is TOP:
            return b
        if b is TOP:
            return a
        return a if a == b else BOTTOM

    @classmethod
    def transfer_inst(cls, inst: Instruction, state: dict[Reg, object]) -> None:
        """Apply one instruction to a provenance state (mutates it)."""
        dst = inst.written_reg()
        if dst is None:
            return
        op = inst.op
        if op is Op.LD and inst.space is Space.PARAM:
            state[dst] = ParamOrigin(int(inst.srcs[0].value))
            return
        if op is Op.MOV and isinstance(inst.srcs[0], Reg):
            state[dst] = state.get(inst.srcs[0], BOTTOM)
            return
        if op in (Op.ADD, Op.SUB):
            provs = []
            for src in inst.srcs:
                if isinstance(src, Reg):
                    provs.append(state.get(src, BOTTOM))
                else:
                    provs.append(TOP)   # constants/specials: no provenance
            known = [p for p in provs if p is not TOP and p is not BOTTOM]
            # pointer + integer keeps the pointer's origin (the integer
            # may be BOTTOM — a computed index — without spoiling it);
            # pointer + pointer is meaningless and degrades to BOTTOM.
            if len(known) == 1:
                state[dst] = known[0]
            else:
                state[dst] = BOTTOM
            return
        state[dst] = BOTTOM

    def _compute(self) -> None:
        cfg = self.cfg
        kernel = cfg.kernel
        num_blocks = len(cfg.blocks)
        self.block_in = [dict() for _ in range(num_blocks)]
        out_states: list[dict[Reg, object] | None] = [None] * num_blocks

        def transfer(state: dict[Reg, object], block) -> dict[Reg, object]:
            state = dict(state)
            for i in range(block.start, block.end):
                self.transfer_inst(kernel.instructions[i], state)
            return state

        worklist = list(cfg.rpo())
        self.block_in[0] = {}
        iterations = 0
        while worklist and iterations < 10 * num_blocks + 100:
            iterations += 1
            b = worklist.pop(0)
            block = cfg.blocks[b]
            if b == 0:
                merged: dict[Reg, object] = {}
            else:
                merged = {}
                seen_pred = False
                for pred in block.preds:
                    pred_out = out_states[pred]
                    if pred_out is None:
                        continue
                    if not seen_pred:
                        merged = dict(pred_out)
                        seen_pred = True
                    else:
                        keys = set(merged) | set(pred_out)
                        merged = {
                            k: self._meet(merged.get(k, TOP),
                                          pred_out.get(k, TOP))
                            for k in keys
                        }
            new_out = transfer(merged, block)
            if new_out != out_states[b] or merged != self.block_in[b]:
                self.block_in[b] = merged
                out_states[b] = new_out
                for succ in block.succs:
                    if succ not in worklist:
                        worklist.append(succ)

    def origin_at(self, inst_index: int, reg: Reg) -> object:
        """Provenance of ``reg`` just before the given instruction."""
        block = self.cfg.block_at(inst_index)
        state = dict(self.block_in[block.index])
        kernel = self.cfg.kernel
        for i in range(block.start, inst_index):
            self.transfer_inst(kernel.instructions[i], state)
        return state.get(reg, BOTTOM)
