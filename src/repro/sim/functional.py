"""Value-level building blocks of the virtual ISA.

Each warp executes instructions on 32 lanes at once using NumPy vectors.
General registers hold float64 values; integer/bitwise opcodes operate on
the int64 truncation.  The per-op value closures live in
:mod:`repro.sim.plan`; this module holds what they share: the warp's
:class:`LaneContext`, the :class:`MemAccess` record the timing model
coalesces, comparison and atomic semantics, and the bounds check whose
message becomes a DUE-crash row's ``detail``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimError
from ..isa import AtomOp, CmpOp, Instruction, Space

_CMP_FNS = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}


@dataclass
class MemAccess:
    """Addresses touched by one memory instruction (active lanes only)."""

    space: Space
    addresses: np.ndarray  # int64, one entry per active lane
    is_store: bool
    is_atomic: bool = False


class LaneContext:
    """Register/predicate state and special-register values of one warp."""

    def __init__(self, num_regs: int, num_preds: int, warp_size: int,
                 specials: list[np.ndarray],
                 params: np.ndarray) -> None:
        self.regs = np.zeros((max(num_regs, 1), warp_size), dtype=np.float64)
        self.preds = np.zeros((max(num_preds, 1), warp_size), dtype=bool)
        # Special-register rows in ``Special`` declaration order, so plan
        # fetchers index a list instead of hashing enum members.
        self.special_rows = specials
        self.params = params
        self.warp_size = warp_size


def _atom_apply(atom_op: AtomOp, old: float, operand: float) -> float:
    if atom_op is AtomOp.ADD:
        return old + operand
    if atom_op is AtomOp.MAX:
        return max(old, operand)
    if atom_op is AtomOp.MIN:
        return min(old, operand)
    if atom_op is AtomOp.EXCH:
        return operand
    raise SimError(f"unknown atomic op {atom_op}")


def _check_bounds(addrs: np.ndarray, mem: np.ndarray,
                  inst: Instruction) -> None:
    if addrs.size and (addrs.min() < 0 or addrs.max() >= mem.size):
        raise SimError(
            f"out-of-bounds {inst.space.value} access in {inst} "
            f"(addr range [{addrs.min()}, {addrs.max()}], size {mem.size})"
        )
