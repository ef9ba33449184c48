"""Operand kinds for the PTX-like virtual ISA.

The ISA uses virtual registers exactly like NVIDIA's PTX: an unbounded
register namespace that a later allocation step maps onto the physical
register budget.  The paper's compiler also works at the PTX level
(Section V-A), so this is a faithful substrate for the Flame passes.

Operand kinds:

* :class:`Reg`   -- general-purpose register, one 64-bit value per lane.
* :class:`Pred`  -- predicate (boolean) register, one bit per lane.
* :class:`Imm`   -- immediate constant.
* :class:`Special` -- read-only special registers (thread/block indices).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Reg:
    """A general-purpose virtual register ``r<index>``."""

    index: int

    def __post_init__(self) -> None:
        # Registers key the compiler's dataflow sets and dicts; cache
        # the hash instead of recomputing it per lookup.  (The
        # simulator keys its scoreboard by :func:`scoreboard_key`, an
        # int.)  Hash from the index alone: a class object hashes by its
        # id, which changes per process, and with it the iteration order
        # of register sets (and so the compiler's register coloring).
        object.__setattr__(self, "_hash", hash(self.index))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True, order=True)
class Pred:
    """A predicate register ``p<index>`` holding one boolean per lane."""

    index: int

    def __post_init__(self) -> None:
        # Negative, so predicates stay apart from registers (see Reg).
        object.__setattr__(self, "_hash", hash(-1 - self.index))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand."""

    value: float

    def __repr__(self) -> str:
        value = self.value
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)


class Special(enum.Enum):
    """Read-only special registers, mirroring PTX ``%tid``/``%ctaid`` etc."""

    TID_X = "tid.x"
    TID_Y = "tid.y"
    NTID_X = "ntid.x"
    NTID_Y = "ntid.y"
    CTAID_X = "ctaid.x"
    CTAID_Y = "ctaid.y"
    NCTAID_X = "nctaid.x"
    NCTAID_Y = "nctaid.y"
    LANEID = "laneid"
    WARPID = "warpid"

    def __repr__(self) -> str:
        return f"%{self.value}"

    __str__ = __repr__


#: Any operand readable as a source.
Operand = Reg | Pred | Imm | Special


def scoreboard_key(op: Reg | Pred) -> int:
    """The int that keys ``op`` on the simulator's scoreboard: a
    register's index, or ``-1 - index`` for a predicate (the values the
    two classes hash to, so registers and predicates never collide)."""
    if isinstance(op, Reg):
        return op.index
    if isinstance(op, Pred):
        return -1 - op.index
    raise TypeError(f"{op!r} is not a scoreboard operand")


def as_operand(value: "Operand | int | float") -> Operand:
    """Coerce a Python number into an :class:`Imm`, pass operands through."""
    if isinstance(value, (Reg, Pred, Imm, Special)):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid operands; use a Pred")
    if isinstance(value, (int, float)):
        return Imm(float(value))
    raise TypeError(f"cannot use {value!r} as an instruction operand")
