"""PTX-like virtual ISA: operands, opcodes, instructions, kernels, CFGs.

This is the substrate the Flame compiler transforms and the cycle-level
simulator executes.  Public surface:

* :class:`Reg`, :class:`Pred`, :class:`Imm`, :class:`Special` — operands
* :class:`Op`, :class:`Space`, :class:`CmpOp`, :class:`AtomOp` — opcodes
* :class:`Instruction`, :class:`Kernel`, :class:`Program`
* :class:`KernelBuilder` — the eDSL workloads are written in
* :class:`Cfg` — control-flow graph + SIMT reconvergence analysis
* :func:`parse_kernel`, :func:`parse_program` — textual assembler
"""

from .asmparser import parse_instruction, parse_kernel, parse_program
from .builder import KernelBuilder
from .cfg import BasicBlock, Cfg, reconvergence_table_for
from .instruction import Instruction
from .opcodes import AtomOp, CmpOp, FuClass, Op, OP_INFO, OpInfo, Space
from .operands import (Imm, Operand, Pred, Reg, Special, as_operand,
                       scoreboard_key)
from .program import Kernel, Program, RegAllocator

__all__ = [
    "AtomOp", "BasicBlock", "Cfg", "CmpOp", "FuClass", "Imm", "Instruction",
    "Kernel", "KernelBuilder", "Op", "OP_INFO", "OpInfo", "Operand", "Pred",
    "Program", "Reg", "RegAllocator", "Space", "Special", "as_operand",
    "parse_instruction", "parse_kernel", "parse_program",
    "reconvergence_table_for", "scoreboard_key",
]
