"""Reference value semantics: one instruction, decoded on every call.

``execute`` applies an :class:`~repro.isa.Instruction` to a warp's
:class:`~repro.sim.LaneContext` under an active-lane mask and returns
the memory addresses touched (if any) so the timing model can coalesce
them.  It reads operands through isinstance dispatch and masks every
register write; ``repro.sim.plan`` lowers the same semantics into
per-op closures, and the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimError
from repro.isa import Imm, Instruction, Op, Pred, Reg, Space, Special
from repro.sim import LaneContext, MemAccess
from repro.sim.functional import _CMP_FNS, _atom_apply, _check_bounds

#: Row of each special register in ``LaneContext.special_rows``.
_SPECIAL_ROW = {special: row for row, special in enumerate(Special)}


def read(ctx: LaneContext, operand) -> np.ndarray:
    """The lane vector of one source operand."""
    if isinstance(operand, Reg):
        return ctx.regs[operand.index]
    if isinstance(operand, Pred):
        return ctx.preds[operand.index]
    if isinstance(operand, Imm):
        return np.full(ctx.warp_size, operand.value, dtype=np.float64)
    if isinstance(operand, Special):
        return ctx.special_rows[_SPECIAL_ROW[operand]]
    raise SimError(f"unreadable operand {operand!r}")


def write_reg(ctx: LaneContext, reg: Reg, value: np.ndarray,
              mask: np.ndarray) -> None:
    np.copyto(ctx.regs[reg.index], value, where=mask)


def write_pred(ctx: LaneContext, pred: Pred, value: np.ndarray,
               mask: np.ndarray) -> None:
    np.copyto(ctx.preds[pred.index], value, where=mask)


def guard_mask(inst: Instruction, ctx: LaneContext,
               active: np.ndarray) -> np.ndarray:
    """Lanes in which the (possibly predicated) instruction takes effect."""
    if inst.guard is None:
        return active
    guard = ctx.preds[inst.guard.index]
    if not inst.guard_sense:
        guard = ~guard
    return active & guard


def _as_int(values: np.ndarray) -> np.ndarray:
    return values.astype(np.int64)


def _alu_result(inst: Instruction, ctx: LaneContext) -> np.ndarray:
    op = inst.op

    def src(i: int) -> np.ndarray:
        return read(ctx, inst.srcs[i])

    with np.errstate(all="ignore"):
        if op is Op.ADD:
            return src(0) + src(1)
        if op is Op.SUB:
            return src(0) - src(1)
        if op is Op.MUL:
            return src(0) * src(1)
        if op is Op.MAD:
            return src(0) * src(1) + src(2)
        if op is Op.DIV:
            denom = src(1)
            out = src(0) / np.where(denom == 0.0, np.nan, denom)
            return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)
        if op is Op.REM:
            denom = _as_int(src(1))
            safe = np.where(denom == 0, 1, denom)
            out = np.remainder(_as_int(src(0)), safe)
            return np.where(denom == 0, 0, out).astype(np.float64)
        if op is Op.MIN:
            return np.minimum(src(0), src(1))
        if op is Op.MAX:
            return np.maximum(src(0), src(1))
        if op is Op.ABS:
            return np.abs(src(0))
        if op is Op.NEG:
            return -src(0)
        if op is Op.FLOOR:
            return np.floor(src(0))
        if op is Op.AND:
            return (_as_int(src(0)) & _as_int(src(1))).astype(np.float64)
        if op is Op.OR:
            return (_as_int(src(0)) | _as_int(src(1))).astype(np.float64)
        if op is Op.XOR:
            return (_as_int(src(0)) ^ _as_int(src(1))).astype(np.float64)
        if op is Op.NOT:
            return (~_as_int(src(0))).astype(np.float64)
        if op is Op.SHL:
            shift = np.clip(_as_int(src(1)), 0, 62)
            return (_as_int(src(0)) << shift).astype(np.float64)
        if op is Op.SHR:
            shift = np.clip(_as_int(src(1)), 0, 62)
            return (_as_int(src(0)) >> shift).astype(np.float64)
        if op is Op.MOV:
            return src(0).astype(np.float64)
        if op is Op.SELP:
            return np.where(src(2), src(0), src(1))
        if op is Op.SQRT:
            return np.sqrt(np.maximum(src(0), 0.0))
        if op is Op.RSQRT:
            return 1.0 / np.sqrt(np.maximum(src(0), 1e-300))
        if op is Op.EXP:
            return np.exp(np.clip(src(0), -700.0, 700.0))
        if op is Op.LOG:
            return np.log(np.maximum(src(0), 1e-300))
        if op is Op.SIN:
            return np.sin(src(0))
        if op is Op.COS:
            return np.cos(src(0))
    raise SimError(f"no ALU semantics for {inst.op}")


def execute(inst: Instruction, ctx: LaneContext, active: np.ndarray,
            global_mem: np.ndarray,
            shared_mem: np.ndarray) -> MemAccess | None:
    """Apply one instruction's value semantics in the masked lanes.

    Returns a :class:`MemAccess` for loads/stores/atomics (used by the
    timing model), ``None`` otherwise.  Control instructions (branches,
    barriers, exits, boundaries) have no value semantics here — the
    warp-level functions of :mod:`tests.oracle.sm` handle them.
    """
    mask = guard_mask(inst, ctx, active)
    op = inst.op
    info = inst.info

    if info.is_load:
        if inst.space is Space.PARAM:
            index = int(inst.srcs[0].value)
            value = np.full(ctx.warp_size, ctx.params[index])
            write_reg(ctx, inst.dst, value, mask)
            return None
        addrs = _as_int(read(ctx, inst.srcs[0])) + inst.offset
        mem = global_mem if inst.space is Space.GLOBAL else shared_mem
        if mask.any():
            lane_addrs = addrs[mask]
            _check_bounds(lane_addrs, mem, inst)
            values = np.zeros(ctx.warp_size)
            values[mask] = mem[lane_addrs]
            write_reg(ctx, inst.dst, values, mask)
            return MemAccess(inst.space, lane_addrs, is_store=False)
        return None

    if info.is_store:
        addrs = _as_int(read(ctx, inst.srcs[0])) + inst.offset
        mem = global_mem if inst.space is Space.GLOBAL else shared_mem
        if mask.any():
            lane_addrs = addrs[mask]
            _check_bounds(lane_addrs, mem, inst)
            values = read(ctx, inst.srcs[1])
            # Lane order resolves same-address conflicts: highest lane wins,
            # matching CUDA's unspecified-but-deterministic per-SM behaviour.
            mem[lane_addrs] = values[mask]
            return MemAccess(inst.space, lane_addrs, is_store=True)
        return None

    if info.is_atomic:
        addrs = _as_int(read(ctx, inst.srcs[0])) + inst.offset
        mem = global_mem if inst.space is Space.GLOBAL else shared_mem
        if mask.any():
            lane_addrs = addrs[mask]
            _check_bounds(lane_addrs, mem, inst)
            operand = read(ctx, inst.srcs[1])
            old = np.zeros(ctx.warp_size)
            for lane in np.flatnonzero(mask):
                addr = addrs[lane]
                old[lane] = mem[addr]
                mem[addr] = _atom_apply(inst.atom_op, mem[addr], operand[lane])
            if inst.dst is not None:
                write_reg(ctx, inst.dst, old, mask)
            return MemAccess(inst.space, lane_addrs, is_store=True,
                             is_atomic=True)
        return None

    if op is Op.SETP:
        result = _CMP_FNS[inst.cmp](read(ctx, inst.srcs[0]),
                                    read(ctx, inst.srcs[1]))
        write_pred(ctx, inst.dst, result, mask)
        return None
    if op is Op.PAND:
        write_pred(ctx, inst.dst,
                   read(ctx, inst.srcs[0]) & read(ctx, inst.srcs[1]), mask)
        return None
    if op is Op.POR:
        write_pred(ctx, inst.dst,
                   read(ctx, inst.srcs[0]) | read(ctx, inst.srcs[1]), mask)
        return None
    if op is Op.PNOT:
        write_pred(ctx, inst.dst, ~read(ctx, inst.srcs[0]), mask)
        return None

    if info.is_branch or info.is_barrier or info.is_exit or info.is_boundary:
        return None

    write_reg(ctx, inst.dst, _alu_result(inst, ctx), mask)
    return None
