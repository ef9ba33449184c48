"""Decode-once execution plans: the simulator's issue path.

Decoding a static :class:`~repro.isa.Instruction` takes isinstance
chains over the operand kinds, ``OP_INFO`` lookups, branchy op dispatch
and tuple construction for the scoreboard check.  An :class:`ExecPlan`
does that work once per (kernel, config), at ``Sm.configure`` time,
lowering each instruction into a :class:`PlannedInst` dispatch record
that ``Sm`` issues from:

* operand *fetchers* — closures resolved per operand kind (register row,
  predicate row, shared read-only immediate vector, specials entry);
* an op-specific ``run`` closure with the value semantics of the ISA;
  the memory closures move a full warp without its mask and
  bounds-check in one reduction, raising ``functional._check_bounds``'s
  error;
* the scoreboard keys it reads and writes as ints
  (:func:`~repro.isa.scoreboard_key`), its ``SimStats.by_fu`` slot,
  fixed latency, guard policy, branch target/reconvergence PC, and the
  flag set (``is_timed_mem``, shadow/ckpt, fault-surface tracking).

Plans are cached on the kernel object, keyed by the instruction/label
content and the :class:`~repro.arch.GpuConfig`, so repeated launches of
one kernel — the fault-injection-campaign common case — pay lowering
once per process.  The plan holds strong references to the fingerprinted
instruction objects, which keeps their ids stable for the lifetime of
the cache entry (a mutated kernel can never alias a stale fingerprint).

A decode-per-issue reference interpreter lives beside the tests, in the
``tests/oracle`` package: a subclass of ``Sm`` put on an ordinary
``Gpu``.  Its ``assert_matches_oracle`` runs a launch on both and
requires identical cycles, ``SimStats`` and final memory, over every
workload (``tests/integration/test_fast_equivalence.py``) and over
generated programs (``tests/integration/test_property_based.py``).
"""

from __future__ import annotations

import numpy as np

from ..arch import GpuConfig
from ..errors import SimError
from ..isa import (FuClass, Imm, Instruction, Kernel, Op, Pred, Reg, Space,
                   Special, scoreboard_key)
from ..isa.cfg import reconvergence_table_for
from .functional import MemAccess, _atom_apply, _check_bounds, _CMP_FNS
from .stats import FU_CLASSES

# Dispatch kinds (checked with == in Sm._issue; ints, not enums,
# to keep the comparison a single C-level operation).
K_VALUE = 0   # value semantics via ``run`` (ALU, predicate, memory, RB)
K_BRA = 1
K_BAR = 2
K_EXIT = 3

# Timing kinds for timed (non-PARAM) memory operations.
T_ATOMIC = 0
T_SHARED = 1
T_GLOBAL = 2

#: Positional index of each special register in Special declaration
#: order — matches ``LaneContext.special_rows``.
_SPECIAL_INDEX = {special: i for i, special in enumerate(Special)}

#: Shared read-only immediate vectors, keyed by (warp_size, value).
#: Every consumer treats sources as read-only, so one frozen array per
#: distinct immediate serves all warps of all launches.
_IMM_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _imm_vector(warp_size: int, value: float) -> np.ndarray:
    key = (warp_size, float(value))
    vec = _IMM_CACHE.get(key)
    if vec is None:
        vec = np.full(warp_size, value, dtype=np.float64)
        vec.flags.writeable = False
        _IMM_CACHE[key] = vec
    return vec


def _fetcher(operand, warp_size: int):
    """Resolve one operand into a zero-isinstance read closure."""
    if isinstance(operand, Reg):
        index = operand.index
        return lambda ctx: ctx.regs[index]
    if isinstance(operand, Pred):
        index = operand.index
        return lambda ctx: ctx.preds[index]
    if isinstance(operand, Imm):
        vec = _imm_vector(warp_size, operand.value)
        return lambda ctx: vec
    if isinstance(operand, Special):
        row = _SPECIAL_INDEX[operand]
        return lambda ctx: ctx.special_rows[row]
    raise SimError(f"unreadable operand {operand!r}")


def _as_int(values: np.ndarray) -> np.ndarray:
    return values.astype(np.int64)


def _build_alu(inst: Instruction, fetch) -> "callable":
    """Specialized value function of one ALU/SFU op.

    The test oracle's ``_alu_result`` evaluates the same NumPy calls
    with the same clamping, so both give bit-identical results.  The
    surrounding ``np.errstate`` lives around the launch loop in
    ``Gpu.launch`` rather than per call.
    """
    op = inst.op
    if op is Op.ADD:
        f0, f1 = fetch
        return lambda ctx: f0(ctx) + f1(ctx)
    if op is Op.SUB:
        f0, f1 = fetch
        return lambda ctx: f0(ctx) - f1(ctx)
    if op is Op.MUL:
        f0, f1 = fetch
        return lambda ctx: f0(ctx) * f1(ctx)
    if op is Op.MAD:
        f0, f1, f2 = fetch
        return lambda ctx: f0(ctx) * f1(ctx) + f2(ctx)
    if op is Op.DIV:
        f0, f1 = fetch

        def div(ctx):
            denom = f1(ctx)
            out = f0(ctx) / np.where(denom == 0.0, np.nan, denom)
            return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

        return div
    if op is Op.REM:
        f0, f1 = fetch

        def rem(ctx):
            denom = _as_int(f1(ctx))
            safe = np.where(denom == 0, 1, denom)
            out = np.remainder(_as_int(f0(ctx)), safe)
            return np.where(denom == 0, 0, out).astype(np.float64)

        return rem
    if op is Op.MIN:
        f0, f1 = fetch
        return lambda ctx: np.minimum(f0(ctx), f1(ctx))
    if op is Op.MAX:
        f0, f1 = fetch
        return lambda ctx: np.maximum(f0(ctx), f1(ctx))
    if op is Op.ABS:
        (f0,) = fetch
        return lambda ctx: np.abs(f0(ctx))
    if op is Op.NEG:
        (f0,) = fetch
        return lambda ctx: -f0(ctx)
    if op is Op.FLOOR:
        (f0,) = fetch
        return lambda ctx: np.floor(f0(ctx))
    if op is Op.AND:
        f0, f1 = fetch
        return lambda ctx: (_as_int(f0(ctx)) & _as_int(f1(ctx))).astype(np.float64)
    if op is Op.OR:
        f0, f1 = fetch
        return lambda ctx: (_as_int(f0(ctx)) | _as_int(f1(ctx))).astype(np.float64)
    if op is Op.XOR:
        f0, f1 = fetch
        return lambda ctx: (_as_int(f0(ctx)) ^ _as_int(f1(ctx))).astype(np.float64)
    if op is Op.NOT:
        (f0,) = fetch
        return lambda ctx: (~_as_int(f0(ctx))).astype(np.float64)
    if op is Op.SHL:
        f0, f1 = fetch

        def shl(ctx):
            shift = np.clip(_as_int(f1(ctx)), 0, 62)
            return (_as_int(f0(ctx)) << shift).astype(np.float64)

        return shl
    if op is Op.SHR:
        f0, f1 = fetch

        def shr(ctx):
            shift = np.clip(_as_int(f1(ctx)), 0, 62)
            return (_as_int(f0(ctx)) >> shift).astype(np.float64)

        return shr
    if op is Op.MOV:
        (f0,) = fetch
        return lambda ctx: f0(ctx).astype(np.float64)
    if op is Op.SELP:
        f0, f1, f2 = fetch
        return lambda ctx: np.where(f2(ctx), f0(ctx), f1(ctx))
    if op is Op.SQRT:
        (f0,) = fetch
        return lambda ctx: np.sqrt(np.maximum(f0(ctx), 0.0))
    if op is Op.RSQRT:
        (f0,) = fetch
        return lambda ctx: 1.0 / np.sqrt(np.maximum(f0(ctx), 1e-300))
    if op is Op.EXP:
        (f0,) = fetch
        return lambda ctx: np.exp(np.clip(f0(ctx), -700.0, 700.0))
    if op is Op.LOG:
        (f0,) = fetch
        return lambda ctx: np.log(np.maximum(f0(ctx), 1e-300))
    if op is Op.SIN:
        (f0,) = fetch
        return lambda ctx: np.sin(f0(ctx))
    if op is Op.COS:
        (f0,) = fetch
        return lambda ctx: np.cos(f0(ctx))
    raise SimError(f"no ALU semantics for {inst.op}")


def _noop_run(ctx, mask, global_mem, shared_mem):
    return None


def _check_bounds_fast(addrs: np.ndarray, mem: np.ndarray,
                       inst: Instruction) -> None:
    """``functional._check_bounds`` in one reduction: a negative
    address reads as a huge unsigned one, so a single ``max`` catches
    both ends; the full check then raises with its exact text."""
    if addrs.view(np.uint64).max() >= mem.size:
        _check_bounds(addrs, mem, inst)


def _build_run(inst: Instruction, warp_size: int):
    """The value-semantics closure for one K_VALUE record.

    Signature: ``run(ctx, mask, global_mem, shared_mem) -> MemAccess|None``
    with ``mask`` the precomputed guard mask (:meth:`PlannedInst.guard`).
    """
    info = inst.info
    dst = inst.dst
    dst_index = dst.index if dst is not None else None

    if info.is_load:
        if inst.space is Space.PARAM:
            param_index = int(inst.srcs[0].value)

            def load_param(ctx, mask, global_mem, shared_mem):
                value = np.full(ctx.warp_size, ctx.params[param_index])
                np.copyto(ctx.regs[dst_index], value, where=mask)
                return None

            return load_param
        addr_fetch = _fetcher(inst.srcs[0], warp_size)
        offset = inst.offset
        space = inst.space
        is_global = space is Space.GLOBAL

        def load(ctx, mask, global_mem, shared_mem):
            addrs = addr_fetch(ctx).astype(np.int64) + offset
            mem = global_mem if is_global else shared_mem
            lanes = np.count_nonzero(mask)
            if not lanes:
                return None
            if lanes == warp_size:
                _check_bounds_fast(addrs, mem, inst)
                ctx.regs[dst_index] = mem[addrs]
                return MemAccess(space, addrs, is_store=False)
            lane_addrs = addrs[mask]
            _check_bounds_fast(lane_addrs, mem, inst)
            ctx.regs[dst_index][mask] = mem[lane_addrs]
            return MemAccess(space, lane_addrs, is_store=False)

        return load

    if info.is_store:
        addr_fetch = _fetcher(inst.srcs[0], warp_size)
        value_fetch = _fetcher(inst.srcs[1], warp_size)
        offset = inst.offset
        space = inst.space
        is_global = space is Space.GLOBAL

        def store(ctx, mask, global_mem, shared_mem):
            addrs = addr_fetch(ctx).astype(np.int64) + offset
            mem = global_mem if is_global else shared_mem
            lanes = np.count_nonzero(mask)
            if not lanes:
                return None
            # Lane order resolves same-address conflicts: highest lane
            # wins, matching CUDA's unspecified-but-deterministic
            # per-SM behaviour.
            if lanes == warp_size:
                _check_bounds_fast(addrs, mem, inst)
                mem[addrs] = value_fetch(ctx)
                return MemAccess(space, addrs, is_store=True)
            lane_addrs = addrs[mask]
            _check_bounds_fast(lane_addrs, mem, inst)
            mem[lane_addrs] = value_fetch(ctx)[mask]
            return MemAccess(space, lane_addrs, is_store=True)

        return store

    if info.is_atomic:
        addr_fetch = _fetcher(inst.srcs[0], warp_size)
        operand_fetch = _fetcher(inst.srcs[1], warp_size)
        offset = inst.offset
        space = inst.space
        is_global = space is Space.GLOBAL
        atom_op = inst.atom_op

        def atomic(ctx, mask, global_mem, shared_mem):
            addrs = addr_fetch(ctx).astype(np.int64) + offset
            mem = global_mem if is_global else shared_mem
            lanes = np.count_nonzero(mask)
            if not lanes:
                return None
            lane_addrs = addrs if lanes == warp_size else addrs[mask]
            _check_bounds_fast(lane_addrs, mem, inst)
            operand = operand_fetch(ctx)
            old = np.zeros(ctx.warp_size)
            for lane in np.flatnonzero(mask):
                addr = addrs[lane]
                old[lane] = mem[addr]
                mem[addr] = _atom_apply(atom_op, mem[addr], operand[lane])
            if dst_index is not None:
                np.copyto(ctx.regs[dst_index], old, where=mask)
            return MemAccess(space, lane_addrs, is_store=True,
                             is_atomic=True)

        return atomic

    op = inst.op
    if op is Op.SETP:
        cmp_fn = _CMP_FNS[inst.cmp]
        f0 = _fetcher(inst.srcs[0], warp_size)
        f1 = _fetcher(inst.srcs[1], warp_size)

        def setp(ctx, mask, global_mem, shared_mem):
            np.copyto(ctx.preds[dst_index], cmp_fn(f0(ctx), f1(ctx)),
                      where=mask)
            return None

        return setp
    if op is Op.PAND:
        f0 = _fetcher(inst.srcs[0], warp_size)
        f1 = _fetcher(inst.srcs[1], warp_size)

        def pand(ctx, mask, global_mem, shared_mem):
            np.copyto(ctx.preds[dst_index], f0(ctx) & f1(ctx), where=mask)
            return None

        return pand
    if op is Op.POR:
        f0 = _fetcher(inst.srcs[0], warp_size)
        f1 = _fetcher(inst.srcs[1], warp_size)

        def por(ctx, mask, global_mem, shared_mem):
            np.copyto(ctx.preds[dst_index], f0(ctx) | f1(ctx), where=mask)
            return None

        return por
    if op is Op.PNOT:
        f0 = _fetcher(inst.srcs[0], warp_size)

        def pnot(ctx, mask, global_mem, shared_mem):
            np.copyto(ctx.preds[dst_index], ~f0(ctx), where=mask)
            return None

        return pnot

    if (info.is_branch or info.is_barrier or info.is_exit
            or info.is_boundary):
        return _noop_run

    apply_fn = _build_alu(inst, tuple(_fetcher(s, warp_size)
                                      for s in inst.srcs))

    def alu(ctx, mask, global_mem, shared_mem):
        np.copyto(ctx.regs[dst_index], apply_fn(ctx), where=mask)
        return None

    return alu


class PlannedInst:
    """One static instruction, lowered into a dispatch record."""

    __slots__ = (
        "inst", "op", "kind", "fu_slot", "shadow", "ckpt", "dst_key",
        "dst_index",
        "guard_index", "guard_sense", "guard_recheck", "score_ops",
        "is_timed_mem", "timing", "latency", "run",
        "track_reg_write", "track_pred_write", "track_shared_store",
        "needs_writeback", "target", "reconv_pc", "is_rb",
        "src_reg_rows", "label",
    )

    def __init__(self, index: int, inst: Instruction, kernel: Kernel,
                 config: GpuConfig, reconv: dict[int, int]) -> None:
        info = inst.info
        self.inst = inst
        self.op = inst.op
        self.fu_slot = FU_CLASSES.index(info.fu)
        # Human-readable trace label, e.g. "ld.global" — precomputed so
        # traced issue only fetches an attribute.
        self.label = (inst.op.value if inst.space is None
                      else f"{inst.op.value}.{inst.space.value}")
        self.shadow = inst.shadow
        self.ckpt = inst.ckpt
        # Scoreboard keys are ints (registers by index, predicates
        # negative), so readiness checks hash no operand objects.
        self.dst_key = (scoreboard_key(inst.dst) if inst.dst is not None
                        else None)
        self.dst_index = inst.dst.index if inst.dst is not None else -1
        guard = inst.guard
        self.guard_index = guard.index if guard is not None else None
        self.guard_sense = inst.guard_sense
        # The fault surface records the guard mask as it stands *after*
        # execution; the only instruction whose execution can change its
        # own guard is a predicate write that aliases it.
        self.guard_recheck = (isinstance(inst.dst, Pred)
                              and guard is not None
                              and inst.dst.index == guard.index)
        operands = inst.read_regs() + inst.read_preds() + (
            (inst.dst,) if inst.dst is not None else ())
        self.score_ops = tuple(map(scoreboard_key, operands))
        # Register rows this instruction reads, precomputed for the
        # golden run's read-liveness recording (None when it reads no
        # registers, so the hot path pays a single attribute test).
        rows = sorted({reg.index for reg in inst.read_regs()})
        self.src_reg_rows = np.array(rows, dtype=np.intp) if rows else None
        self.is_timed_mem = (info.fu is FuClass.MEM
                             and inst.space is not Space.PARAM)
        if inst.space is None or not self.is_timed_mem:
            self.timing = -1
        elif info.is_atomic:
            self.timing = T_ATOMIC
        elif inst.space is Space.SHARED:
            self.timing = T_SHARED
        else:
            self.timing = T_GLOBAL
        self.latency = _latency_of(config, info.fu)
        self.needs_writeback = info.is_load or info.is_atomic
        self.track_reg_write = isinstance(inst.dst, Reg) and not inst.shadow
        self.track_pred_write = (isinstance(inst.dst, Pred)
                                 and not inst.shadow)
        self.track_shared_store = (info.is_store and not info.is_atomic
                                   and inst.space is Space.SHARED
                                   and not inst.shadow)
        self.is_rb = inst.op is Op.RB
        if info.is_branch:
            self.kind = K_BRA
            self.target = kernel.target_of(inst)
            self.reconv_pc = reconv.get(index, len(kernel.instructions))
            self.run = _noop_run
        elif info.is_barrier:
            self.kind = K_BAR
            self.target = -1
            self.reconv_pc = -1
            self.run = _noop_run
        elif info.is_exit:
            self.kind = K_EXIT
            self.target = -1
            self.reconv_pc = -1
            self.run = _noop_run
        else:
            # Includes RB markers: issuing one (possible under a custom
            # resilience runtime that leaves the PC on a marker) is a
            # counted no-op.
            self.kind = K_VALUE
            self.target = -1
            self.reconv_pc = -1
            self.run = _build_run(inst, config.warp_size)

    def guard(self, ctx, active: np.ndarray) -> np.ndarray:
        """Lanes of ``active`` in which the (possibly predicated)
        instruction takes effect."""
        index = self.guard_index
        if index is None:
            return active
        guard = ctx.preds[index]
        if self.guard_sense:
            return active & guard
        return active & ~guard


def _latency_of(config: GpuConfig, fu: FuClass) -> int:
    if fu is FuClass.ALU:
        return config.alu_latency
    if fu is FuClass.MUL:
        return config.mul_latency
    if fu is FuClass.SFU:
        return config.sfu_latency
    return config.alu_latency


class ExecPlan:
    """Per-(kernel, config) table of :class:`PlannedInst` records."""

    __slots__ = ("kernel", "config", "records", "rb_flags", "num_insts",
                 "instructions", "inst_ids", "labels_key")

    def __init__(self, kernel: Kernel, config: GpuConfig,
                 reconv: dict[int, int]) -> None:
        self.kernel = kernel
        self.config = config
        # Strong references pin the instruction ids the fingerprint uses.
        self.instructions = tuple(kernel.instructions)
        self.inst_ids = tuple(map(id, self.instructions))
        self.labels_key = tuple(sorted(kernel.labels.items()))
        self.num_insts = len(self.instructions)
        self.records = [PlannedInst(i, inst, kernel, config, reconv)
                        for i, inst in enumerate(self.instructions)]
        self.rb_flags = [rec.is_rb for rec in self.records]

    def matches(self, kernel: Kernel) -> bool:
        return (self.inst_ids == tuple(map(id, kernel.instructions))
                and self.labels_key == tuple(sorted(kernel.labels.items())))


#: Most plans a kernel retains at once: a kernel relaunched under many
#: distinct GpuConfigs (latency sweeps, architecture comparisons) evicts
#: its least-recently-used plan instead of accumulating them unboundedly.
PLAN_CACHE_SIZE = 8


def get_plan(kernel: Kernel, config: GpuConfig) -> ExecPlan:
    """The (cached) execution plan of ``kernel`` under ``config``.

    The cache lives on the kernel object, keyed by the full ``GpuConfig``
    (frozen, hashable — warp size, latencies, cache geometry all change
    lowering) and validated against the current instruction identities
    and labels, so mutating a kernel in place transparently invalidates
    its plans while repeated launches — campaign trials — hit the cache.
    A plan is built only for a kernel that passes
    :meth:`~repro.isa.Kernel.validate`, so an invalid kernel raises on
    every launch while a valid one is validated once per plan.
    The cache is LRU-bounded at :data:`PLAN_CACHE_SIZE` entries (dicts
    preserve insertion order; hits reinsert their key at the end).
    """
    cache = kernel.__dict__.get("_exec_plans")
    if cache is None:
        cache = {}
        kernel.__dict__["_exec_plans"] = cache
    plan = cache.pop(config, None)
    if plan is not None and plan.matches(kernel):
        cache[config] = plan  # reinsert: most recently used
        return plan
    kernel.validate()
    plan = ExecPlan(kernel, config, reconvergence_table_for(kernel))
    cache[config] = plan
    while len(cache) > PLAN_CACHE_SIZE:
        cache.pop(next(iter(cache)))
    return plan


__all__ = ["ExecPlan", "PlannedInst", "get_plan",
           "PLAN_CACHE_SIZE",
           "K_VALUE", "K_BRA", "K_BAR", "K_EXIT",
           "T_ATOMIC", "T_SHARED", "T_GLOBAL"]
