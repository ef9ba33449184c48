"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import compile_kernel, prepare_launch, scheme_by_name
from repro.core import FlameRuntime
from repro.isa import (CmpOp, Imm, Instruction, Kernel, KernelBuilder, Op,
                       Pred, Reg, Space, Special)
from repro.obs.heartbeat import COUNT_KEYS
from repro.obs.metrics import SIM_COUNTERS
from repro.sim import Gpu, LaunchConfig, NULL_RESILIENCE


# ----------------------------------------------------------------------
# Reference interpreter: executes a kernel one thread at a time with
# plain sequential semantics.  It is the oracle the SIMT simulator is
# checked against: any kernel without cross-thread communication must
# produce identical memory on both.
# ----------------------------------------------------------------------
def interpret_thread(kernel: Kernel, thread_id: int, launch: LaunchConfig,
                     global_mem: np.ndarray, shared: np.ndarray,
                     block_id: int = 0, max_steps: int = 100_000) -> None:
    """Run one thread of one block to completion, sequentially."""
    bx, by = launch.block
    gx, _ = launch.grid
    regs = np.zeros(max(kernel.num_regs, 1))
    preds = np.zeros(max(kernel.num_preds, 1), dtype=bool)
    tid_x, tid_y = thread_id % bx, thread_id // bx
    specials = {
        Special.TID_X: tid_x, Special.TID_Y: tid_y,
        Special.NTID_X: bx, Special.NTID_Y: by,
        Special.CTAID_X: block_id % gx, Special.CTAID_Y: block_id // gx,
        Special.NCTAID_X: gx, Special.NCTAID_Y: launch.grid[1],
        Special.LANEID: thread_id % 32, Special.WARPID: thread_id // 32,
    }

    def read(operand):
        if isinstance(operand, Reg):
            return regs[operand.index]
        if isinstance(operand, Pred):
            return preds[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        return float(specials[operand])

    pc = 0
    steps = 0
    while steps < max_steps:
        steps += 1
        inst = kernel.instructions[pc]
        guard_ok = True
        if inst.guard is not None:
            guard_ok = preds[inst.guard.index] == inst.guard_sense
        if inst.op is Op.EXIT:
            if guard_ok:
                return
            pc += 1
            continue
        if inst.op is Op.BRA:
            pc = kernel.target_of(inst) if guard_ok else pc + 1
            continue
        if inst.op in (Op.BAR, Op.RB) or not guard_ok:
            pc += 1
            continue
        _interp_apply(inst, read, regs, preds, global_mem, shared)
        pc += 1
    raise AssertionError("reference interpreter ran too long")


def _interp_apply(inst, read, regs, preds, global_mem, shared) -> None:
    import math

    op = inst.op
    s = [read(x) for x in inst.srcs]
    mem = {Space.GLOBAL: global_mem, Space.SHARED: shared}

    def write(value: float) -> None:
        regs[inst.dst.index] = value

    if op is Op.LD:
        if inst.space is Space.PARAM:
            write(read(Imm(0)) if False else _interp_param(inst))
            return
        write(mem[inst.space][int(s[0]) + inst.offset])
    elif op is Op.ST:
        mem[inst.space][int(s[0]) + inst.offset] = s[1]
    elif op is Op.ATOM:
        addr = int(s[0]) + inst.offset
        old = mem[inst.space][addr]
        from repro.sim.functional import _atom_apply

        mem[inst.space][addr] = _atom_apply(inst.atom_op, old, s[1])
        if inst.dst is not None:
            write(old)
    elif op is Op.SETP:
        fns = {CmpOp.EQ: lambda a, b: a == b, CmpOp.NE: lambda a, b: a != b,
               CmpOp.LT: lambda a, b: a < b, CmpOp.LE: lambda a, b: a <= b,
               CmpOp.GT: lambda a, b: a > b, CmpOp.GE: lambda a, b: a >= b}
        preds[inst.dst.index] = fns[inst.cmp](s[0], s[1])
    elif op is Op.PAND:
        preds[inst.dst.index] = bool(s[0]) and bool(s[1])
    elif op is Op.POR:
        preds[inst.dst.index] = bool(s[0]) or bool(s[1])
    elif op is Op.PNOT:
        preds[inst.dst.index] = not bool(s[0])
    else:
        write(_interp_alu(op, s, inst))


_PARAMS: tuple[float, ...] = ()


def _interp_param(inst) -> float:
    return _PARAMS[int(inst.srcs[0].value)]


def _interp_alu(op, s, inst) -> float:
    import math

    i = lambda x: int(x)
    if op is Op.ADD:
        return s[0] + s[1]
    if op is Op.SUB:
        return s[0] - s[1]
    if op is Op.MUL:
        return s[0] * s[1]
    if op is Op.MAD:
        return s[0] * s[1] + s[2]
    if op is Op.DIV:
        return s[0] / s[1] if s[1] != 0 else 0.0
    if op is Op.REM:
        return float(i(s[0]) % i(s[1])) if i(s[1]) else 0.0
    if op is Op.MIN:
        return min(s[0], s[1])
    if op is Op.MAX:
        return max(s[0], s[1])
    if op is Op.ABS:
        return abs(s[0])
    if op is Op.NEG:
        return -s[0]
    if op is Op.FLOOR:
        return math.floor(s[0])
    if op is Op.AND:
        return float(i(s[0]) & i(s[1]))
    if op is Op.OR:
        return float(i(s[0]) | i(s[1]))
    if op is Op.XOR:
        return float(i(s[0]) ^ i(s[1]))
    if op is Op.NOT:
        return float(~i(s[0]))
    if op is Op.SHL:
        return float(i(s[0]) << max(0, min(62, i(s[1]))))
    if op is Op.SHR:
        return float(i(s[0]) >> max(0, min(62, i(s[1]))))
    if op is Op.MOV:
        return s[0]
    if op is Op.SELP:
        return s[0] if s[2] else s[1]
    if op is Op.SQRT:
        return math.sqrt(max(s[0], 0.0))
    if op is Op.RSQRT:
        return 1.0 / math.sqrt(max(s[0], 1e-300))
    if op is Op.EXP:
        return math.exp(max(-700.0, min(700.0, s[0])))
    if op is Op.LOG:
        return math.log(max(s[0], 1e-300))
    if op is Op.SIN:
        return math.sin(s[0])
    if op is Op.COS:
        return math.cos(s[0])
    raise AssertionError(f"no reference semantics for {op}")


def interpret_kernel(kernel: Kernel, launch: LaunchConfig,
                     global_mem: np.ndarray) -> np.ndarray:
    """Sequential reference execution of a whole launch (only valid for
    kernels without cross-thread communication through shared memory)."""
    global _PARAMS
    _PARAMS = tuple(launch.params)
    mem = global_mem.copy()
    for block_id in range(launch.num_blocks):
        shared = np.zeros(max(kernel.shared_words, 1))
        for t in range(launch.threads_per_block):
            interpret_thread(kernel, t, launch, mem, shared, block_id)
    return mem


# ----------------------------------------------------------------------
# Run helpers
# ----------------------------------------------------------------------
def prepared_launch(compiled, instance):
    """``instance``'s launch geometry and fresh memory, prepared for
    ``compiled`` (scheme parameters and scratch memory appended)."""
    mem = instance.fresh_memory()
    params, mem = prepare_launch(
        compiled, instance.launch.params, mem,
        instance.launch.num_blocks, instance.launch.threads_per_block)
    launch = LaunchConfig(grid=instance.launch.grid,
                          block=instance.launch.block, params=params)
    return launch, mem


def run_compiled(instance, scheme_name: str, wcdl: int = 20,
                 scheduler: str = "GTO", gpu_config=None,
                 injector=None, sanitizer=None, tracer=None,
                 **launch_kwargs):
    """Compile a workload instance under a scheme and simulate it.

    Returns (RunResult, final_memory, verified).
    """
    from repro.arch import GTX480

    compiled = compile_kernel(instance.kernel, scheme_name, wcdl=wcdl)
    scheme = scheme_by_name(scheme_name)
    runtime = FlameRuntime(wcdl) if scheme.uses_sensor_runtime \
        else NULL_RESILIENCE
    gpu = Gpu(gpu_config or GTX480, resilience=runtime, scheduler=scheduler,
              sanitizer=sanitizer, tracer=tracer)
    if injector is not None:
        gpu.fault_injector = injector
    launch, mem = prepared_launch(compiled, instance)
    result = gpu.launch(compiled.kernel, launch, mem,
                        regs_per_thread=compiled.regs_per_thread,
                        **launch_kwargs)
    return result, mem, instance.verify(mem)


# ----------------------------------------------------------------------
# Campaign telemetry
# ----------------------------------------------------------------------
def assert_record_matches_registry(record, registry):
    """Every count in a heartbeat record equals its registry family."""
    families = {f["name"]: f["series"] for f in registry.collect()}

    def total(name, **match):
        return sum(s["value"] for s in families.get(name, ())
                   if match.items() <= s["labels"].items())

    for key, (name, match) in COUNT_KEYS.items():
        assert record[key] == total(name, **match), key
    assert record["completed"] + record["resumed_from_journal"] == \
        total("repro_trials_total")
    for name, spec in SIM_COUNTERS.items():
        fixed = dict(spec.labels)
        if spec.key_label is None:
            assert record[name] == total(spec.family, **fixed), name
        else:
            assert sum(record[name].values()) == \
                total(spec.family, **fixed), name
    if "shards_done" in record:
        assert record["shards_done"] == total("repro_shards", state="done")


@pytest.fixture
def saxpy_kernel():
    """A small guarded streaming kernel used across many tests."""
    b = KernelBuilder("saxpy", num_params=4)
    n, a, xp, yp = b.params(4)
    i = b.global_index()
    lt = b.setp(CmpOp.LT, i, n)
    with b.if_(lt):
        x = b.ld_global(b.add(xp, i))
        y = b.ld_global(b.add(yp, i))
        b.st_global(b.add(yp, i), b.mad(a, x, y))
    return b.build()


@pytest.fixture
def loop_kernel():
    """A kernel with a loop, an accumulator, and an in-place update —
    exercising self-WARs, memory WARs, and divergence."""
    b = KernelBuilder("loopy", num_params=3)
    n, xp, yp = b.params(3)
    i = b.global_index()
    lt = b.setp(CmpOp.LT, i, n)
    with b.if_(lt):
        xa = b.add(xp, i)
        ya = b.add(yp, i)
        acc = b.mov(0.0)
        with b.loop(0, 4) as t:
            x = b.ld_global(xa)
            y = b.ld_global(ya)
            b.st_global(ya, b.mad(2.0, y, x))
            acc = b.add(acc, x, dst=acc)
        b.st_global(xa, acc)
    return b.build()


@pytest.fixture
def barrier_kernel():
    """Shared-memory staging plus barrier: block-reverse of the input."""
    width = 64
    b = KernelBuilder("rev", num_params=2, shared_words=width)
    ib, ob = b.params(2)
    tid = b.tid_x()
    gid = b.global_index()
    b.st_shared(tid, b.ld_global(b.add(ib, gid)))
    b.barrier()
    rev = b.sub(float(width - 1), tid)
    blk = b.mul(b.ctaid_x(), float(width))
    b.st_global(b.add(ob, b.add(blk, rev)), b.ld_shared(tid))
    return b.build()
