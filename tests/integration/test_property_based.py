"""Property-based whole-stack tests.

Random structured kernels are generated through the builder, then:

* the cycle-level SIMT simulator must agree with the sequential
  per-thread reference interpreter (SIMT correctness), and
* every resilience scheme must agree with the uncompiled kernel
  (compiler correctness), and
* Flame under fault injection must agree bit-exactly with a fault-free
  run (recovery correctness), and
* the planned fast path must agree with the reference interpreter
  (``fast=False``) on cycles, every stat and final memory, under every
  scheduler with and without Flame (execution-tier equivalence).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import compile_kernel, prepare_launch
from repro.core import FaultInjector, FlameRuntime, runtime_scheme_by_name
from repro.isa import CmpOp, KernelBuilder, Op
from repro.sim import SCHEDULERS, Gpu, LaunchConfig, run_kernel
from repro.arch import GTX480
from tests.conftest import interpret_kernel

MEM_WORDS = 4096
OUT_BASE = 1024


@st.composite
def random_kernel(draw):
    """A random structured kernel over a small register pool.

    All memory addresses stay in-bounds by construction: loads read
    [0, 512), stores write [OUT_BASE + slot*64 + tid].
    """
    b = KernelBuilder("rand", num_params=1)
    base = b.params(1)[0]
    tid = b.tid_x()
    gid = b.global_index()
    pool = [tid, b.mov(1.0), b.mov(draw(st.integers(-4, 4))), gid]

    def pick_reg():
        return pool[draw(st.integers(0, len(pool) - 1))]

    def emit_op(depth):
        kind = draw(st.sampled_from(
            ["alu", "alu", "alu", "sfu", "guarded", "load", "store",
             "if", "loop"] if depth < 2 else
            ["alu", "alu", "sfu", "guarded", "load", "store"]))
        if kind == "alu":
            op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.MIN,
                                       Op.MAX, Op.XOR, Op.AND]))
            method = getattr(b, {"min": "min_", "max": "max_",
                                 "and": "and_"}.get(op.value, op.value))
            pool.append(method(pick_reg(), pick_reg()))
        elif kind == "sfu":
            fn = draw(st.sampled_from(["sqrt", "exp_clip", "abs_"]))
            if fn == "exp_clip":
                pool.append(b.exp(b.min_(pick_reg(), 10.0)))
            elif fn == "sqrt":
                pool.append(b.sqrt(b.abs_(pick_reg())))
            else:
                pool.append(b.abs_(pick_reg()))
        elif kind == "guarded":
            p = b.setp(draw(st.sampled_from(list(CmpOp))), pick_reg(),
                       pick_reg())
            # Never mutate tid/gid (pool[0]/pool[3]): stores are indexed
            # by them, and changing them would create cross-block races.
            mutable = [r for i, r in enumerate(pool) if i not in (0, 3)]
            target = mutable[draw(st.integers(0, len(mutable) - 1))]
            b.add(pick_reg(), 1.0, dst=target, guard=p)
        elif kind == "load":
            addr = b.and_(pick_reg(), 511.0)
            pool.append(b.ld_global(addr))
        elif kind == "store":
            slot = draw(st.integers(0, 7))
            addr = b.add(b.mov(float(OUT_BASE + slot * 128)), gid)
            b.st_global(addr, pick_reg())
        elif kind == "if":
            p = b.setp(draw(st.sampled_from([CmpOp.LT, CmpOp.GE])),
                       tid, float(draw(st.integers(1, 31))))
            with b.if_(p):
                for _ in range(draw(st.integers(1, 3))):
                    emit_op(depth + 1)
        elif kind == "loop":
            trips = draw(st.integers(1, 3))
            with b.loop(0, trips):
                for _ in range(draw(st.integers(1, 3))):
                    emit_op(depth + 1)

    for _ in range(draw(st.integers(3, 10))):
        emit_op(0)
    # Publish the register pool so every value is observable (slots are
    # gid-indexed: no cross-block aliasing).
    for slot, reg in enumerate(pool[:12]):
        addr = b.add(b.mov(float(OUT_BASE + 1024 + slot * 128)), gid)
        b.st_global(addr, reg)
    return b.build()


def fresh_memory():
    rng = np.random.default_rng(1234)
    mem = np.zeros(MEM_WORDS)
    mem[:512] = rng.uniform(-8, 8, 512).round(3)
    return mem


LAUNCH = LaunchConfig(grid=(2, 1), block=(64, 1), params=(0,))

relaxed = settings(max_examples=12, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


class TestSimtMatchesSequentialReference:
    @relaxed
    @given(random_kernel())
    def test_simulator_equals_interpreter(self, kernel):
        sim_mem = fresh_memory()
        run_kernel(kernel, LAUNCH, sim_mem)
        ref_mem = interpret_kernel(kernel, LAUNCH, fresh_memory())
        assert np.allclose(sim_mem, ref_mem, equal_nan=True)


class TestSchemesPreserveSemantics:
    @relaxed
    @given(random_kernel(),
           st.sampled_from(["flame", "checkpointing",
                            "duplication_renaming", "hybrid_renaming"]))
    def test_compiled_equals_uncompiled(self, kernel, scheme):
        golden = fresh_memory()
        run_kernel(kernel, LAUNCH, golden)
        compiled = compile_kernel(kernel, scheme)
        mem = fresh_memory()
        params, mem = prepare_launch(compiled, LAUNCH.params, mem,
                                     LAUNCH.num_blocks,
                                     LAUNCH.threads_per_block)
        launch = LaunchConfig(grid=LAUNCH.grid, block=LAUNCH.block,
                              params=params)
        runtime = FlameRuntime(20) if compiled.scheme.uses_sensor_runtime \
            else None
        gpu = Gpu(GTX480, resilience=runtime) if runtime else Gpu(GTX480)
        gpu.launch(compiled.kernel, launch, mem,
                   regs_per_thread=compiled.regs_per_thread)
        assert np.allclose(mem[:MEM_WORDS], golden, equal_nan=True)


class TestRecoveryIsExact:
    @relaxed
    @given(random_kernel(), st.integers(0, 2**16))
    def test_injected_run_equals_golden(self, kernel, seed):
        compiled = compile_kernel(kernel, "flame")

        def launch_once(injector):
            gpu = Gpu(GTX480, resilience=FlameRuntime(20))
            gpu.fault_injector = injector
            mem = fresh_memory()
            gpu.launch(compiled.kernel, LAUNCH, mem,
                       regs_per_thread=compiled.regs_per_thread)
            return mem

        golden = launch_once(None)
        injector = FaultInjector(strike_cycles=[40, 90, 140], wcdl=20,
                                 seed=seed)
        faulty = launch_once(injector)
        assert np.allclose(faulty, golden, equal_nan=True)



class TestFastPathMatchesReference:
    """Differential oracle over generated programs: 4 schedulers x
    {baseline, flame}, planned fast path against the reference
    interpreter."""

    @staticmethod
    def _run(compiled, rscheme, scheduler: str, fast: bool):
        gpu = Gpu(GTX480, resilience=rscheme.build(wcdl=20),
                  scheduler=scheduler, fast=fast)
        params, mem = prepare_launch(compiled, LAUNCH.params, fresh_memory(),
                                     LAUNCH.num_blocks,
                                     LAUNCH.threads_per_block)
        launch = LaunchConfig(grid=LAUNCH.grid, block=LAUNCH.block,
                              params=params)
        result = gpu.launch(compiled.kernel, launch, mem,
                            regs_per_thread=compiled.regs_per_thread)
        return result.cycles, result.stats.as_dict(), mem.tobytes()

    @relaxed
    @given(random_kernel())
    def test_fast_equals_reference(self, kernel):
        for scheme in ("baseline", "flame"):
            rscheme = runtime_scheme_by_name(scheme)
            compiled = compile_kernel(kernel, rscheme.compile_scheme,
                                      wcdl=20)
            for scheduler in sorted(SCHEDULERS):
                fast = self._run(compiled, rscheme, scheduler, True)
                ref = self._run(compiled, rscheme, scheduler, False)
                where = f"{scheme} under {scheduler}"
                assert fast[0] == ref[0], f"cycles diverge: {where}"
                assert fast[1] == ref[1], f"stats diverge: {where}"
                assert fast[2] == ref[2], f"memory diverges: {where}"

def guarded_war_kernel():
    """A guarded register write under a guard computed in the same region.

    ``@p add keep, x, 1`` keeps ``keep``'s old value in false lanes.  A
    strike that corrupts ``y`` before ``p = setp.gt x, y2`` steers the
    write into lanes that must keep the old value; rollback re-executes
    with the right ``p`` and skips those lanes, so the corrupted ``keep``
    would survive unless the region is cut in front of the write.
    """
    b = KernelBuilder("guarded_war", num_params=1)
    b.params(1)
    tid = b.tid_x()
    gid = b.global_index()
    keep = b.mov(5.0)
    x = b.ld_global(b.and_(tid, 511.0))
    y = b.ld_global(b.and_(gid, 511.0))
    with b.loop(0, 1):
        b.add(y, 0.0, dst=y)
    y2 = b.mul(b.add(y, 0.0), 0.5)
    p = b.setp(CmpOp.GT, x, y2)
    b.add(x, 1.0, dst=keep, guard=p)
    for slot, reg in enumerate([tid, keep, x, y, y2]):
        addr = b.add(b.mov(float(OUT_BASE + 1024 + slot * 128)), gid)
        b.st_global(addr, reg)
    return b.build()


class TestGuardedWriteRecovery:
    """Single strikes that returned wrong memory before guarded writes
    under an in-region guard counted as register WARs (a sweep of 12
    seeds x every cycle of the run found 61 such strikes; these are
    some of them)."""

    @pytest.mark.parametrize("seed,cycle", [(1, 392), (1, 480), (6, 385),
                                            (9, 474), (11, 381)])
    def test_strike_before_guard_recovers(self, seed, cycle):
        compiled = compile_kernel(guarded_war_kernel(), "flame")

        def launch_once(injector):
            gpu = Gpu(GTX480, resilience=FlameRuntime(20))
            gpu.fault_injector = injector
            mem = fresh_memory()
            gpu.launch(compiled.kernel, LAUNCH, mem,
                       regs_per_thread=compiled.regs_per_thread)
            return mem

        golden = launch_once(None)
        faulty = launch_once(FaultInjector(strike_cycles=[cycle], wcdl=20,
                                           seed=seed))
        assert np.allclose(faulty, golden, equal_nan=True)

    def test_region_cut_before_guarded_write(self):
        instructions = compile_kernel(guarded_war_kernel(),
                                      "flame").kernel.instructions
        guarded = [i for i, inst in enumerate(instructions)
                   if inst.guard is not None and inst.op is Op.ADD]
        assert len(guarded) == 1
        assert instructions[guarded[0] - 1].op is Op.RB
