"""SIMT divergence stack, scoreboard, and recovery snapshots."""

import numpy as np
import pytest

from repro.arch import GTX480
from repro.isa import (CmpOp, Imm, Instruction, KernelBuilder, Op, Reg,
                       scoreboard_key)
from repro.sim import (LaunchConfig, StackEntry, Warp, WarpSnapshot,
                       WarpState, run_kernel)
from repro.sim.plan import PlannedInst
from tests.oracle.sm import deps_ready, earliest_dep_cycle, mark_pending


def make_warp(kernel, block_threads=32):
    from repro.isa import Special

    class FakeBlock:
        num_threads = block_threads
        first_warp_id = 0

    specials = [np.arange(32, dtype=float) for _ in Special]
    return Warp(0, FakeBlock(), kernel, num_regs=max(kernel.num_regs, 4),
                warp_size=32, specials=specials,
                params=np.zeros(4), age=0)


def diverging_kernel():
    b = KernelBuilder("d")
    tid = b.tid_x()
    p = b.setp(CmpOp.LT, tid, 16)
    x = b.mov(0.0)
    with b.if_(p):
        b.mov(1.0, dst=x)
    b.st_global(tid, x)
    return b.build()


class TestScoreboard:
    """The oracle's scoreboard rules, which the planned readiness check
    (``Sm._issuable`` over ``PlannedInst.score_ops``) is held to."""

    def test_pending_blocks_dependents(self):
        kernel = diverging_kernel()
        warp = make_warp(kernel)
        inst = Instruction(op=Op.ADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))
        mark_pending(warp, Reg(0), ready_cycle=10)
        assert not deps_ready(warp, inst, cycle=5)
        assert deps_ready(warp, inst, cycle=10)

    def test_waw_blocks(self):
        kernel = diverging_kernel()
        warp = make_warp(kernel)
        inst = Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(1),))
        mark_pending(warp, Reg(0), ready_cycle=8)
        assert not deps_ready(warp, inst, cycle=4)

    def test_retire_pending_drops_ready(self):
        warp = make_warp(diverging_kernel())
        warp.pending[scoreboard_key(Reg(0))] = 5
        warp.pending[scoreboard_key(Reg(1))] = 15
        warp.retire_pending(10)
        assert warp.pending == {scoreboard_key(Reg(1)): 15}

    def test_earliest_dep_cycle(self):
        warp = make_warp(diverging_kernel())
        mark_pending(warp, Reg(0), 7)
        mark_pending(warp, Reg(1), 12)
        inst = Instruction(op=Op.ADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))
        assert earliest_dep_cycle(warp, inst) == 12


class TestPartialWarps:
    def test_trailing_lanes_masked(self):
        warp = make_warp(diverging_kernel(), block_threads=20)
        assert warp.active_mask.sum() == 20

    def test_finished_when_all_real_lanes_exit(self):
        kernel = diverging_kernel()
        warp = make_warp(kernel, block_threads=20)
        warp.exit_lanes(PlannedInst(0, Instruction(op=Op.EXIT), kernel,
                                    GTX480, {}))
        assert warp.finished


class TestSnapshots:
    def test_capture_restore_roundtrip(self):
        warp = make_warp(diverging_kernel())
        warp.pc = 3
        warp.barrier_count = 2
        snap = WarpSnapshot.capture(warp)
        warp.pc = 7
        warp.barrier_count = 5
        warp.exited[:] = True
        snap.restore(warp)
        assert warp.pc == 3
        assert warp.barrier_count == 2
        assert not warp.exited.any()

    def test_snapshot_isolated_from_later_mutation(self):
        warp = make_warp(diverging_kernel())
        snap = WarpSnapshot.capture(warp)
        warp.stack[-1].mask[:] = False
        assert snap.stack[-1].mask.all()


class TestDivergenceEndToEnd:
    """Divergence reconvergence checked through full simulation."""

    def test_both_paths_execute_exactly_once(self):
        mem = np.zeros(64)
        run_kernel(diverging_kernel(),
                   LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert (mem[:16] == 1).all()
        assert (mem[16:32] == 0).all()

    def test_nested_divergence(self):
        b = KernelBuilder("n")
        tid = b.tid_x()
        x = b.mov(0.0)
        outer = b.setp(CmpOp.LT, tid, 16)
        with b.if_(outer):
            inner = b.setp(CmpOp.LT, tid, 8)
            with b.if_(inner):
                b.mov(2.0, dst=x)
            with b.if_(inner, sense=False):
                b.mov(1.0, dst=x)
        b.st_global(tid, x)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert (mem[:8] == 2).all()
        assert (mem[8:16] == 1).all()
        assert (mem[16:32] == 0).all()

    def test_divergent_loop_trip_counts(self):
        """Each lane loops tid times; lanes reconverge at loop exit."""
        b = KernelBuilder("vl")
        tid = b.tid_x()
        count = b.mov(0.0)
        i = b.reg()
        with b.loop(0, tid, counter=i):
            b.add(count, 1.0, dst=count)
        b.st_global(tid, count)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert np.array_equal(mem[:32], np.arange(32.0))

    def test_guarded_early_exit(self):
        b = KernelBuilder("e")
        tid = b.tid_x()
        p = b.setp(CmpOp.GE, tid, 16)
        b.exit(guard=p)
        b.st_global(tid, 1.0)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert (mem[:16] == 1).all()
        assert (mem[16:32] == 0).all()

    def test_divergent_branch_to_shared_reconvergence(self):
        """if/else via explicit branches."""
        b = KernelBuilder("ie")
        tid = b.tid_x()
        p = b.setp(CmpOp.LT, tid, 10)
        x = b.reg()
        b.bra("ELSE", guard=p, guard_sense=False)
        b.mov(5.0, dst=x)
        b.bra("JOIN")
        b.label("ELSE")
        b.mov(9.0, dst=x)
        b.label("JOIN")
        b.st_global(tid, x)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert (mem[:10] == 5).all()
        assert (mem[10:32] == 9).all()

    def test_stack_never_leaks(self):
        """After a heavily divergent kernel, warps retire cleanly (the
        run completing is the assertion; leaks deadlock or overflow)."""
        b = KernelBuilder("z")
        tid = b.tid_x()
        x = b.mov(0.0)
        for bit in range(4):
            p = b.setp(CmpOp.EQ, b.and_(b.shr(tid, bit), 1), 1)
            with b.if_(p):
                b.add(x, float(2 ** bit), dst=x)
        b.st_global(tid, x)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(32, 1)), mem)
        assert np.array_equal(mem[:32], np.arange(32.0) % 16)
