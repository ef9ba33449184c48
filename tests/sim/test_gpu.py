"""GPU top level: launch checking, occupancy, timing behaviour,
determinism, and agreement with the sequential reference interpreter."""

import numpy as np
import pytest

from repro.arch import GTX480
from repro.errors import LaunchError, SimError
from repro.isa import CmpOp, KernelBuilder
from repro.sim import Gpu, LaunchConfig, occupancy_blocks, run_kernel
from tests.conftest import interpret_kernel


class TestLaunchValidation:
    def test_param_count_checked(self, saxpy_kernel):
        with pytest.raises(LaunchError):
            run_kernel(saxpy_kernel,
                       LaunchConfig(grid=(1, 1), block=(32, 1),
                                    params=(1.0,)), np.zeros(64))

    def test_memory_dtype_checked(self, saxpy_kernel):
        with pytest.raises(LaunchError):
            run_kernel(saxpy_kernel,
                       LaunchConfig(grid=(1, 1), block=(32, 1),
                                    params=(8, 1.0, 0, 16)),
                       np.zeros(64, dtype=np.float32))

    def test_bad_geometry(self):
        with pytest.raises(LaunchError):
            LaunchConfig(grid=(0, 1), block=(32, 1))
        with pytest.raises(LaunchError):
            LaunchConfig(grid=(1, 1), block=(64, 32))  # > 1024 threads


class TestSpecials:
    def test_rows_follow_special_declaration_order(self):
        """``LaneContext.special_rows`` is positional: row ``i`` holds
        the ``i``-th ``Special`` member's lanes."""
        from repro.isa import Special

        launch = LaunchConfig(grid=(3, 2), block=(40, 2))
        rows = Gpu(GTX480)._specials((2, 1), launch, warp_in_block=1)
        linear = 32 + np.arange(32)
        expected = {
            Special.TID_X: linear % 40, Special.TID_Y: linear // 40,
            Special.NTID_X: 40, Special.NTID_Y: 2,
            Special.CTAID_X: 2, Special.CTAID_Y: 1,
            Special.NCTAID_X: 3, Special.NCTAID_Y: 2,
            Special.LANEID: np.arange(32), Special.WARPID: 1,
        }
        assert len(rows) == len(Special)
        for special, row in zip(Special, rows):
            assert np.array_equal(row, np.broadcast_to(
                np.asarray(expected[special], dtype=float), (32,))), special


class TestOccupancy:
    def _kernel(self, shared=0):
        b = KernelBuilder("k", num_params=0, shared_words=shared)
        b.st_global(b.tid_x(), 1.0)
        return b.build()

    def test_block_limit(self):
        launch = LaunchConfig(grid=(64, 1), block=(32, 1))
        blocks = occupancy_blocks(GTX480, self._kernel(), launch,
                                  regs_per_thread=8)
        assert blocks == GTX480.max_blocks_per_sm

    def test_warp_limit(self):
        launch = LaunchConfig(grid=(64, 1), block=(512, 1))  # 16 warps
        blocks = occupancy_blocks(GTX480, self._kernel(), launch, 8)
        assert blocks == GTX480.max_warps_per_sm // 16

    def test_register_limit(self):
        launch = LaunchConfig(grid=(64, 1), block=(256, 1))
        few = occupancy_blocks(GTX480, self._kernel(), launch, 8)
        many = occupancy_blocks(GTX480, self._kernel(), launch, 60)
        assert many < few

    def test_shared_limit(self):
        launch = LaunchConfig(grid=(64, 1), block=(32, 1))
        blocks = occupancy_blocks(GTX480, self._kernel(shared=8192),
                                  launch, 8)
        assert blocks == 1

    def test_unfittable_kernel_rejected(self):
        launch = LaunchConfig(grid=(1, 1), block=(1024, 1))
        with pytest.raises(LaunchError):
            occupancy_blocks(GTX480, self._kernel(), launch,
                             regs_per_thread=200)


class TestExecutionSemantics:
    def test_matches_reference_interpreter(self, saxpy_kernel):
        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        mem = np.zeros(512)
        mem[:200] = np.arange(200.0)
        mem[256:456] = 1.0
        sim_mem = mem.copy()
        run_kernel(saxpy_kernel, launch, sim_mem)
        ref_mem = interpret_kernel(saxpy_kernel, launch, mem)
        assert np.allclose(sim_mem, ref_mem)

    def test_loop_kernel_matches_reference(self, loop_kernel):
        launch = LaunchConfig(grid=(2, 1), block=(64, 1),
                              params=(100, 0, 128))
        mem = np.zeros(512)
        mem[:100] = np.arange(100) / 3.0
        mem[128:228] = 1.0
        sim_mem = mem.copy()
        run_kernel(loop_kernel, launch, sim_mem)
        ref_mem = interpret_kernel(loop_kernel, launch, mem)
        assert np.allclose(sim_mem, ref_mem)

    def test_partial_warp(self):
        b = KernelBuilder("k")
        b.st_global(b.tid_x(), 1.0)
        mem = np.zeros(64)
        run_kernel(b.build(), LaunchConfig(grid=(1, 1), block=(40, 1)), mem)
        assert mem[:40].sum() == 40
        assert mem[40:].sum() == 0

    def test_2d_blocks(self):
        b = KernelBuilder("k", num_params=1)
        w = b.params(1)[0]
        x = b.global_index()
        y = b.global_index_y()
        b.st_global(b.add(b.mul(y, w), x), 1.0)
        mem = np.zeros(512)
        run_kernel(b.build(), LaunchConfig(grid=(2, 2), block=(8, 4),
                                           params=(16,)), mem)
        assert mem[:16 * 8].sum() == 16 * 8


class TestCycleBudget:
    def test_exhausted_budget_raises_sim_timeout(self, saxpy_kernel):
        from repro.errors import SimTimeout

        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        with pytest.raises(SimTimeout) as info:
            run_kernel(saxpy_kernel, launch, np.zeros(512), max_cycles=3)
        assert info.value.cycles > 3
        assert isinstance(info.value, SimError)  # stays catchable as before

    def test_sufficient_budget_is_inert(self, saxpy_kernel):
        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        free = run_kernel(saxpy_kernel, launch, np.zeros(512))
        budgeted = run_kernel(saxpy_kernel, launch, np.zeros(512),
                              max_cycles=free.cycles + 10)
        assert budgeted.cycles == free.cycles

    def test_invalid_budget_rejected(self, saxpy_kernel):
        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        with pytest.raises(LaunchError):
            run_kernel(saxpy_kernel, launch, np.zeros(512), max_cycles=0)


class TestTimingBehaviour:
    def test_deterministic(self, saxpy_kernel):
        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        cycles = []
        for _ in range(2):
            mem = np.zeros(512)
            cycles.append(run_kernel(saxpy_kernel, launch, mem).cycles)
        assert cycles[0] == cycles[1]

    def test_more_work_takes_longer(self, saxpy_kernel):
        short = LaunchConfig(grid=(2, 1), block=(64, 1),
                             params=(100, 1.0, 0, 128))
        long = LaunchConfig(grid=(16, 1), block=(64, 1),
                            params=(1000, 1.0, 0, 1024))
        c_short = run_kernel(saxpy_kernel, short, np.zeros(4096)).cycles
        c_long = run_kernel(saxpy_kernel, long, np.zeros(4096)).cycles
        assert c_long > c_short

    def test_cache_hits_speed_up_reuse(self):
        """Re-reading the same line repeatedly must beat streaming."""
        def make(streaming):
            b = KernelBuilder("k", num_params=0)
            i = b.global_index()
            acc = b.mov(0.0)
            with b.loop(0, 8) as t:
                if streaming:
                    # fresh lines every iteration and thread
                    addr = b.and_(b.mad(t, 997.0, b.mul(i, 53.0)), 4095.0)
                else:
                    addr = b.and_(i, 31.0)  # one hot line per warp
                v = b.ld_global(addr)
                acc = b.add(acc, v, dst=acc)
            b.st_global(b.add(i, 4096.0), acc)
            return b.build()

        launch = LaunchConfig(grid=(4, 1), block=(64, 1))
        hot = run_kernel(make(False), launch, np.zeros(8192))
        cold = run_kernel(make(True), launch, np.zeros(8192))
        assert hot.stats.l1_misses < cold.stats.l1_misses
        assert hot.cycles < cold.cycles

    def test_bank_conflicts_detected(self):
        def make(conflict):
            b = KernelBuilder("k", num_params=0, shared_words=1024)
            tid = b.tid_x()
            addr = b.mul(tid, 32.0) if conflict else b.mov(tid)
            b.st_shared(addr, tid)
            v = b.ld_shared(addr)
            b.st_global(tid, v)
            return b.build()

        launch = LaunchConfig(grid=(1, 1), block=(32, 1))
        good = run_kernel(make(False), launch, np.zeros(64))
        bad = run_kernel(make(True), launch, np.zeros(64))
        assert good.stats.shared_bank_conflicts == 0
        assert bad.stats.shared_bank_conflicts > 0
        assert bad.cycles > good.cycles

    def test_coalescing_reduces_transactions(self):
        def make(stride):
            b = KernelBuilder("k", num_params=0)
            i = b.global_index()
            v = b.ld_global(b.mul(i, float(stride)))
            b.st_global(b.add(i, 8192.0), v)
            return b.build()

        launch = LaunchConfig(grid=(1, 1), block=(32, 1))
        dense = run_kernel(make(1), launch, np.zeros(16384))
        sparse = run_kernel(make(33), launch, np.zeros(16384))
        assert dense.stats.global_transactions < \
            sparse.stats.global_transactions

    def test_stats_sanity(self, saxpy_kernel):
        launch = LaunchConfig(grid=(2, 1), block=(64, 1),
                              params=(100, 1.0, 0, 128))
        result = run_kernel(saxpy_kernel, launch, np.zeros(512))
        stats = result.stats
        assert stats.instructions > 0
        assert stats.cycles == result.cycles
        assert 0 < stats.ipc
        assert stats.blocks_launched == 2
        assert stats.warps_launched == 4


class TestBarriers:
    def test_barrier_orders_shared_accesses(self, barrier_kernel):
        launch = LaunchConfig(grid=(3, 1), block=(64, 1), params=(0, 192))
        mem = np.zeros(512)
        mem[:192] = np.arange(192.0)
        run_kernel(barrier_kernel, launch, mem)
        for blk in range(3):
            seg = mem[192 + blk * 64:192 + (blk + 1) * 64]
            assert np.array_equal(seg, np.arange(blk * 64,
                                                 (blk + 1) * 64)[::-1])

    def test_barrier_counter_monotonic(self, barrier_kernel):
        launch = LaunchConfig(grid=(1, 1), block=(64, 1), params=(0, 64))
        gpu = Gpu()
        mem = np.zeros(256)
        mem[:64] = 1.0
        gpu.launch(barrier_kernel, launch, mem)
        # all warps saw exactly one barrier
        # (warps are gone after retirement; the run completing at all is
        # the real assertion — a counter bug deadlocks and raises)
