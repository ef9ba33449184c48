"""Strided memory access patterns: the fast path's coalescing and
bank-degree shortcuts (``sm._coalesce_segments``, ``sm._bank_degree``)
must time every lane pattern exactly as the reference interpreter's
``np.unique``-based model does."""

import numpy as np

from repro.isa import CmpOp, KernelBuilder
from repro.sim import LaunchConfig, run_kernel


class TestClosedFormTiming:
    """Fast vs reference timing on strided sweeps: same cycles, memory
    transactions, bank conflicts and bytes."""

    def _identical(self, kernel, launch, mem):
        fast, ref = mem.copy(), mem.copy()
        a = run_kernel(kernel, launch, fast, fast=True)
        b = run_kernel(kernel, launch, ref, fast=False)
        assert a.cycles == b.cycles
        assert a.stats.global_transactions == b.stats.global_transactions
        assert a.stats.shared_bank_conflicts == b.stats.shared_bank_conflicts
        assert fast.tobytes() == ref.tobytes()

    def test_strided_sweep_matrix(self):
        # Contiguous (±1), full-warp line-stride sweeps (±32, 64) and
        # small strides that share lines (2, 8).
        for stride in (1, -1, 32, 64, -32, 2, 8):
            b = KernelBuilder(f"sweep_{stride}", num_params=1)
            (ptr,) = b.params(1)
            i = b.tid_x()
            addr = b.mad(i, float(stride), ptr)
            b.st_global(addr, i)
            b.ld_global(addr)
            kernel = b.build()
            launch = LaunchConfig(grid=(1, 1), block=(64, 1),
                                  params=(2048.0,))
            self._identical(kernel, launch, np.zeros(8192))

    def test_shared_bank_degrees(self):
        for stride in (1, 2, 4, 8, 16, 32):
            b = KernelBuilder(f"bank_{stride}", num_params=0,
                              shared_words=2048)
            i = b.tid_x()
            addr = b.mul(i, float(stride))
            b.st_shared(addr, i)
            b.ld_shared(addr)
            b.st_global(i, 0.0)
            kernel = b.build()
            launch = LaunchConfig(grid=(1, 1), block=(64, 1), params=())
            self._identical(kernel, launch, np.zeros(256))

    def test_guard_masked_subset_falls_back(self):
        # A masked access is a non-contiguous lane subset of a
        # unit-stride sweep: the contiguity shortcut must not apply.
        b = KernelBuilder("subset", num_params=1)
        (ptr,) = b.params(1)
        i = b.tid_x()
        odd = b.setp(CmpOp.GE, b.rem(i, 2.0), 1.0)
        b.st_global(b.add(ptr, i), 1.0, guard=odd)
        kernel = b.build()
        launch = LaunchConfig(grid=(1, 1), block=(64, 1), params=(64.0,))
        self._identical(kernel, launch, np.zeros(256))
