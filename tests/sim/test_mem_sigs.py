"""Strided memory access patterns: the planned path's coalescing and
bank-degree shortcuts (``sm._coalesce_segments``, ``sm._bank_degree``)
must time every lane pattern exactly as the oracle's ``np.unique``-based
model does."""

import numpy as np
from hypothesis import given, strategies as st

from repro.isa import CmpOp, KernelBuilder
from repro.sim import LaunchConfig
from repro.sim.sm import _bank_degree, _coalesce_segments
from tests.oracle import assert_matches_oracle, bank_conflict_degree


@st.composite
def lane_addresses(draw):
    """The active lanes' addresses of one warp access: 1-32 lanes as a
    broadcast, a +1 or -1 unit-stride sweep, a masked subset of a sweep,
    or an unsorted draw over a small or wide range (duplicates likely in
    the small one)."""
    n = draw(st.integers(1, 32))
    base = draw(st.integers(0, 4096))
    kind = draw(st.sampled_from(
        ["broadcast", "ascending", "descending", "masked", "random"]))
    if kind == "broadcast":
        lanes = [base] * n
    elif kind == "ascending":
        lanes = list(range(base, base + n))
    elif kind == "descending":
        lanes = list(range(base + n - 1, base - 1, -1))
    elif kind == "masked":
        keep = draw(st.lists(st.booleans(), min_size=32, max_size=32)
                    .filter(any))
        lanes = [base + lane for lane in range(32) if keep[lane]]
    else:
        span = draw(st.sampled_from([4, 64, 4096]))
        lanes = draw(st.lists(st.integers(base, base + span),
                              min_size=n, max_size=n))
    return np.array(lanes, dtype=np.int64)


class TestHelpersMatchNumpy:
    """The planned path's Python-int helpers against the NumPy
    expressions the oracle times with."""

    @given(lane_addresses(), st.integers(1, 64))
    def test_coalesce_segments_is_unique_of_lines(self, addrs, line_words):
        segments = _coalesce_segments(addrs, line_words)
        assert segments == np.unique(addrs // line_words).tolist()
        assert all(type(segment) is int for segment in segments)

    @given(lane_addresses())
    def test_bank_degree_matches_reference(self, addrs):
        degree = _bank_degree(addrs)
        assert degree == bank_conflict_degree(addrs)
        assert type(degree) is int


class TestClosedFormTiming:
    """Planned vs oracle timing on strided sweeps: same cycles, stats
    (memory transactions and bank conflicts among them) and bytes."""

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
            assert_matches_oracle(kernel, launch, np.zeros(8192))

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
            assert_matches_oracle(kernel, launch, np.zeros(256))

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
        assert_matches_oracle(kernel, launch, np.zeros(256))
