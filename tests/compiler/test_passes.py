"""Checkpointing, duplication, tail-DMR, renaming, and compaction passes."""

import numpy as np
import pytest

from repro.compiler import (apply_tail_dmr, duplicate_instructions,
                            form_regions, insert_checkpoints,
                            RegWarPolicy, scan_kernel, tail_indices,
                            try_rename)
from repro.compiler.compaction import compact_fresh_registers
from repro.isa import Cfg, CmpOp, KernelBuilder, Op, Reg, parse_kernel
from repro.sim import LaunchConfig, run_kernel


def streaming_kernel():
    b = KernelBuilder("stream", num_params=3)
    n, inp, outp = b.params(3)
    i = b.global_index()
    guard = b.setp(CmpOp.LT, i, n)
    with b.if_(guard):
        x = b.ld_global(b.add(inp, i))
        y = b.mul(x, 3.0)
        with b.loop(0, 3):
            y = b.add(y, 1.0, dst=y)
        b.st_global(b.add(outp, i), y)
    return b.build()


def run_pair(k0, k1, launch, mem_size=512, extra_params=()):
    m0 = np.zeros(mem_size)
    m0[:64] = np.arange(64.0)
    m1 = m0.copy()
    run_kernel(k0, launch, m0)
    launch2 = LaunchConfig(grid=launch.grid, block=launch.block,
                           params=launch.params + extra_params)
    run_kernel(k1, launch2, m1, regs_per_thread=None)
    return m0, m1


class TestCheckpointing:
    def _formed(self):
        kernel = streaming_kernel()
        return form_regions(kernel, policy=RegWarPolicy.KEEP)

    def test_inserts_stores_before_boundaries(self):
        formed = self._formed()
        war_regs = {var for _, var in formed.residual_reg_wars}
        ck = insert_checkpoints(formed.kernel, war_regs, prune=True)
        insts = ck.kernel.instructions
        for i, inst in enumerate(insts):
            if inst.ckpt:
                after = next(x for x in insts[i + 1:] if not x.ckpt)
                assert after.op is Op.RB

    def test_pruning_reduces_stores(self):
        formed = self._formed()
        war_regs = {var for _, var in formed.residual_reg_wars}
        pruned = insert_checkpoints(formed.kernel, war_regs, prune=True)
        full = insert_checkpoints(formed.kernel, war_regs, prune=False)
        assert pruned.checkpoint_stores <= full.checkpoint_stores

    def test_adds_one_parameter(self):
        formed = self._formed()
        ck = insert_checkpoints(formed.kernel, set())
        assert ck.kernel.num_params == formed.kernel.num_params + 1
        assert ck.ckpt_param_index == formed.kernel.num_params

    def test_storage_sizing(self):
        formed = self._formed()
        war_regs = {var for _, var in formed.residual_reg_wars}
        ck = insert_checkpoints(formed.kernel, war_regs, prune=False)
        assert ck.storage_words(total_warps=4) == 4 * ck.num_slots * 32

    def test_semantics_preserved(self):
        kernel = streaming_kernel()
        formed = form_regions(kernel, policy=RegWarPolicy.KEEP)
        war_regs = {var for _, var in formed.residual_reg_wars}
        ck = insert_checkpoints(formed.kernel, war_regs, prune=False)
        launch = LaunchConfig(grid=(2, 1), block=(32, 1),
                              params=(64, 0, 64))
        ckpt_base = 300.0
        m0, m1 = run_pair(kernel, ck.kernel, launch, mem_size=4096,
                          extra_params=(ckpt_base,))
        # Outputs agree; only the checkpoint area may differ.
        assert np.allclose(m0[:300], m1[:300])


class TestDuplication:
    def test_all_duplicable_replicated(self):
        kernel = streaming_kernel()
        dup = duplicate_instructions(kernel)
        originals = sum(1 for inst in kernel.instructions
                        if inst.info.duplicable)
        assert dup.duplicated == originals
        shadows = sum(1 for inst in dup.kernel.instructions if inst.shadow)
        assert shadows == originals

    def test_replica_follows_original(self):
        dup = duplicate_instructions(streaming_kernel())
        insts = dup.kernel.instructions
        for i, inst in enumerate(insts):
            if inst.shadow:
                assert insts[i - 1].op == inst.op
                assert not insts[i - 1].shadow

    def test_shadows_never_write_original_regs(self):
        kernel = streaming_kernel()
        base = kernel.num_regs
        dup = duplicate_instructions(kernel)
        for inst in dup.kernel.instructions:
            if inst.shadow and isinstance(inst.dst, Reg):
                assert inst.dst.index >= base

    def test_memory_not_duplicated(self):
        dup = duplicate_instructions(streaming_kernel())
        for inst in dup.kernel.instructions:
            if inst.shadow:
                assert not (inst.info.is_load or inst.info.is_store)

    def test_semantics_preserved(self):
        kernel = streaming_kernel()
        dup = duplicate_instructions(kernel)
        launch = LaunchConfig(grid=(2, 1), block=(32, 1), params=(64, 0, 64))
        m0, m1 = run_pair(kernel, dup.kernel, launch)
        assert np.allclose(m0, m1)

    def test_noop_when_filter_rejects_all(self):
        dup = duplicate_instructions(streaming_kernel(),
                                     should_duplicate=lambda i, inst: False)
        assert dup.duplicated == 0


class TestTailDmr:
    def test_tail_marks_before_boundaries(self):
        formed = form_regions(streaming_kernel())
        marked = tail_indices(formed.kernel, wcdl=4)
        assert marked
        insts = formed.kernel.instructions
        for i in marked:
            assert insts[i].info.duplicable

    def test_budget_limits_marking(self):
        formed = form_regions(streaming_kernel())
        small = tail_indices(formed.kernel, wcdl=1)
        large = tail_indices(formed.kernel, wcdl=50)
        assert len(small) <= len(large)

    def test_fewer_duplicates_than_full_dmr(self):
        formed = form_regions(streaming_kernel())
        tail = apply_tail_dmr(formed.kernel, wcdl=2)
        full = duplicate_instructions(formed.kernel)
        assert 0 < tail.duplicated < full.duplicated

    def test_semantics_preserved(self):
        formed = form_regions(streaming_kernel())
        tail = apply_tail_dmr(formed.kernel, wcdl=6)
        launch = LaunchConfig(grid=(2, 1), block=(32, 1), params=(64, 0, 64))
        m0, m1 = run_pair(formed.kernel, tail.kernel, launch)
        assert np.allclose(m0, m1)


class TestRenaming:
    def test_guarded_def_not_renamed(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.lt p0, r1, 1
    mov r1, 5
    @p0 mov r1, 7
    st.global [r0], r1
    exit
""")
        cfg = Cfg(kernel)
        assert try_rename(kernel, cfg, 3, Reg(1)) is None

    def test_merge_blocks_renaming(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.lt p0, r1, 1
    @p0 bra A
    mov r1, 5
    bra J
A:
    mov r1, 7
J:
    st.global [r0], r1
    exit
""")
        cfg = Cfg(kernel)
        # Either def's uses merge with the other def at J.
        assert try_rename(kernel, cfg, 3, Reg(1)) is None
        assert try_rename(kernel, cfg, 5, Reg(1)) is None


class TestCompaction:
    @staticmethod
    def accumulator_kernel():
        b = KernelBuilder("acc", num_params=2)
        inp, outp = b.params(2)
        i = b.global_index()
        # Force a boundary before the chain via an in-place update.
        x = b.ld_global(b.add(inp, i))
        b.st_global(b.add(inp, i), b.add(x, 1.0))
        acc = b.mov(0.0)
        for k in range(8):
            acc = b.add(acc, float(k), dst=acc)
        b.st_global(b.add(outp, i), acc)
        from repro.compiler import allocate_registers

        return allocate_registers(b.build())

    def test_accumulator_chain_shares_one_register(self):
        """An unrolled accumulator chain renamed by region formation must
        compact to O(1) fresh registers (WARAW reuse)."""
        allocated = self.accumulator_kernel()
        formed = form_regions(allocated.kernel)
        assert scan_kernel(formed.kernel).clean
        # Compaction keeps the register growth small.
        assert formed.kernel.num_regs <= allocated.num_regs + 3

    def test_merges_validated_with_formation_provenance(self, monkeypatch):
        """A provenance-blind formation stays blind through compaction.

        No kernel has a merge that only provenance proves safe: a
        merge renames a register that is dead wherever the other lives,
        so it never makes two accesses' base versions differ that were
        equal, and without provenance only equal versions disambiguate.
        The test therefore checks the setting the merges are scanned
        with."""
        from repro.compiler.antidep import SegmentTable

        scan = SegmentTable.scan
        settings = []

        def spy(table, kernel, cfg):
            settings.append(table.use_provenance)
            return scan(table, kernel, cfg)

        monkeypatch.setattr(SegmentTable, "scan", spy)
        allocated = self.accumulator_kernel()
        formed = form_regions(allocated.kernel, use_provenance=False)
        assert formed.renames >= 2
        assert formed.kernel.num_regs <= allocated.num_regs + 3
        assert settings and not any(settings)

    def test_compaction_noop_when_no_fresh(self):
        kernel = streaming_kernel()
        out = compact_fresh_registers(kernel, kernel.num_regs)
        assert out.instructions == kernel.instructions
