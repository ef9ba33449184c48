"""Decode-once execution plans: caching, invalidation, and agreement
with the decode-per-issue oracle on targeted micro-kernels."""

import numpy as np
import pytest

from repro.arch import GTX480
from repro.core import FaultInjector
from repro.core.schemes import launcher
from repro.errors import IsaError
from repro.isa import (AtomOp, CmpOp, Imm, Instruction, Kernel,
                       KernelBuilder, Op, Reg, reconvergence_table_for,
                       scoreboard_key)
from repro.sim import Gpu, LaunchConfig
from repro.sim.plan import (K_BAR, K_BRA, K_EXIT, K_VALUE, PLAN_CACHE_SIZE,
                            _imm_vector, get_plan)
from tests.oracle import assert_matches_oracle, execute, oracle_gpu


class TestPlanCaching:
    def test_plan_cached_per_config(self, saxpy_kernel):
        first = get_plan(saxpy_kernel, GTX480)
        again = get_plan(saxpy_kernel, GTX480)
        assert first is again

    def test_mutating_instructions_invalidates(self, saxpy_kernel):
        stale = get_plan(saxpy_kernel, GTX480)
        saxpy_kernel.instructions[0] = Instruction(
            op=saxpy_kernel.instructions[0].op,
            dst=saxpy_kernel.instructions[0].dst,
            srcs=saxpy_kernel.instructions[0].srcs,
            space=saxpy_kernel.instructions[0].space)
        fresh = get_plan(saxpy_kernel, GTX480)
        assert fresh is not stale
        assert get_plan(saxpy_kernel, GTX480) is fresh

    def test_launch_installs_plan(self, saxpy_kernel):
        launch = LaunchConfig(grid=(1, 1), block=(32, 1),
                              params=(16, 2.0, 0, 32))
        gpu = Gpu(GTX480)
        gpu.launch(saxpy_kernel, launch, np.zeros(128))
        plan = get_plan(saxpy_kernel, GTX480)
        assert all(sm.plan is plan for sm in gpu.sms)

    def test_relaunches_validate_once(self, monkeypatch):
        """A campaign cell compiles once and launches many times (its
        golden run, then one struck launch per trial): the kernel is
        validated when the first launch builds its plan, not per
        launch."""
        _, compiled, launch = launcher("Triad", "flame", "tiny")
        validated = []
        original = Kernel.validate

        def counting(kernel):
            if kernel is compiled.kernel:
                validated.append(kernel)
            original(kernel)

        monkeypatch.setattr(Kernel, "validate", counting)
        launch()
        for seed in range(4):
            launch(FaultInjector(strike_cycles=[100], seed=seed))
        assert len(validated) == 1

    @pytest.mark.parametrize("break_kernel", [
        lambda k: k.instructions.__setitem__(
            0, Instruction(op=Op.EXIT, dst=Reg(0))),
        lambda k: k.labels.__setitem__(next(iter(k.labels)),
                                       len(k.instructions) + 5),
    ], ids=["instruction", "label"])
    def test_kernel_broken_in_place_raises_on_relaunch(self, loop_kernel,
                                                       break_kernel):
        """An in-place edit rebuilds the plan, so a broken kernel raises
        the error ``Kernel.validate`` gives, on every launch after."""
        launch = LaunchConfig(grid=(1, 1), block=(32, 1),
                              params=(16, 0, 32))
        Gpu(GTX480).launch(loop_kernel, launch, np.zeros(128))
        break_kernel(loop_kernel)
        with pytest.raises(IsaError) as direct:
            loop_kernel.validate()
        for _ in range(2):
            with pytest.raises(IsaError) as launched:
                Gpu(GTX480).launch(loop_kernel, launch, np.zeros(128))
            assert str(launched.value) == str(direct.value)

    def test_kind_classification(self, barrier_kernel):
        plan = get_plan(barrier_kernel, GTX480)
        kinds = {rec.inst.op: rec.kind for rec in plan.records}
        assert kinds[Op.BAR] == K_BAR
        assert kinds[Op.EXIT] == K_EXIT
        assert all(rec.kind == K_VALUE for rec in plan.records
                   if rec.inst.op not in (Op.BAR, Op.EXIT, Op.BRA))

    def test_branch_records_bake_targets(self, loop_kernel):
        plan = get_plan(loop_kernel, GTX480)
        reconv = reconvergence_table_for(loop_kernel)
        for index, rec in enumerate(plan.records):
            if rec.kind != K_BRA:
                continue
            assert rec.target == loop_kernel.target_of(rec.inst)
            expected = reconv.get(index, len(loop_kernel.instructions))
            assert rec.reconv_pc == expected

    def test_score_ops_match_scoreboard_surface(self, saxpy_kernel):
        plan = get_plan(saxpy_kernel, GTX480)
        for rec in plan.records:
            inst = rec.inst
            operands = inst.read_regs() + inst.read_preds() + (
                (inst.dst,) if inst.dst is not None else ())
            assert rec.score_ops == tuple(scoreboard_key(op)
                                          for op in operands)
            assert rec.dst_key == (None if inst.dst is None
                                   else scoreboard_key(inst.dst))


class TestPlanCacheEviction:
    @staticmethod
    def _configs(count):
        """``count`` distinct (frozen, hashable) GpuConfigs."""
        return [GTX480.scaled(alu_latency=GTX480.alu_latency + i)
                for i in range(count)]

    def test_cache_bounded_lru(self, saxpy_kernel):
        configs = self._configs(PLAN_CACHE_SIZE + 3)
        for config in configs:
            get_plan(saxpy_kernel, config)
        cache = saxpy_kernel.__dict__["_exec_plans"]
        assert len(cache) == PLAN_CACHE_SIZE
        # Oldest entries fell out, newest survive in insertion order.
        assert list(cache) == configs[3:]

    def test_hit_refreshes_recency(self, saxpy_kernel):
        configs = self._configs(PLAN_CACHE_SIZE)
        plans = [get_plan(saxpy_kernel, c) for c in configs]
        # Touch the oldest entry, then insert one more: the *second*
        # oldest is evicted, the refreshed entry survives.
        assert get_plan(saxpy_kernel, configs[0]) is plans[0]
        extra = GTX480.scaled(mul_latency=GTX480.mul_latency + 1)
        get_plan(saxpy_kernel, extra)
        cache = saxpy_kernel.__dict__["_exec_plans"]
        assert configs[0] in cache
        assert configs[1] not in cache
        assert extra in cache

    def test_evicted_config_rebuilds(self, saxpy_kernel):
        configs = self._configs(PLAN_CACHE_SIZE + 1)
        first = get_plan(saxpy_kernel, configs[0])
        for config in configs[1:]:
            get_plan(saxpy_kernel, config)
        assert configs[0] not in saxpy_kernel.__dict__["_exec_plans"]
        rebuilt = get_plan(saxpy_kernel, configs[0])
        assert rebuilt is not first  # fresh plan, not a resurrected one
        assert rebuilt.matches(saxpy_kernel)


class TestReconvMemo:
    def test_memoized_on_kernel(self, loop_kernel):
        first = reconvergence_table_for(loop_kernel)
        assert reconvergence_table_for(loop_kernel) is first

    def test_instruction_swap_invalidates(self, loop_kernel):
        stale = reconvergence_table_for(loop_kernel)
        old = loop_kernel.instructions[0]
        loop_kernel.instructions[0] = Instruction(
            op=old.op, dst=old.dst, srcs=old.srcs, space=old.space)
        fresh = reconvergence_table_for(loop_kernel)
        assert fresh is not stale
        assert fresh == stale  # same content, recomputed


class TestImmVectors:
    def test_shared_and_frozen(self):
        one = _imm_vector(32, 2.5)
        two = _imm_vector(32, 2.5)
        assert one is two
        assert not one.flags.writeable
        with pytest.raises(ValueError):
            one[0] = 0.0

    def test_distinct_per_value_and_width(self):
        assert _imm_vector(32, 1.0) is not _imm_vector(32, 2.0)
        assert _imm_vector(16, 1.0) is not _imm_vector(32, 1.0)
        assert _imm_vector(16, 1.0).shape == (16,)


class TestMicroKernelEquivalence:
    def test_saxpy(self, saxpy_kernel):
        launch = LaunchConfig(grid=(4, 1), block=(64, 1),
                              params=(200, 2.5, 0, 256))
        mem = np.zeros(512)
        mem[:200] = np.arange(200.0)
        mem[256:456] = 1.0
        assert_matches_oracle(saxpy_kernel, launch, mem)

    def test_divergent_loop(self, loop_kernel):
        launch = LaunchConfig(grid=(2, 1), block=(48, 1),
                              params=(70, 0, 128))
        mem = np.zeros(256)
        mem[:70] = np.arange(70.0) - 30.0
        assert_matches_oracle(loop_kernel, launch, mem)

    def test_barrier_and_shared(self, barrier_kernel):
        launch = LaunchConfig(grid=(2, 1), block=(64, 1), params=(0, 128))
        mem = np.zeros(256)
        mem[:128] = np.arange(128.0)
        assert_matches_oracle(barrier_kernel, launch, mem)

    def test_atomics_with_conflicts(self):
        b = KernelBuilder("atom", num_params=1, shared_words=4)
        (out,) = b.params(1)
        i = b.global_index()
        slot = b.rem(i, 4.0)
        b.atom_global(AtomOp.ADD, b.add(out, slot), 1.0)
        b.atom_global(AtomOp.MAX, out, i)
        b.atom_global(AtomOp.MIN, b.add(out, 4.0), b.sub(i, 50.0))
        swapped = b.atom_global(AtomOp.EXCH, b.add(out, 5.0), i)
        # The old values a conflicting atomic returns depend on lane
        # order; fold them into global memory so both paths compare them.
        b.atom_global(AtomOp.ADD, b.add(out, 6.0), swapped)
        old_min = b.atom_shared(AtomOp.MIN, slot, b.sub(i, 50.0))
        b.atom_global(AtomOp.ADD, b.add(out, 7.0), old_min)
        kernel = b.build()
        launch = LaunchConfig(grid=(2, 1), block=(64, 1), params=(0,))
        assert_matches_oracle(kernel, launch, np.zeros(16))

    def test_predicate_aliasing_guard(self):
        # A guarded SETP writing its own guard predicate: the plan
        # must recompute the post-execution mask (guard_recheck).
        b = KernelBuilder("alias", num_params=1)
        (out,) = b.params(1)
        i = b.tid_x()
        p = b.setp(CmpOp.LT, i, 16.0)
        b.emit(Instruction(
            op=Op.SETP, dst=p, srcs=(i, Imm(8.0)), cmp=CmpOp.LT,
            guard=p, guard_sense=True))
        with b.if_(p):
            b.st_global(b.add(out, i), 1.0)
        kernel = b.build()
        plan = get_plan(kernel, GTX480)
        assert any(rec.guard_recheck for rec in plan.records)
        launch = LaunchConfig(grid=(1, 1), block=(32, 1), params=(0,))
        assert_matches_oracle(kernel, launch, np.zeros(64))

    def test_sfu_and_alu_coverage(self):
        b = KernelBuilder("mathy", num_params=1)
        (out,) = b.params(1)
        i = b.tid_x()
        x = b.add(i, 0.5)
        vals = [
            b.sqrt(x), b.rsqrt(x), b.exp(b.neg(x)), b.log(x),
            b.sin(x), b.cos(x), b.div(1.0, b.sub(i, 4.0)),
            b.rem(i, 3.0), b.shl(i, 2.0), b.shr(i, 1.0),
            b.and_(i, 5.0), b.or_(i, 9.0), b.xor(i, 3.0), b.not_(i),
            b.min_(i, 7.0), b.max_(i, 7.0), b.abs_(b.neg(i)),
            b.floor(b.div(i, 3.0)), b.selp(i, x, b.setp(CmpOp.GT, i, 8.0)),
            b.selp(i, x, b.por(b.setp(CmpOp.LT, i, 4.0),
                               b.setp(CmpOp.GT, i, 20.0))),
        ]
        acc = b.mov(0.0)
        for v in vals:
            acc = b.add(acc, v, dst=acc)
        b.st_global(b.add(out, i), acc)
        kernel = b.build()
        launch = LaunchConfig(grid=(1, 1), block=(32, 1), params=(0,))
        assert_matches_oracle(kernel, launch, np.zeros(64))

    def test_strided_and_scattered_accesses(self):
        # Unit-stride, uniform, and scattered loads in one kernel, so the
        # coalescing fast paths and the np.unique fallback all run and
        # must yield identical transactions/latencies (hence cycles).
        b = KernelBuilder("mixed", num_params=1)
        (out,) = b.params(1)
        i = b.tid_x()
        unit = b.ld_global(i)                       # unit-stride
        uniform = b.ld_global(b.mov(5.0))           # broadcast
        scattered = b.ld_global(b.rem(b.mul(i, 7.0), 32.0))
        b.st_global(b.add(out, i),
                    b.add(unit, b.add(uniform, scattered)))
        kernel = b.build()
        launch = LaunchConfig(grid=(1, 1), block=(32, 1), params=(64,))
        mem = np.zeros(128)
        mem[:64] = np.arange(64.0)
        result, _ = assert_matches_oracle(kernel, launch, mem)
        assert result.stats.global_transactions > 0

    def test_partial_trailing_warp(self, saxpy_kernel):
        launch = LaunchConfig(grid=(1, 1), block=(40, 1),
                              params=(40, 1.5, 0, 64))
        mem = np.zeros(128)
        mem[:40] = 1.0
        assert_matches_oracle(saxpy_kernel, launch, mem)


class TestOutOfBoundsParity:
    """The plan closures' one-reduction bounds check raises exactly the
    oracle's ``SimError``: the message becomes the
    ``detail`` of a DUE-crash journal row, so it must not depend on the
    execution path."""

    WARP = 32
    SIZE = 64

    def _ctx(self, addrs):
        from repro.isa import Special
        from repro.sim import LaneContext

        specials = [np.arange(self.WARP, dtype=float) for _ in Special]
        ctx = LaneContext(4, 1, self.WARP, specials, np.zeros(1))
        ctx.regs[1] = addrs
        ctx.regs[2] = np.arange(self.WARP, dtype=float) + 0.5
        return ctx

    def _inst(self, op, space):
        from repro.isa import Reg, Space

        space = Space.GLOBAL if space == "global" else Space.SHARED
        if op == "ld":
            return Instruction(op=Op.LD, dst=Reg(0), srcs=(Reg(1),),
                               space=space)
        if op == "st":
            return Instruction(op=Op.ST, srcs=(Reg(1), Reg(2)), space=space)
        return Instruction(op=Op.ATOM, dst=Reg(0), srcs=(Reg(1), Reg(2)),
                           space=space, atom_op=AtomOp.ADD)

    def _both(self, inst, addrs, active):
        """Run the oracle's ``execute`` and the plan closure on equal
        inputs; return each side's (error text or None, ctx, gmem, smem)."""
        from repro.errors import SimError
        from repro.sim.plan import _build_run

        outcomes = []
        for planned in (False, True):
            ctx = self._ctx(addrs)
            gmem = np.arange(self.SIZE, dtype=float)
            smem = np.arange(self.SIZE, dtype=float) * 2.0
            try:
                if planned:
                    _build_run(inst, self.WARP)(ctx, active, gmem, smem)
                else:
                    execute(inst, ctx, active, gmem, smem)
                error = None
            except SimError as exc:
                error = str(exc)
            outcomes.append((error, ctx, gmem, smem))
        return outcomes

    @pytest.mark.parametrize("op", ["ld", "st", "atom"])
    @pytest.mark.parametrize("space", ["global", "shared"])
    @pytest.mark.parametrize("bad", [-1, -1000, 64, 1000])
    @pytest.mark.parametrize("full_mask", [True, False])
    def test_same_error_text(self, op, space, bad, full_mask):
        addrs = np.arange(self.WARP, dtype=float)
        addrs[6] = bad
        active = (np.ones(self.WARP, dtype=bool) if full_mask
                  else np.arange(self.WARP) % 3 == 0)  # lane 6 active
        (ref_err, *_), (plan_err, *_) = self._both(
            self._inst(op, space), addrs, active)
        assert ref_err is not None and "out-of-bounds" in ref_err
        assert plan_err == ref_err

    @pytest.mark.parametrize("op", ["ld", "st", "atom"])
    @pytest.mark.parametrize("space", ["global", "shared"])
    def test_masked_off_bad_lane_does_not_raise(self, op, space):
        addrs = np.arange(self.WARP, dtype=float)
        addrs[7] = -5.0
        active = np.arange(self.WARP) % 3 == 0  # lane 7 inactive
        ref, plan = self._both(self._inst(op, space), addrs, active)
        assert ref[0] is None and plan[0] is None
        assert np.array_equal(ref[1].regs, plan[1].regs)
        assert ref[2].tobytes() == plan[2].tobytes()
        assert ref[3].tobytes() == plan[3].tobytes()

    def test_launch_level_error_matches(self):
        from repro.errors import SimError

        b = KernelBuilder("oob", num_params=1)
        (ptr,) = b.params(1)
        i = b.tid_x()
        b.st_global(b.add(ptr, i), 1.0)
        kernel = b.build()
        launch = LaunchConfig(grid=(1, 1), block=(32, 1), params=(40.0,))
        texts = []
        for gpu in (Gpu(GTX480), oracle_gpu(GTX480)):
            with pytest.raises(SimError) as info:
                gpu.launch(kernel, launch, np.zeros(64))
            texts.append(str(info.value))
        assert texts[0] == texts[1]
        assert "addr range [40, 71], size 64" in texts[0]
