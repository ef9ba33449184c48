"""Lane-level value semantics of every opcode.

Each instruction runs through its plan record (``repro.sim.plan``) and
through the oracle's decode-per-issue ``execute`` on copies of the same
state; both must leave identical registers, predicates and memory.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import GTX480
from repro.isa import (AtomOp, CmpOp, Imm, Instruction, Op, Pred, Reg, Space,
                       Special)
from repro.sim import LaneContext
from repro.sim.plan import PlannedInst
from tests.oracle import execute

WARP = GTX480.warp_size


def make_ctx(num_regs=8, num_preds=4):
    specials = [np.arange(WARP, dtype=float) for _ in Special]
    return LaneContext(num_regs, num_preds, WARP, specials,
                       np.array([3.0, 7.0]))


def full():
    return np.ones(WARP, dtype=bool)


def run(inst, ctx=None, active=None, gmem=None, smem=None):
    """Apply ``inst`` through its plan record; the oracle's ``execute``
    must produce the same state.  Returns ``(ctx, access)``."""
    ctx = ctx or make_ctx()
    active = active if active is not None else full()
    gmem = gmem if gmem is not None else np.zeros(128)
    smem = smem if smem is not None else np.zeros(64)
    ref_ctx = make_ctx(len(ctx.regs), len(ctx.preds))
    ref_ctx.regs[:] = ctx.regs
    ref_ctx.preds[:] = ctx.preds
    ref_gmem, ref_smem = gmem.copy(), smem.copy()
    rec = PlannedInst(0, inst, None, GTX480, {})
    access = rec.run(ctx, rec.guard(ctx, active), gmem, smem)
    ref_access = execute(inst, ref_ctx, active, ref_gmem, ref_smem)
    assert ctx.regs.tobytes() == ref_ctx.regs.tobytes()
    assert ctx.preds.tobytes() == ref_ctx.preds.tobytes()
    assert gmem.tobytes() == ref_gmem.tobytes()
    assert smem.tobytes() == ref_smem.tobytes()
    assert (access is None) == (ref_access is None)
    if access is not None:
        assert (access.space, access.is_store, access.is_atomic) == (
            ref_access.space, ref_access.is_store, ref_access.is_atomic)
        assert np.array_equal(access.addresses, ref_access.addresses)
    return ctx, access


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expect", [
        (Op.ADD, 3.0, 4.0, 7.0),
        (Op.SUB, 3.0, 4.0, -1.0),
        (Op.MUL, 3.0, 4.0, 12.0),
        (Op.DIV, 8.0, 2.0, 4.0),
        (Op.MIN, 3.0, 4.0, 3.0),
        (Op.MAX, 3.0, 4.0, 4.0),
        (Op.REM, 7.0, 3.0, 1.0),
        (Op.AND, 6.0, 3.0, 2.0),
        (Op.OR, 6.0, 3.0, 7.0),
        (Op.XOR, 6.0, 3.0, 5.0),
        (Op.SHL, 3.0, 2.0, 12.0),
        (Op.SHR, 12.0, 2.0, 3.0),
    ])
    def test_binary_ops(self, op, a, b, expect):
        ctx, _ = run(Instruction(op=op, dst=Reg(0),
                                 srcs=(Imm(a), Imm(b))))
        assert (ctx.regs[0] == expect).all()

    def test_div_by_zero_is_zero(self):
        ctx, _ = run(Instruction(op=Op.DIV, dst=Reg(0),
                                 srcs=(Imm(5.0), Imm(0.0))))
        assert (ctx.regs[0] == 0.0).all()

    def test_rem_by_zero_is_zero(self):
        ctx, _ = run(Instruction(op=Op.REM, dst=Reg(0),
                                 srcs=(Imm(5.0), Imm(0.0))))
        assert (ctx.regs[0] == 0.0).all()

    def test_mad(self):
        ctx, _ = run(Instruction(op=Op.MAD, dst=Reg(0),
                                 srcs=(Imm(2.0), Imm(3.0), Imm(4.0))))
        assert (ctx.regs[0] == 10.0).all()

    @pytest.mark.parametrize("op,fn", [
        (Op.SQRT, np.sqrt), (Op.EXP, np.exp), (Op.LOG, np.log),
        (Op.SIN, np.sin), (Op.COS, np.cos),
    ])
    def test_sfu_matches_numpy(self, op, fn):
        ctx = make_ctx()
        ctx.regs[1] = np.linspace(0.5, 3.0, WARP)
        run(Instruction(op=op, dst=Reg(0), srcs=(Reg(1),)), ctx)
        assert np.allclose(ctx.regs[0], fn(ctx.regs[1]))

    def test_sqrt_negative_clamped(self):
        ctx, _ = run(Instruction(op=Op.SQRT, dst=Reg(0), srcs=(Imm(-4.0),)))
        assert (ctx.regs[0] == 0.0).all()

    def test_special_registers_readable(self):
        ctx, _ = run(Instruction(op=Op.MOV, dst=Reg(0),
                                 srcs=(Special.LANEID,)))
        assert np.array_equal(ctx.regs[0], np.arange(WARP))

    def test_selp(self):
        ctx = make_ctx()
        ctx.preds[0] = np.arange(WARP) < 10
        run(Instruction(op=Op.SELP, dst=Reg(0),
                        srcs=(Imm(1.0), Imm(2.0), Pred(0))), ctx)
        assert (ctx.regs[0][:10] == 1.0).all()
        assert (ctx.regs[0][10:] == 2.0).all()


class TestPredicates:
    def test_setp(self):
        ctx, _ = run(Instruction(op=Op.SETP, dst=Pred(0), cmp=CmpOp.LT,
                                 srcs=(Special.LANEID, Imm(5.0))))
        assert ctx.preds[0].sum() == 5

    def test_pred_logic(self):
        ctx = make_ctx()
        ctx.preds[1] = np.arange(WARP) < 16
        ctx.preds[2] = np.arange(WARP) % 2 == 0
        run(Instruction(op=Op.PAND, dst=Pred(0),
                        srcs=(Pred(1), Pred(2))), ctx)
        assert ctx.preds[0].sum() == 8
        run(Instruction(op=Op.PNOT, dst=Pred(3), srcs=(Pred(1),)), ctx)
        assert ctx.preds[3].sum() == 16


class TestMasking:
    def test_inactive_lanes_keep_values(self):
        ctx = make_ctx()
        ctx.regs[0][:] = 42.0
        active = np.arange(WARP) < 8
        run(Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(1.0),)),
            ctx, active)
        assert (ctx.regs[0][:8] == 1.0).all()
        assert (ctx.regs[0][8:] == 42.0).all()

    def test_guard_composes_with_active(self):
        ctx = make_ctx()
        ctx.preds[0] = np.arange(WARP) % 2 == 0
        active = np.arange(WARP) < 16
        run(Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(1.0),),
                        guard=Pred(0)), ctx, active)
        written = ctx.regs[0] == 1.0
        assert written.sum() == 8  # even lanes below 16

    def test_inverted_guard(self):
        ctx = make_ctx()
        ctx.preds[0] = np.arange(WARP) < 4
        run(Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(1.0),),
                        guard=Pred(0), guard_sense=False), ctx)
        assert (ctx.regs[0][:4] == 0.0).all()
        assert (ctx.regs[0][4:] == 1.0).all()


class TestMemory:
    def test_gather_load(self):
        gmem = np.arange(100, dtype=float)
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP) * 2.0
        _, access = run(Instruction(op=Op.LD, dst=Reg(0), srcs=(Reg(1),),
                                    space=Space.GLOBAL, offset=1),
                        ctx, gmem=gmem)
        assert np.array_equal(ctx.regs[0], np.arange(WARP) * 2 + 1)
        assert access.space is Space.GLOBAL
        assert not access.is_store

    def test_scatter_store(self):
        gmem = np.zeros(128)
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=float)
        ctx.regs[2] = np.arange(WARP, dtype=float) * 10
        run(Instruction(op=Op.ST, srcs=(Reg(1), Reg(2)),
                        space=Space.GLOBAL), ctx, gmem=gmem)
        assert np.array_equal(gmem[:WARP], np.arange(WARP) * 10)

    def test_param_load_broadcasts(self):
        ctx, access = run(Instruction(op=Op.LD, dst=Reg(0),
                                      srcs=(Imm(1.0),), space=Space.PARAM))
        assert (ctx.regs[0] == 7.0).all()
        assert access is None

    def test_shared_isolated_from_global(self):
        gmem, smem = np.zeros(64), np.zeros(64)
        ctx = make_ctx()
        ctx.regs[1] = np.zeros(WARP)
        run(Instruction(op=Op.ST, srcs=(Reg(1), Imm(5.0)),
                        space=Space.SHARED), ctx, gmem=gmem, smem=smem)
        assert smem[0] == 5.0
        assert gmem[0] == 0.0

    def test_out_of_bounds_raises(self):
        from repro.errors import SimError

        ctx = make_ctx()
        ctx.regs[1] = np.full(WARP, 1000.0)
        with pytest.raises(SimError):
            run(Instruction(op=Op.LD, dst=Reg(0), srcs=(Reg(1),),
                            space=Space.GLOBAL), ctx)

    def test_fully_masked_access_returns_none(self):
        ctx = make_ctx()
        _, access = run(Instruction(op=Op.LD, dst=Reg(0), srcs=(Reg(1),),
                                    space=Space.GLOBAL), ctx,
                        active=np.zeros(WARP, dtype=bool))
        assert access is None


class TestAtomics:
    def test_atomic_add_serializes_lanes(self):
        gmem = np.zeros(8)
        ctx = make_ctx()
        ctx.regs[1] = np.zeros(WARP)  # all lanes hit address 0
        _, access = run(Instruction(op=Op.ATOM, dst=Reg(0),
                                    srcs=(Reg(1), Imm(1.0)),
                                    space=Space.GLOBAL,
                                    atom_op=AtomOp.ADD), ctx, gmem=gmem)
        assert gmem[0] == WARP
        assert access.is_atomic
        # Old values are the serial prefix sums.
        assert np.array_equal(np.sort(ctx.regs[0]), np.arange(WARP))

    @pytest.mark.parametrize("atom_op,expect", [
        (AtomOp.MAX, 31.0), (AtomOp.MIN, 0.0), (AtomOp.EXCH, 31.0),
    ])
    def test_other_atomics(self, atom_op, expect):
        gmem = np.zeros(8)
        if atom_op is AtomOp.MIN:
            gmem[0] = 99.0
        ctx = make_ctx()
        ctx.regs[1] = np.zeros(WARP)
        ctx.regs[2] = np.arange(WARP, dtype=float)
        run(Instruction(op=Op.ATOM, dst=Reg(0), srcs=(Reg(1), Reg(2)),
                        space=Space.GLOBAL, atom_op=atom_op),
            ctx, gmem=gmem)
        assert gmem[0] == expect


class TestPropertyBased:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=WARP, max_size=WARP),
           st.lists(st.floats(-1e6, 1e6), min_size=WARP, max_size=WARP))
    def test_add_matches_numpy(self, a, b):
        ctx = make_ctx()
        ctx.regs[1] = np.array(a)
        ctx.regs[2] = np.array(b)
        run(Instruction(op=Op.ADD, dst=Reg(0), srcs=(Reg(1), Reg(2))), ctx)
        assert np.array_equal(ctx.regs[0], ctx.regs[1] + ctx.regs[2])

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_xor_is_involution(self, a, key):
        ctx = make_ctx()
        ctx.regs[1] = np.full(WARP, float(a))
        run(Instruction(op=Op.XOR, dst=Reg(2),
                        srcs=(Reg(1), Imm(float(key)))), ctx)
        run(Instruction(op=Op.XOR, dst=Reg(3),
                        srcs=(Reg(2), Imm(float(key)))), ctx)
        assert np.array_equal(ctx.regs[3], ctx.regs[1])
