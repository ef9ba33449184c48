"""Liveness, reaching definitions, and provenance analyses."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import (Liveness, ParamOrigin, Provenance, ReachingDefs,
                            allocate_registers)
from repro.compiler.dataflow import BOTTOM, VarIndex
from repro.isa import Cfg, Pred, Reg, parse_kernel
from repro.workloads import workload_by_name
from tests.integration.test_property_based import random_kernel

LINEAR = """
.kernel k
    ld.param r0, [0]
    add r1, r0, 1
    add r2, r1, 2
    st.global [r2], r1
    exit
"""

LOOP = """
.kernel k
    mov r0, 0
    mov r1, 100
HEAD:
    setp.ge p0, r0, 10
    @p0 bra END
    add r2, r1, r0
    add r0, r0, 1
    bra HEAD
END:
    st.global [r1], r0
    exit
"""

GUARDED = """
.kernel k
    mov r0, 1
    setp.lt p0, r0, 5
    @p0 mov r0, 2
    st.global [r1], r0
    exit
"""


class TestLiveness:
    def test_dead_after_last_use(self):
        cfg = Cfg(parse_kernel(LINEAR))
        live = Liveness(cfg)
        # r0 dead after instruction 1 (its only use).
        assert Reg(0) not in live.live_after(1)
        assert Reg(0) in live.live_before(1)

    def test_store_operands_live_before_store(self):
        cfg = Cfg(parse_kernel(LINEAR))
        live = Liveness(cfg)
        assert {Reg(1), Reg(2)} <= live.live_before(3)

    def test_loop_carried_liveness(self):
        kernel = parse_kernel(LOOP)
        live = Liveness(Cfg(kernel))
        # r0 and r1 are live around the back edge.
        head = kernel.labels["HEAD"]
        assert Reg(0) in live.live_before(head)
        assert Reg(1) in live.live_before(head)

    def test_guarded_def_does_not_kill(self):
        kernel = parse_kernel(GUARDED)
        live = Liveness(Cfg(kernel))
        # r0's initial value is still needed before the guarded mov
        # (false lanes keep it).
        assert Reg(0) in live.live_before(2)

    def test_predicates_tracked(self):
        kernel = parse_kernel(GUARDED)
        live = Liveness(Cfg(kernel))
        assert Pred(0) in live.live_before(2)
        assert Pred(0) not in live.live_after(2)


class TestReachingDefs:
    def test_linear_chain(self):
        kernel = parse_kernel(LINEAR)
        rdefs = ReachingDefs(Cfg(kernel))
        # r1's def at 1 reaches its uses at 2 and 3.
        uses = rdefs.uses_of_def(1)
        assert (2, Reg(1)) in uses
        assert (3, Reg(1)) in uses

    def test_loop_merge(self):
        kernel = parse_kernel(LOOP)
        rdefs = ReachingDefs(Cfg(kernel))
        head = kernel.labels["HEAD"]
        # The compare at HEAD sees both the init def and the increment.
        defs = rdefs.defs_reaching_use(head, Reg(0))
        assert len(defs) == 2

    def test_guarded_def_merges_with_prior(self):
        kernel = parse_kernel(GUARDED)
        rdefs = ReachingDefs(Cfg(kernel))
        defs = rdefs.defs_reaching_use(3, Reg(0))
        assert defs == {0, 2}   # both the init and the partial def


def assert_one_variable_analysis_exact(kernel):
    """``ReachingDefs.at(cfg, var, positions)``, fed by the occurrence
    index, answers every query about ``var`` exactly as the whole-kernel
    analysis does, for every variable."""
    cfg = Cfg(kernel)
    whole = ReachingDefs(cfg)
    names = VarIndex(kernel)
    variables = set(whole.defs_of) | {var for _, var in whole.use_defs}
    assert variables
    for var in variables:
        one = ReachingDefs.at(cfg, var, names.positions(var))
        uses = {key: defs for key, defs in whole.use_defs.items()
                if key[1] == var}
        assert one.use_defs == uses, var
        for use_index, _ in uses:
            assert one.defs_reaching_use(use_index, var) == \
                whole.defs_reaching_use(use_index, var)
        for def_index in [ReachingDefs.ENTRY] + whole.defs_of.get(var, []):
            assert one.uses_of_def(def_index) == {
                use for use in whole.uses_of_def(def_index)
                if use[1] == var}, (var, def_index)


class TestOneVariableReachingDefs:
    @pytest.mark.parametrize("workload",
                             ["SGEMM", "NN", "LBM", "Triad", "Histogram"])
    def test_matches_whole_kernel_on_allocated_roster(self, workload):
        kernel = workload_by_name(workload).instance("tiny").kernel
        assert_one_variable_analysis_exact(allocate_registers(kernel).kernel)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(random_kernel())
    def test_matches_whole_kernel_on_generated_kernels(self, kernel):
        assert_one_variable_analysis_exact(kernel)
        assert_one_variable_analysis_exact(allocate_registers(kernel).kernel)

    def test_loop_merge_seen_by_one_variable(self):
        kernel = parse_kernel(LOOP)
        head = kernel.labels["HEAD"]
        one = ReachingDefs.at(Cfg(kernel), Reg(0),
                              VarIndex(kernel).positions(Reg(0)))
        assert len(one.defs_reaching_use(head, Reg(0))) == 2
        assert set(one.defs_of) == {Reg(0)}


class TestProvenance:
    def test_param_origin_propagates_through_add(self):
        kernel = parse_kernel(LINEAR)
        prov = Provenance(Cfg(kernel))
        assert prov.origin_at(3, Reg(2)) == ParamOrigin(0)

    def test_mul_destroys_provenance(self):
        kernel = parse_kernel(
            ".kernel k\n ld.param r0, [0]\n mul r1, r0, 2\n"
            " st.global [r1], r0\n exit\n")
        prov = Provenance(Cfg(kernel))
        assert prov.origin_at(2, Reg(1)) is BOTTOM

    def test_two_params_distinct(self):
        kernel = parse_kernel(
            ".kernel k\n ld.param r0, [0]\n ld.param r1, [1]\n"
            " add r2, r0, 4\n add r3, r1, 4\n st.global [r2], r3\n exit\n")
        prov = Provenance(Cfg(kernel))
        assert prov.origin_at(4, Reg(2)) == ParamOrigin(0)
        assert prov.origin_at(4, Reg(3)) == ParamOrigin(1)

    def test_merge_of_different_origins_is_bottom(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    ld.param r1, [1]
    setp.lt p0, r0, r1
    @p0 bra A
    mov r2, r0
    bra J
A:
    mov r2, r1
J:
    st.global [r2], r0
    exit
""")
        prov = Provenance(Cfg(kernel))
        store_index = kernel.labels["J"]
        assert prov.origin_at(store_index, Reg(2)) is BOTTOM

    def test_adding_two_pointers_is_bottom(self):
        kernel = parse_kernel(
            ".kernel k\n ld.param r0, [0]\n ld.param r1, [1]\n"
            " add r2, r0, r1\n st.global [r2], r0\n exit\n")
        prov = Provenance(Cfg(kernel))
        assert prov.origin_at(3, Reg(2)) is BOTTOM
