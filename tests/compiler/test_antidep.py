"""Unit tests for the anti-dependence analysis building blocks."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler import MemLoc, RegionState, scan_kernel
from repro.compiler.dataflow import ParamOrigin
from repro.isa import Reg, Space, parse_kernel


def loc(space=Space.GLOBAL, prov=None, base=0, version=0, offset=0):
    return MemLoc(space=space, prov=prov, base=Reg(base), version=version,
                  offset=offset)


class TestMemLocAlgebra:
    def test_different_spaces_never_alias(self):
        assert not loc(Space.GLOBAL).may_alias(loc(Space.SHARED))

    def test_different_provenance_never_alias(self):
        a = loc(prov=ParamOrigin(0))
        b = loc(prov=ParamOrigin(1), base=1)
        assert not a.may_alias(b)

    def test_same_base_version_different_offset_disjoint(self):
        assert not loc(offset=0).may_alias(loc(offset=4))

    def test_same_base_version_same_offset_alias(self):
        assert loc(offset=4).may_alias(loc(offset=4))

    def test_version_mismatch_is_conservative(self):
        assert loc(version=0).may_alias(loc(version=1))

    def test_unknown_bases_conservative(self):
        assert loc(base=0).may_alias(loc(base=1))

    def test_same_location_requires_exact_match(self):
        assert loc().same_location(loc())
        assert not loc().same_location(loc(offset=1))
        assert not loc().same_location(loc(version=1))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(-8, 8),
           st.integers(-8, 8))
    def test_alias_is_symmetric(self, base_a, base_b, off_a, off_b):
        a = loc(base=base_a, offset=off_a)
        b = loc(base=base_b, offset=off_b)
        assert a.may_alias(b) == b.may_alias(a)

    @given(st.integers(0, 3), st.integers(-8, 8))
    def test_alias_is_reflexive(self, base, offset):
        a = loc(base=base, offset=offset)
        assert a.may_alias(a)


class TestRegionState:
    def test_reset_clears_accesses_not_versions(self):
        state = RegionState()
        state.mem_reads.append(loc())
        state.reg_reads.add(Reg(1))
        state.versions[Reg(1)] = 3
        state.reset()
        assert not state.mem_reads
        assert not state.reg_reads
        assert state.versions[Reg(1)] == 3

    def test_copy_is_deep_enough(self):
        state = RegionState()
        state.mem_reads.append(loc())
        clone = state.copy()
        clone.mem_reads.append(loc(offset=1))
        assert len(state.mem_reads) == 1


class TestScanEdgeCases:
    def test_atomic_read_conflicts_with_later_store_elsewhere(self):
        """The atomic's implicit read participates in WAR detection: a
        later store that may alias it (different base) must cut."""
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    atom.global.add r1, [r0], 1
    st.global [r2], r1
    exit
""")
        scan = scan_kernel(kernel)
        assert 2 in scan.mem_cuts

    def test_atomics_isolated_by_region_formation(self):
        """Region formation gives every atomic its own boundary, so its
        non-idempotent read-modify-write never shares a region with
        preceding code."""
        from repro.compiler import form_regions
        from repro.isa import Op

        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    add r1, r0, 1
    atom.global.add r2, [r0], 1
    st.global [r0], r2
    exit
""")
        formed = form_regions(kernel)
        atom_index = next(i for i, inst in
                          enumerate(formed.kernel.instructions)
                          if inst.info.is_atomic)
        assert formed.kernel.instructions[atom_index - 1].op is Op.RB

    def test_rb_resets_region(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    ld.global r1, [r0]
    rb
    st.global [r0], r1
    exit
""")
        assert scan_kernel(kernel).clean

    def test_guarded_store_does_not_cover(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.lt p0, r1, 1
    @p0 st.global [r0], 1
    ld.global r1, [r0]
    st.global [r0], r1
    exit
""")
        scan = scan_kernel(kernel)
        assert scan.mem_cuts  # the final store is not WARAW-covered

    def test_unguarded_store_covers(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    st.global [r0], 1
    ld.global r1, [r0]
    st.global [r0], r1
    exit
""")
        assert not scan_kernel(kernel).mem_cuts

    def test_state_flows_through_single_pred_chain(self):
        """A read before an unconditional branch still conflicts with a
        store after it (same region spans the blocks)."""
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    ld.global r1, [r0]
    bra NEXT
NEXT:
    st.global [r0], r1
    exit
""")
        # NEXT has one predecessor, so the read flows in... but NEXT is
        # a branch target: region formation adds a merge boundary only
        # for multi-pred blocks; with a single pred the WAR must be
        # detected here.
        scan = scan_kernel(kernel)
        assert scan.mem_cuts

    def test_merge_block_gets_fresh_state(self):
        """Multi-predecessor blocks start fresh in the scan — sound only
        because region formation places a boundary there, which the
        formed kernel then carries as an RB."""
        from repro.compiler import form_regions
        from repro.isa import Op

        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.lt p0, r1, 1
    @p0 bra A
    ld.global r1, [r0]
    bra J
A:
    mov r1, 0
J:
    st.global [r0], r1
    exit
""")
        formed = form_regions(kernel)
        join = formed.kernel.labels["J"]
        assert formed.kernel.instructions[join].op is Op.RB


class TestGuardedRegisterWrites:
    """A guarded write whose guard the region itself computed is a
    register WAR: which lanes keep the old value is not a region input."""

    def test_write_under_in_region_guard_is_war(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    ld.global r1, [r0]
    setp.gt p0, r1, 0
    @p0 add r2, r1, 1
    st.global [r0+4], r2
    exit
""")
        assert scan_kernel(kernel).reg_wars == [(3, Reg(2))]

    def test_guard_from_guarded_def_counts(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.gt p1, r0, 0
    rb
    @p1 setp.gt p0, r0, 4
    @p0 add r2, r0, 1
    exit
""")
        assert scan_kernel(kernel).reg_wars == [(4, Reg(2))]

    def test_guard_from_before_boundary_is_input(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.gt p0, r0, 0
    rb
    @p0 add r2, r0, 1
    exit
""")
        assert scan_kernel(kernel).clean

    def test_fully_written_destination_is_no_war(self):
        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    setp.gt p0, r0, 0
    mov r2, 0
    @p0 add r2, r0, 1
    exit
""")
        assert scan_kernel(kernel).clean

    def test_formation_cuts_before_the_write(self):
        from repro.compiler import form_regions
        from repro.isa import Op

        kernel = parse_kernel("""
.kernel k
    ld.param r0, [0]
    ld.global r1, [r0]
    setp.gt p0, r1, 0
    @p0 add r2, r1, 1
    st.global [r0+4], r2
    exit
""")
        formed = form_regions(kernel)
        assert formed.rename_fallback_cuts == 1
        guarded = next(i for i, inst in enumerate(formed.kernel.instructions)
                       if inst.guard is not None)
        assert formed.kernel.instructions[guarded - 1].op is Op.RB
        assert scan_kernel(formed.kernel).clean
