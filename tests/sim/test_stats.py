"""SimStats accounting and merging."""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.isa import FuClass, Instruction, KernelBuilder, Op, Space
from repro.sim import LaunchConfig, SimStats, run_kernel
from repro.sim.stats import _MERGE_DICT, _MERGE_MAX, FU_CLASSES, STALL_CAUSES

ALU = FU_CLASSES.index(FuClass.ALU)
MEM = FU_CLASSES.index(FuClass.MEM)
SFU = FU_CLASSES.index(FuClass.SFU)


class TestCounters:
    def test_issue_counts_classify(self):
        """Each issue counts once, in its functional unit's ``by_fu``
        slot, and once more per shadow/ckpt flag."""
        b = KernelBuilder("count", num_params=1)
        base = b.ld_param(0)
        value = b.add(base, 1.0)
        b.st_global(base, value)
        kernel = b.build()
        insts = kernel.instructions
        add = next(i for i, inst in enumerate(insts) if inst.op is Op.ADD)
        st = next(i for i, inst in enumerate(insts) if inst.op is Op.ST)
        insts[add] = Instruction(op=Op.ADD, dst=insts[add].dst,
                                 srcs=insts[add].srcs, shadow=True)
        insts[st] = Instruction(op=Op.ST, srcs=insts[st].srcs,
                                space=Space.GLOBAL, ckpt=True)
        stats = run_kernel(kernel, LaunchConfig(params=(0,)),
                           np.zeros(4)).stats
        assert stats.instructions == len(insts)
        assert stats.shadow_instructions == 1
        assert stats.ckpt_instructions == 1
        expected = {}
        for inst in insts:
            expected[inst.fu.value] = expected.get(inst.fu.value, 0) + 1
        assert stats.as_dict()["by_fu"] == expected
        assert stats.by_fu[ALU] == expected["alu"]

    def test_avg_region_size(self):
        stats = SimStats()
        assert stats.avg_region_size == 0.0
        stats.verified_regions = 4
        stats.region_instructions = 50
        assert stats.avg_region_size == 12.5

    def test_ipc(self):
        stats = SimStats()
        stats.instructions = 100
        stats.cycles = 400
        assert stats.ipc == 0.25

    def test_l1_miss_rate_empty(self):
        assert SimStats().l1_miss_rate == 0.0


class TestMerge:
    def test_merge_sums_counts_keeps_max_cycles(self):
        a, b = SimStats(), SimStats()
        a.instructions, b.instructions = 10, 20
        a.cycles, b.cycles = 100, 80
        a.by_fu[ALU] = 5
        b.by_fu[ALU] = 7
        a.merge(b)
        assert a.instructions == 30
        assert a.cycles == 100          # wall time, not a sum
        assert a.by_fu[ALU] == 12

    def test_as_dict_round_trip_fields(self):
        stats = SimStats()
        stats.instructions = 5
        stats.by_fu[SFU] = 5
        data = stats.as_dict()
        assert data["instructions"] == 5
        assert data["by_fu"] == {"sfu": 5}   # nonzero slots only
        assert "avg_region_size" in data and "ipc" in data

    def test_merge_policies_name_real_fields(self):
        names = {f.name for f in fields(SimStats)}
        assert set(_MERGE_MAX) <= names
        assert set(_MERGE_DICT) <= names

    def test_every_field_merged_exactly_once(self):
        """Exhaustive audit over the dataclass field list: ints sum
        (or max for wall-clock-like fields), dicts merge key-wise,
        by_fu sums slot-wise — no counter silently dropped."""
        a, b = SimStats(), SimStats()
        expected = {}
        for offset, f in enumerate(fields(SimStats)):
            if f.name == "by_fu":
                a.by_fu[ALU] = 3
                b.by_fu[ALU] = 4
                b.by_fu[MEM] = 5
                slots = [0] * len(FU_CLASSES)
                slots[ALU], slots[MEM] = 7, 5
                expected[f.name] = slots
            elif f.name in _MERGE_DICT:
                setattr(a, f.name, {"x": {"k": 1}} if f.name ==
                        "warp_stalls" else {"k": 1})
                setattr(b, f.name, {"x": {"k": 2}} if f.name ==
                        "warp_stalls" else {"k": 2, "m": 3})
                expected[f.name] = ({"x": {"k": 3}} if f.name ==
                                    "warp_stalls" else {"k": 3, "m": 3})
            else:
                # Distinct per-field values so a swapped assignment in
                # merge() cannot cancel out.
                lo, hi = 10 + offset, 1000 + offset * 7
                setattr(a, f.name, hi)
                setattr(b, f.name, lo)
                expected[f.name] = (hi if f.name in _MERGE_MAX
                                    else hi + lo)
        a.merge(b)
        for f in fields(SimStats):
            assert getattr(a, f.name) == expected[f.name], f.name


class TestStallLedger:
    def test_count_stall_books_both_ledgers(self):
        stats = SimStats()
        stats.count_stall("barrier", 3)
        stats.count_stall("barrier", 3, cycles=4)
        stats.count_stall("memory_latency", -1)
        assert stats.stall_cycles == {"barrier": 5, "memory_latency": 1}
        assert stats.warp_stalls == {3: {"barrier": 5},
                                     -1: {"memory_latency": 1}}

    def test_clone_is_deep(self):
        stats = SimStats()
        stats.count_stall("barrier", 0)
        stats.by_fu[ALU] = 1
        dup = stats.clone()
        dup.count_stall("barrier", 0)
        dup.count_stall("rollback", 1)
        dup.by_fu[ALU] += 1
        assert stats.stall_cycles == {"barrier": 1}
        assert stats.warp_stalls == {0: {"barrier": 1}}
        assert stats.by_fu[ALU] == 1


_ledgers = st.dictionaries(
    st.sampled_from(STALL_CAUSES), st.integers(0, 1 << 20), max_size=4)
_warp_ledgers = st.dictionaries(
    st.integers(-1, 7), _ledgers, max_size=4)


class TestMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(xs=st.lists(_warp_ledgers, min_size=1, max_size=4))
    def test_merge_preserves_totals(self, xs):
        """Merging per-SM blocks in any grouping preserves every
        (warp, cause) total, and clone/as_dict round-trip the ledgers."""
        blocks = []
        for ledger in xs:
            stats = SimStats()
            for warp_id, causes in ledger.items():
                for cause, cycles in causes.items():
                    stats.count_stall(cause, warp_id, cycles)
            blocks.append(stats)
        total = SimStats()
        for block in blocks:
            total.merge(block.clone())   # merge must not alias sources
        expected: dict = {}
        for ledger in xs:
            for warp_id, causes in ledger.items():
                for cause, cycles in causes.items():
                    bucket = expected.setdefault(warp_id, {})
                    bucket[cause] = bucket.get(cause, 0) + cycles
        assert total.warp_stalls == expected
        flat: dict = {}
        for causes in expected.values():
            for cause, cycles in causes.items():
                flat[cause] = flat.get(cause, 0) + cycles
        assert total.stall_cycles == flat
        # Round-trip: clone and as_dict expose identical ledgers, and
        # mutating the clone leaves the original untouched.
        dup = total.clone()
        assert dup.as_dict() == total.as_dict()
        dup.count_stall("rollback", 99)
        assert 99 not in total.warp_stalls
        for block in blocks:   # sources never aliased into the merge
            for warp_id, causes in block.warp_stalls.items():
                assert causes is not total.warp_stalls.get(warp_id)
