"""Recovery PC Table unit behaviour."""

import numpy as np

from repro.core import RecoveryPcTable
from repro.isa import KernelBuilder
from repro.sim import LaunchConfig, Warp, WarpSnapshot


def make_warp(wid=0):
    from repro.isa import Special

    b = KernelBuilder("k")
    b.add(1, 2)
    b.add(3, 4)
    kernel = b.build()

    class FakeBlock:
        num_threads = 32
        first_warp_id = 0

    specials = [np.arange(32, dtype=float) for _ in Special]
    return Warp(wid, FakeBlock(), kernel, num_regs=4, warp_size=32,
                specials=specials, params=np.zeros(1), age=wid)


class TestRpt:
    def test_register_initializes_to_entry(self):
        rpt = RecoveryPcTable()
        warp = make_warp()
        warp.pc = 0
        rpt.register_warp(warp)
        warp.pc = 2
        rpt.recover(warp)
        assert warp.pc == 0

    def test_update_advances_recovery_point(self):
        rpt = RecoveryPcTable()
        warp = make_warp()
        rpt.register_warp(warp)
        warp.pc = 1
        rpt.update(warp, WarpSnapshot.capture(warp))
        warp.pc = 2
        rpt.recover(warp)
        assert warp.pc == 1

    def test_entries_are_per_warp(self):
        rpt = RecoveryPcTable()
        w0, w1 = make_warp(0), make_warp(1)
        rpt.register_warp(w0)
        w1.pc = 2
        rpt.register_warp(w1)
        w0.pc = 1
        rpt.recover(w0)
        rpt.recover(w1)
        assert w0.pc == 0
        assert w1.pc == 2

    def test_drop(self):
        rpt = RecoveryPcTable()
        warp = make_warp()
        rpt.register_warp(warp)
        rpt.drop(warp)
        assert warp.id not in rpt.entries

    def test_storage_bits(self):
        assert RecoveryPcTable().storage_bits(32, 32) == 1024
        assert RecoveryPcTable().storage_bits(16, 32) == 512
