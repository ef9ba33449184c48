"""The always-on architectural sanitizer.

A fault-free run must never trip an invariant; targeted mid-run state
corruption (delivered through the fault-injector hook, so it lands at a
precise cycle inside ``Gpu.launch``) must raise :class:`SanitizerError`
with SM/warp/cycle context.
"""

import numpy as np
import pytest

from repro.arch import GTX480
from repro.compiler import compile_kernel
from repro.core import FlameRuntime
from repro.errors import SanitizerError
from repro.isa import Op, Reg
from repro.sim import Gpu, Sanitizer, StackEntry, WarpState
from repro.workloads import WORKLOADS


def launch(abbr="Triad", scheme="flame", wcdl=20, injector=None,
           sanitizer=None):
    instance = WORKLOADS[abbr].instance("tiny")
    compiled = compile_kernel(instance.kernel, scheme, wcdl=wcdl)
    resilience = FlameRuntime(wcdl) if scheme == "flame" else None
    gpu = (Gpu(GTX480, resilience=resilience, sanitizer=sanitizer)
           if resilience else Gpu(GTX480, sanitizer=sanitizer))
    gpu.fault_injector = injector
    return instance.run(compiled, gpu, max_cycles=2_000_000)


class _CorruptAt:
    """Fault-injector stand-in: from ``cycle`` on, calls ``fn(gpu, cycle)``
    from the hook point real strikes use, once per cycle until it returns
    anything but False (nothing to corrupt yet), then never again;
    ``fired_at`` is that cycle."""

    def __init__(self, cycle, fn):
        self.cycle = cycle
        self.fn = fn
        self.fired_at = None

    def tick(self, gpu, cycle):
        if (self.fired_at is None and cycle >= self.cycle
                and self.fn(gpu, cycle) is not False):
            self.fired_at = cycle

    def next_event(self, cycle):
        if self.fired_at is not None:
            return 1 << 62
        return max(cycle + 1, self.cycle)


def _off_region_start_pc(kernel) -> int:
    """The first PC that is no valid recovery point of ``kernel``."""
    starts = {0}
    for i, inst in enumerate(kernel.instructions):
        if inst.op is Op.RB:
            starts.update((i, i + 1))
    return next(i for i in range(len(kernel.instructions))
                if i not in starts)


class TestFaultFree:
    @pytest.mark.parametrize("scheme", ["baseline", "flame"])
    @pytest.mark.parametrize("abbr", ["Triad", "SGEMM", "SN"])
    def test_clean_run_has_no_violations(self, abbr, scheme):
        sanitizer = Sanitizer()
        result, _ = launch(abbr, scheme, sanitizer=sanitizer)
        assert result.cycles > 0
        assert sanitizer.checks > 0

    def test_clean_run_output_unchanged_by_sanitizer(self):
        _, plain = launch("Triad", "flame")
        _, checked = launch("Triad", "flame", sanitizer=Sanitizer())
        assert np.array_equal(plain, checked)


class TestInvariants:
    def test_scoreboard_bad_register_index(self):
        def corrupt(gpu, cycle):
            warp = gpu.sms[0].warps[0]
            warp.pending[999] = cycle + 5   # key of nonexistent r999

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "scoreboard"
        assert err.value.sm_id == 0
        assert err.value.cycle >= 50

    @pytest.mark.parametrize("key, ready, text", [
        (-1 - 999, 5, "nonexistent predicate p999"),
        (Reg(0), 5, "non-int"),
        (0, -7, "ready cycle -7"),
    ])
    def test_scoreboard_rejects_bad_entries(self, key, ready, text):
        """Scoreboard keys are ints: ``-1 - index`` names a predicate,
        and an operand object is no key at all."""
        def corrupt(gpu, cycle):
            gpu.sms[0].warps[0].pending[key] = (cycle + ready if ready > 0
                                                else ready)

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "scoreboard"
        assert text in str(err.value)

    def test_stack_non_nested_mask(self):
        def corrupt(gpu, cycle):
            warp = gpu.sms[0].warps[0]
            # A child entry activating a lane its parent masked off can
            # only come from corruption.
            parent = warp.stack[-1].mask.copy()
            parent[0] = False
            child = np.zeros_like(parent)
            child[0] = True
            warp.stack.append(StackEntry(0, warp.pc, parent))
            warp.stack.append(StackEntry(0, warp.pc, child))

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "simt-stack"
        assert err.value.warp_id is not None

    def test_stack_pc_out_of_range(self):
        def corrupt(gpu, cycle):
            warp = gpu.sms[0].warps[0]
            warp.stack[-1].pc = -3

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "simt-stack"

    def test_rpt_entry_off_region_start(self):
        def corrupt(gpu, cycle):
            rpt = gpu.sms[0].resilience.rpt
            warp = gpu.sms[0].warps[0]
            rpt.entries[warp.id].pc = _off_region_start_pc(warp.kernel)

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "rpt-region-start"

    def test_rbq_enqueue_monotonicity(self):
        def corrupt(gpu, cycle):
            for rbq in gpu.sms[0].resilience.rbqs.values():
                if len(rbq._entries) >= 2:
                    # Swap enqueue stamps: the conveyor can only move
                    # forward, so this is unreachable state.
                    a, b = rbq._entries[0], rbq._entries[1]
                    a.enqueued_at, b.enqueued_at = (b.enqueued_at,
                                                    a.enqueued_at)
                    return True
            return False

        with pytest.raises(SanitizerError) as err:
            launch("SGEMM", "flame", injector=_CorruptAt(0, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "rbq-conveyor"

    def test_error_carries_context_in_message(self):
        def corrupt(gpu, cycle):
            gpu.sms[0].warps[0].stack[-1].pc = -3

        with pytest.raises(SanitizerError, match=r"sanitizer\[simt-stack\]"
                                                 r" at cycle \d+ \(sm0"):
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())


class TestPayPerChange:
    """The sanitizer re-verifies a warp only when its ``version`` moved
    and an RPT only when its ``changes`` count moved, and sweeps
    everything at launch start and on injector cycles; each case pins
    one edge of that contract."""

    def test_conveyor_corruption_trips_at_release(self):
        """A corrupted conveyor snapshot reaches the RPT through
        ``update`` on a later cycle no injector touches: the table's
        change count must bring it back under check there."""
        corrupted = {}

        def corrupt(gpu, cycle):
            sm = gpu.sms[0]
            for rbq in sm.resilience.rbqs.values():
                for entry in rbq._entries:
                    if not entry.final:
                        entry.snapshot.pc = _off_region_start_pc(sm.kernel)
                        corrupted["entry"] = entry
                        return True
            return False

        injector = _CorruptAt(50, corrupt)
        with pytest.raises(SanitizerError) as err:
            launch("SGEMM", "flame", injector=injector,
                   sanitizer=Sanitizer())
        entry = corrupted["entry"]
        assert err.value.invariant == "rpt-region-start"
        assert err.value.warp_id == entry.warp.id
        assert err.value.cycle == entry.enqueued_at + 20  # WCDL ride
        assert err.value.cycle > injector.fired_at

    @pytest.mark.parametrize("state", [WarpState.IN_RBQ,
                                       WarpState.AT_BARRIER])
    def test_stack_of_idle_warp_trips_at_corruption(self, state):
        """A parked warp issues nothing, so its version stands still:
        the injector cycle's full sweep is what catches it."""
        victim = {}

        def corrupt(gpu, cycle):
            for warp in gpu.sms[0].warps:
                if warp.state is state:
                    warp.stack[-1].pc = -3
                    victim["warp"] = warp
                    return True
            return False

        injector = _CorruptAt(50, corrupt)
        with pytest.raises(SanitizerError) as err:
            launch("SGEMM", "flame", injector=injector,
                   sanitizer=Sanitizer())
        assert err.value.invariant == "simt-stack"
        assert err.value.warp_id == victim["warp"].id
        assert err.value.cycle == injector.fired_at

    def test_reused_sanitizer_sweeps_second_launch(self):
        """A sanitizer attached for a second launch on the same GPU
        re-verifies every warp and every SM's RPT on that launch's
        first check, although the RPTs (and an empty SM's unchanged
        change count) outlive the first launch."""

        class Recording(Sanitizer):
            def __init__(self):
                super().__init__()
                self.warps = []
                self.rpts = []

            def _check_stack(self, sm, warp, cycle):
                self.warps.append((self.checks, warp.id))
                super()._check_stack(sm, warp, cycle)

            def _check_rpt(self, sm, rpt, cycle):
                self.rpts.append((self.checks, sm.id))
                super()._check_rpt(sm, rpt, cycle)

        instance = WORKLOADS["Triad"].instance("tiny")
        compiled = compile_kernel(instance.kernel, "flame", wcdl=20)
        sanitizer = Recording()
        gpu = Gpu(GTX480, resilience=FlameRuntime(20), sanitizer=sanitizer)
        first = []
        for _ in range(2):
            first.append(sanitizer.checks + 1)
            instance.run(compiled, gpu)

        def at(records, check):
            return sorted(item for index, item in records if index == check)

        assert at(sanitizer.warps, first[1]) == at(sanitizer.warps,
                                                   first[0])
        assert at(sanitizer.warps, first[1])
        assert at(sanitizer.rpts, first[1]) == [sm.id for sm in gpu.sms]


class TestNullRuntimeTolerance:
    def test_baseline_scheme_skips_flame_invariants(self):
        """No RPT/RBQ on a baseline GPU: the sanitizer checks what
        exists and does not crash on the null runtime."""
        sanitizer = Sanitizer()
        result, _ = launch("SGEMM", "baseline", sanitizer=sanitizer)
        assert sanitizer.checks > 0
        assert result.cycles > 0
