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
from repro.isa import Op
from repro.sim import Gpu, Sanitizer, StackEntry
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
    """Fault-injector stand-in: calls ``fn(gpu, cycle)`` once at a given
    cycle, from the same hook point real strikes use."""

    def __init__(self, cycle, fn):
        self.cycle = cycle
        self.fn = fn
        self.fired = False

    def tick(self, gpu, cycle):
        if not self.fired and cycle >= self.cycle:
            self.fired = True
            self.fn(gpu, cycle)

    def next_event(self, cycle):
        return self.cycle if not self.fired else 1 << 62


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
        from repro.isa import Reg

        def corrupt(gpu, cycle):
            warp = gpu.sms[0].warps[0]
            warp.pending[Reg(999)] = cycle + 5

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "scoreboard"
        assert err.value.sm_id == 0
        assert err.value.cycle >= 50

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
            kernel = warp.kernel
            starts = {0}
            for i, inst in enumerate(kernel.instructions):
                if inst.op is Op.RB:
                    starts.update((i, i + 1))
            bad = next(i for i in range(len(kernel.instructions))
                       if i not in starts)
            rpt.entries[warp.id].pc = bad

        with pytest.raises(SanitizerError) as err:
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "rpt-region-start"

    def test_rbq_enqueue_monotonicity(self):
        class CorruptRbq:
            fired = False

            def tick(self, gpu, cycle):
                if self.fired:
                    return
                for rbq in gpu.sms[0].resilience.rbqs.values():
                    if len(rbq._entries) >= 2:
                        # Swap enqueue stamps: the conveyor can only
                        # move forward, so this is unreachable state.
                        a, b = rbq._entries[0], rbq._entries[1]
                        a.enqueued_at, b.enqueued_at = (b.enqueued_at,
                                                        a.enqueued_at)
                        self.fired = True
                        return

            def next_event(self, cycle):
                return cycle + 1 if not self.fired else 1 << 62

        with pytest.raises(SanitizerError) as err:
            launch("SGEMM", "flame", injector=CorruptRbq(),
                   sanitizer=Sanitizer())
        assert err.value.invariant == "rbq-conveyor"

    def test_error_carries_context_in_message(self):
        def corrupt(gpu, cycle):
            gpu.sms[0].warps[0].stack[-1].pc = -3

        with pytest.raises(SanitizerError, match=r"sanitizer\[simt-stack\]"
                                                 r" at cycle \d+ \(sm0"):
            launch("Triad", "flame", injector=_CorruptAt(50, corrupt),
                   sanitizer=Sanitizer())


class TestNullRuntimeTolerance:
    def test_baseline_scheme_skips_flame_invariants(self):
        """No RPT/RBQ on a baseline GPU: the sanitizer checks what
        exists and does not crash on the null runtime."""
        sanitizer = Sanitizer()
        result, _ = launch("SGEMM", "baseline", sanitizer=sanitizer)
        assert sanitizer.checks > 0
        assert result.cycles > 0
