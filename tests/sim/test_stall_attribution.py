"""Stall-cause attribution: conservation, exactness, and persistence.

The ledger invariant under test: every cycle an SM spends with at least
one resident block is either an issue cycle or exactly one attributed
stall cycle, per SM, at all times — including across the fast-forward
skip path and checkpoint restore.
"""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.core import runtime_scheme_by_name
from repro.sim import SCHEDULERS, Sanitizer
from repro.sim.stats import STALL_CAUSES
from repro.workloads import workload_by_name
from tests.conftest import prepared_launch, run_compiled
from tests.oracle import assert_matches_oracle

SCHEMES = ["baseline", "flame"]


def _assert_conserved(stats) -> None:
    attributed = sum(stats.stall_cycles.values())
    assert stats.issue_cycles + attributed == stats.active_cycles
    assert stats.idle_cycles == attributed
    per_warp: dict[str, int] = {}
    for ledger in stats.warp_stalls.values():
        for cause, count in ledger.items():
            per_warp[cause] = per_warp.get(cause, 0) + count
    assert per_warp == stats.stall_cycles
    assert set(stats.stall_cycles) <= set(STALL_CAUSES)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_conservation_all_schedulers(scheme, scheduler):
    """issue + attributed stalls == active cycles, with the per-cycle
    sanitizer validating the same equalities at every cycle."""
    instance = workload_by_name("SGEMM").instance("tiny")
    result, _, verified = run_compiled(instance, scheme,
                                       scheduler=scheduler,
                                       sanitizer=Sanitizer())
    assert verified
    _assert_conserved(result.stats)
    assert result.stats.issue_cycles > 0


@pytest.mark.parametrize("workload", ["SGEMM", "Triad"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fast_and_reference_ledgers_identical(workload, scheme):
    """The planned path and the decode-per-issue oracle attribute every
    idle cycle to the same cause and the same warp (``stall_cycles``
    and ``warp_stalls`` are part of the compared stats)."""
    instance = workload_by_name(workload).instance("tiny")
    rscheme = runtime_scheme_by_name(scheme)
    compiled = compile_kernel(instance.kernel, rscheme.compile_scheme,
                              wcdl=20)
    launch, mem = prepared_launch(compiled, instance)
    result, _ = assert_matches_oracle(
        compiled.kernel, launch, mem,
        regs_per_thread=compiled.regs_per_thread,
        resilience=rscheme.build(wcdl=20))
    assert sum(result.stats.stall_cycles.values()) > 0


def test_attribution_is_meaningful():
    """A streaming kernel stalls mostly on memory; flame adds
    verify-wait cycles on top."""
    instance = workload_by_name("Triad").instance("tiny")
    base, _, _ = run_compiled(instance, "baseline")
    stalls = base.stats.stall_cycles
    assert stalls.get("memory_latency", 0) > 0
    assert stalls.get("memory_latency", 0) >= stalls.get("scoreboard_raw", 0)
    flame, _, _ = run_compiled(instance, "flame")
    assert flame.stats.stall_cycles.get("verify_wait", 0) > 0


def test_ledger_survives_checkpoint_restore():
    """Restoring a mid-run checkpoint reproduces the full ledger
    (stall dicts ride the SimStats clone, and the open stall-cause
    context re-derives on the first post-restore tick)."""
    from repro.sim import CheckpointRecorder

    instance = workload_by_name("SGEMM").instance("tiny")
    reference, _, _ = run_compiled(instance, "flame")
    recorder = CheckpointRecorder()
    run_compiled(instance, "flame", recorder=recorder)
    middle = recorder.checkpoints[len(recorder.checkpoints) // 2]
    assert 0 < middle.cycle < reference.cycles
    restored, _, _ = run_compiled(instance, "flame", resume_from=middle,
                                  sanitizer=Sanitizer())
    assert restored.cycles == reference.cycles
    assert restored.stats.stall_cycles == reference.stats.stall_cycles
    assert restored.stats.warp_stalls == reference.stats.warp_stalls


def test_conservation_with_injection():
    """A strike's rollback window books cycles under 'rollback' and the
    ledger still balances exactly."""
    from repro.core.injection import FaultInjector

    instance = workload_by_name("SGEMM").instance("tiny")
    injector = FaultInjector(strike_cycles=[400], wcdl=20, seed=3)
    result, _, _ = run_compiled(instance, "flame", injector=injector,
                                sanitizer=Sanitizer())
    _assert_conserved(result.stats)
    if any(r.landed and not r.missed for r in injector.records):
        assert result.stats.stall_cycles.get("rollback", 0) > 0


def test_traced_run_is_cycle_identical():
    """Attaching a tracer must not change simulation outcomes."""
    from repro.obs import Tracer

    instance = workload_by_name("SGEMM").instance("tiny")
    plain, mem_a, _ = run_compiled(instance, "flame")
    tracer = Tracer()
    traced, mem_b, _ = run_compiled(instance, "flame", tracer=tracer)
    assert plain.cycles == traced.cycles
    assert np.array_equal(mem_a, mem_b)
    assert plain.stats.as_dict() == traced.stats.as_dict()
    assert tracer.emitted > 0
    names = {evt.name for evt in tracer.events}
    assert {"issue", "block_dispatch", "block_retire"} <= names


@pytest.mark.parametrize("workload,scheme", [
    ("Histogram", "flame"), ("Histogram", "dmr"),
    ("Histogram", "partial_thread"), ("SGEMM", "flame")])
def test_one_recovery_books_its_rollback_window(workload, scheme):
    """One uncoalesced recovery books exactly ``rollback_cycles`` to
    'rollback': the window's end is an event, so fast-forward and idle
    elision stop there even when the LSU is still busy at resume."""
    from repro.core.injection import FaultInjector
    from repro.core.schemes import launcher

    _, _, launch = launcher(workload, scheme, "tiny")
    injector = FaultInjector(strike_cycles=[535], seed=535, site="dest_reg")
    result, _ = launch(injector)
    stats = result.stats
    assert (stats.recoveries, stats.coalesced_recoveries) == (1, 0)
    rollback_cycles = runtime_scheme_by_name(scheme).build().rollback_cycles
    assert stats.stall_cycles["rollback"] == rollback_cycles
    _assert_conserved(stats)
