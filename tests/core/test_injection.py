"""Fault injection and end-to-end recovery correctness.

The central claim of the paper: any sensor-detected error is corrected
by idempotent re-execution, producing output identical to a fault-free
run.  These tests corrupt live destination registers mid-flight and
check bit-exact recovery across workloads, seeds, and strike timings.
"""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.core import FaultInjector, FlameRuntime
from repro.sim import Gpu, ResilienceRuntime
from repro.workloads import WORKLOADS
from repro.arch import GTX480

#: Barrier/divergence-heavy but atomic-free workloads (atomics are not
#: replayable, as in the paper's data-race-free model — Section IV).
INJECTABLE = ("SGEMM", "Triad", "LBM", "CS", "NW", "PF", "BP", "GUPS",
              "Hotspot", "SN")


def run_with_faults(abbr, strikes, seed, wcdl=20):
    workload = WORKLOADS[abbr]
    instance = workload.instance("tiny")
    compiled = compile_kernel(instance.kernel, "flame", wcdl=wcdl)

    def launch_once(injector):
        gpu = Gpu(GTX480, resilience=FlameRuntime(wcdl))
        gpu.fault_injector = injector
        return instance.run(compiled, gpu)

    golden_result, golden = launch_once(None)
    injector = FaultInjector(strike_cycles=strikes, wcdl=wcdl, seed=seed)
    faulty_result, faulty = launch_once(injector)
    return golden, faulty, injector, faulty_result


class TestRecoveryCorrectness:
    @pytest.mark.parametrize("abbr", INJECTABLE)
    def test_single_strike_recovers(self, abbr):
        golden, faulty, injector, _ = run_with_faults(
            abbr, strikes=[150], seed=7)
        assert np.allclose(faulty, golden), abbr
        assert len(injector.records) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_strike_burst_recovers(self, seed):
        golden, faulty, injector, result = run_with_faults(
            "SGEMM", strikes=[100 + 83 * i for i in range(10)], seed=seed)
        assert np.allclose(faulty, golden)
        assert result.stats.recoveries == 10

    def test_detection_always_within_wcdl(self):
        _, _, injector, _ = run_with_faults(
            "Triad", strikes=[50, 200, 350], seed=3, wcdl=20)
        for record in injector.records:
            assert 1 <= record.detect_cycle - record.strike_cycle <= 20

    def test_false_positive_recovery_harmless(self):
        """A sensor firing without a landed corruption (bit-masked
        strike) still rolls back; output must stay correct."""
        golden, faulty, injector, result = run_with_faults(
            "LBM", strikes=[60, 61, 62], seed=1)
        assert np.allclose(faulty, golden)
        assert result.stats.recoveries >= 1

    def test_recovery_reexecutes_instructions(self):
        golden, faulty, injector, result = run_with_faults(
            "CS", strikes=[100, 400], seed=2)
        landed = sum(1 for r in injector.records if r.landed)
        assert np.allclose(faulty, golden)
        # Re-execution shows up as extra dynamic instructions vs golden.
        assert result.stats.recoveries == 2

    def test_strike_near_kernel_end(self):
        golden, faulty, injector, _ = run_with_faults(
            "Triad", strikes=[10_000_000], seed=0)
        # Strike beyond kernel end never fires; run is clean.
        assert np.allclose(faulty, golden)
        assert not injector.records


class TestSdcWithoutFlame:
    def test_unprotected_run_corrupts_output(self):
        """Negative control: the same strikes on a baseline GPU produce
        silent data corruption (for at least one seed)."""
        workload = WORKLOADS["Triad"]
        instance = workload.instance("tiny")
        compiled = compile_kernel(instance.kernel, "baseline")
        launch = instance.launch
        golden = instance.fresh_memory()
        Gpu(GTX480).launch(compiled.kernel, launch, golden,
                           regs_per_thread=compiled.regs_per_thread)
        corrupted_runs = 0
        for seed in range(8):
            gpu = Gpu(GTX480)
            gpu.fault_injector = FaultInjector(strike_cycles=[60, 120],
                                               wcdl=20, seed=seed)
            mem = instance.fresh_memory()
            gpu.launch(compiled.kernel, launch, mem,
                       regs_per_thread=compiled.regs_per_thread)
            if not np.allclose(mem, golden):
                corrupted_runs += 1
            assert gpu.fault_injector.undetected >= 0
        assert corrupted_runs > 0

    def test_undetected_counter(self):
        workload = WORKLOADS["Triad"]
        instance = workload.instance("tiny")
        compiled = compile_kernel(instance.kernel, "baseline")
        gpu = Gpu(GTX480)
        injector = FaultInjector(strike_cycles=[80], wcdl=20, seed=1)
        gpu.fault_injector = injector
        mem = instance.fresh_memory()
        gpu.launch(compiled.kernel, instance.launch, mem,
                   regs_per_thread=compiled.regs_per_thread)
        landed = sum(1 for r in injector.records if r.landed)
        assert injector.undetected == landed


class TestInjectorMechanics:
    def test_records_have_victims(self):
        _, _, injector, _ = run_with_faults("SGEMM", strikes=[200], seed=5)
        record = injector.records[0]
        if record.landed:
            assert record.warp_id is not None
            assert record.corrupted_reg is not None

    def test_deterministic_given_seed(self):
        a = run_with_faults("Triad", strikes=[100], seed=9)
        b = run_with_faults("Triad", strikes=[100], seed=9)
        assert a[3].cycles == b[3].cycles

    def test_bad_wcdl_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FaultInjector(strike_cycles=[1], wcdl=0)


def run_site(abbr, site, strikes, seed, wcdl=20, scheme="flame",
             harden_rpt=True, harden_rbq=True, rollback_cycles=1,
             config=GTX480, sensor=None):
    """Like :func:`run_with_faults` but parameterized over the full
    multi-site fault surface."""
    workload = WORKLOADS[abbr]
    instance = workload.instance("tiny")
    compiled = compile_kernel(instance.kernel, scheme, wcdl=wcdl)

    def launch_once(injector):
        if scheme == "flame":
            gpu = Gpu(config, resilience=FlameRuntime(
                wcdl, rollback_cycles=rollback_cycles,
                harden_rpt=harden_rpt, harden_rbq=harden_rbq))
        else:
            gpu = Gpu(config)
        gpu.fault_injector = injector
        return instance.run(compiled, gpu, max_cycles=2_000_000)

    golden_result, golden = launch_once(None)
    injector = FaultInjector(strike_cycles=strikes, wcdl=wcdl, seed=seed,
                             site=site, sensor=sensor)
    faulty_result, faulty = launch_once(injector)
    return golden, faulty, injector, faulty_result


class TestFaultSiteTaxonomy:
    def test_registry_contents(self):
        from repro.core import ALL_FAULT_SITES, FAULT_SITES

        assert ALL_FAULT_SITES == ("dest_reg", "shared_mem", "predicate",
                                   "simt_stack", "rpt", "rbq")
        assert set(FAULT_SITES) == set(ALL_FAULT_SITES)

    def test_unknown_site_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultInjector(strike_cycles=[1], site="cache_tag")

    def test_reregistration_rejected(self):
        from repro.core import FAULT_SITES, register_fault_site
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            register_fault_site(FAULT_SITES["dest_reg"])

    def test_custom_site_registers_and_unregisters(self):
        from repro.core import (FAULT_SITES, FaultSite, fault_site_by_name,
                                register_fault_site)

        class NopSite(FaultSite):
            name = "nop_site"

            def inject(self, injector, gpu, sm, record, rng):
                record.detail = "nop"

        try:
            register_fault_site(NopSite())
            assert fault_site_by_name("nop_site").name == "nop_site"
            FaultInjector(strike_cycles=[], site="nop_site")
        finally:
            FAULT_SITES.pop("nop_site", None)

    def test_records_carry_site(self):
        _, _, injector, _ = run_site("SGEMM", "shared_mem", [100], seed=0)
        assert all(r.site == "shared_mem" for r in injector.records)


class TestSharedMemSite:
    def test_landed_shared_strike_recovers(self):
        golden, faulty, injector, result = run_site(
            "SGEMM", "shared_mem", [100, 200, 300], seed=0)
        assert sum(r.landed for r in injector.records) >= 1
        assert np.allclose(faulty, golden)
        assert result.stats.recoveries >= 1

    @pytest.mark.parametrize("abbr,seed", [("CS", 1), ("NW", 0)])
    def test_recovers_across_workloads(self, abbr, seed):
        golden, faulty, injector, _ = run_site(
            abbr, "shared_mem", [100, 200, 300], seed=seed)
        assert sum(r.landed for r in injector.records) >= 1
        assert np.allclose(faulty, golden)

    def test_corruption_detail_names_address(self):
        _, _, injector, _ = run_site("SGEMM", "shared_mem", [100, 200, 300],
                                     seed=0)
        landed = [r for r in injector.records if r.landed]
        assert all(r.detail.startswith("shared[") for r in landed)


class TestPredicateSite:
    def test_landed_predicate_strike_recovers(self):
        # SN is the only tiny workload with non-address predicate defs.
        golden, faulty, injector, _ = run_site(
            "SN", "predicate", [100, 300, 500], seed=0)
        assert sum(r.landed for r in injector.records) >= 1
        assert np.allclose(faulty, golden)

    def test_baseline_predicate_strike_corrupts(self):
        corrupted = 0
        for seed in range(4):
            golden, faulty, injector, _ = run_site(
                "SN", "predicate", [100, 300, 500], seed=seed,
                scheme="baseline")
            if not np.allclose(faulty, golden):
                corrupted += 1
        assert corrupted > 0

    def test_address_guards_never_struck(self):
        """Every landed predicate strike must be outside the
        address-feeding taint set (hardened-AGU assumption)."""
        _, _, injector, _ = run_site("SN", "predicate", [100, 300, 500],
                                     seed=0)
        for record in injector.records:
            if record.landed:
                assert record.detail.startswith("p")


class TestSimtStackSite:
    def test_flame_rollback_restores_stack(self):
        from repro.errors import ReproError

        recovered = 0
        for seed in range(6):
            try:
                golden, faulty, injector, _ = run_site(
                    "SGEMM", "simt_stack", [200], seed=seed)
            except ReproError:
                continue  # corrupted mask crashed before detection: a DUE
            if any(r.landed for r in injector.records):
                assert np.allclose(faulty, golden)
                recovered += 1
        assert recovered >= 1


class TestFlameStructureSites:
    def test_hardened_rpt_absorbs(self):
        golden, faulty, injector, result = run_site("SGEMM", "rpt", [200],
                                                    seed=0)
        record = injector.records[0]
        assert record.absorbed and not record.landed
        # The sensor still hears the (absorbed) strike: harmless rollback.
        assert result.stats.recoveries >= 1
        assert np.allclose(faulty, golden)

    def test_hardened_rbq_absorbs(self):
        golden, faulty, injector, _ = run_site("SGEMM", "rbq", [200], seed=0)
        assert all(r.absorbed or not r.landed for r in injector.records)
        assert np.allclose(faulty, golden)

    def test_unhardened_rpt_breaks_recovery(self):
        """With RPT parity off, a corrupted recovery PC redirects the
        rollback: measurable SDC/DUE across seeds."""
        from repro.errors import ReproError

        bad = 0
        for seed in range(8):
            try:
                golden, faulty, injector, _ = run_site(
                    "SGEMM", "rpt", [200, 400], seed=seed, harden_rpt=False)
            except ReproError:
                bad += 1
                continue
            if (any(r.landed for r in injector.records)
                    and not np.allclose(faulty, golden)):
                bad += 1
        assert bad >= 2

    def test_baseline_has_no_flame_structures(self):
        golden, faulty, injector, _ = run_site("SGEMM", "rpt", [200], seed=0,
                                               scheme="baseline")
        record = injector.records[0]
        assert not record.landed and not record.absorbed
        assert record.detail == "no RPT on this scheme"
        assert np.allclose(faulty, golden)


class TestImperfectSensor:
    def test_missed_strike_never_detected(self):
        from repro.arch import SensorModel

        sensor = SensorModel(wcdl=20, miss_probability=1.0)
        golden, faulty, injector, result = run_site(
            "Triad", "dest_reg", [60, 120], seed=1, sensor=sensor)
        assert all(r.missed for r in injector.records)
        assert all(r.detect_cycle == -1 for r in injector.records)
        assert result.stats.recoveries == 0
        landed = sum(1 for r in injector.records if r.landed)
        assert injector.undetected == landed

    def test_missed_strikes_cause_sdc_under_flame(self):
        """Sensor misses degrade Flame to the unprotected case."""
        from repro.arch import SensorModel

        sensor = SensorModel(wcdl=20, miss_probability=1.0)
        corrupted = 0
        for seed in range(8):
            golden, faulty, injector, _ = run_site(
                "Triad", "dest_reg", [60, 120], seed=seed, sensor=sensor)
            if not np.allclose(faulty, golden):
                corrupted += 1
        assert corrupted > 0

    def test_sensor_overrides_injector_wcdl(self):
        from repro.arch import SensorModel

        injector = FaultInjector(strike_cycles=[], wcdl=99,
                                 sensor=SensorModel(wcdl=7))
        assert injector.wcdl == 7

    def test_jitter_can_exceed_wcdl(self):
        from repro.arch import SensorModel

        sensor = SensorModel(wcdl=5, jitter_cycles=40)
        _, _, injector, _ = run_site("Triad", "dest_reg",
                                     [50, 100, 150, 200], seed=3,
                                     wcdl=5, sensor=sensor)
        delays = [r.detect_cycle - r.strike_cycle
                  for r in injector.records if not r.missed]
        assert delays and max(delays) > 5


class TestStrikeCycleValidation:
    def test_negative_cycle_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=">= 0"):
            FaultInjector(strike_cycles=[10, -3])

    @pytest.mark.parametrize("bad", [1.5, "100", None, True])
    def test_non_integer_rejected(self, bad):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="integers"):
            FaultInjector(strike_cycles=[bad])

    def test_numpy_integers_accepted(self):
        injector = FaultInjector(
            strike_cycles=list(np.array([30, 10, 20], dtype=np.int64)))
        assert injector.strike_cycles == [10, 20, 30]
        assert all(type(c) is int for c in injector.strike_cycles)


class TestAddressDefCache:
    """The address-def set is cached on the kernel object, so every
    trial of a campaign cell (each with a fresh injector) shares one
    analysis, and an entry is served only to the exact instruction
    objects and labels it was computed on."""

    @staticmethod
    def _compiled(abbr="Triad"):
        return compile_kernel(WORKLOADS[abbr].instance("tiny").kernel,
                              "flame", wcdl=20).kernel

    @staticmethod
    def _count_analyses(monkeypatch):
        from repro.core import injection

        calls = []
        analyse = injection._taint_address_defs

        def counted(kernel):
            calls.append(kernel)
            return analyse(kernel)

        monkeypatch.setattr(injection, "_taint_address_defs", counted)
        return calls

    def test_cache_hit_returns_same_set(self):
        from repro.core.injection import address_defs

        kernel = self._compiled()
        first = address_defs(kernel)
        assert isinstance(first, frozenset)
        assert address_defs(kernel) is first

    def test_stale_id_reuse_not_served(self):
        """An entry recorded for other instruction objects (whose ids a
        later kernel could reuse once they die) is never served."""
        from repro.core.injection import address_defs

        kernel = self._compiled()
        other = self._compiled("SGEMM")
        poison = frozenset({123456})
        kernel.__dict__["_address_defs"] = (
            tuple(map(id, other.instructions)),
            tuple(sorted(other.labels.items())),
            tuple(other.instructions), poison)
        assert address_defs(kernel) != poison
        assert address_defs(kernel) == address_defs(self._compiled())

    def test_dead_referent_recomputed(self, monkeypatch):
        """The entry pins the instructions it was computed on, so their
        ids cannot be recycled: swapping in fresh (equal) instruction
        objects and collecting the old ones recomputes the set."""
        import copy
        import gc

        from repro.core.injection import address_defs

        kernel = self._compiled()
        expected = address_defs(kernel)
        ids, labels, pinned, _ = kernel.__dict__["_address_defs"]
        kernel.__dict__["_address_defs"] = (ids, labels, pinned,
                                            frozenset({999}))
        kernel.instructions = [copy.copy(inst)
                               for inst in kernel.instructions]
        del pinned
        gc.collect()
        calls = self._count_analyses(monkeypatch)
        assert address_defs(kernel) == expected
        assert len(calls) == 1

    def test_trials_of_one_cell_analyse_once(self, monkeypatch):
        from repro.core import campaign as campaign_module
        from repro.core.campaign import TrialSpec, run_trial

        campaign_module._GOLDEN_CACHE.clear()
        calls = self._count_analyses(monkeypatch)
        results = [run_trial(TrialSpec(workload="SGEMM", scheme="flame",
                                       index=i, campaign_seed=5))
                   for i in range(5)]
        assert sum(r.landed for r in results) >= 2
        assert len(calls) == 1

    def test_editing_the_kernel_invalidates_the_set(self, monkeypatch):
        """Replacing an instruction (how compiler passes edit kernels)
        recomputes: here the store's address moves from one producer to
        the other, and the cached set follows it."""
        import dataclasses

        from repro.core.injection import address_defs
        from repro.isa import KernelBuilder

        b = KernelBuilder("swap", num_params=1)
        (ptr,) = b.params(1)
        i = b.tid_x()
        addr = b.add(i, ptr)
        value = b.mul(i, 2.0)
        b.st_global(addr, value)
        kernel = b.build()
        add_at = next(k for k, inst in enumerate(kernel.instructions)
                      if inst.dst == addr)
        mul_at = next(k for k, inst in enumerate(kernel.instructions)
                      if inst.dst == value)
        store_at = next(k for k, inst in enumerate(kernel.instructions)
                        if inst.info.is_store)
        before = address_defs(kernel)
        assert add_at in before and mul_at not in before

        calls = self._count_analyses(monkeypatch)
        store = kernel.instructions[store_at]
        kernel.instructions[store_at] = dataclasses.replace(
            store, srcs=(value, addr))
        after = address_defs(kernel)
        assert mul_at in after and add_at not in after
        assert address_defs(kernel) is after
        assert len(calls) == 1


class TestRecoveryStorm:
    """Satellite of the multi-site fault surface: a strike landing after
    a detection but before its rollback completes must trigger its own
    (coalesced) recovery, never be silently credited to the first."""

    def _one_sm_config(self):
        import dataclasses

        return dataclasses.replace(GTX480, sim_sms=1)

    def test_nested_detection_coalesces(self):
        golden, faulty, injector, result = run_site(
            "SGEMM", "dest_reg", [100, 102], seed=3, wcdl=1,
            rollback_cycles=5, config=self._one_sm_config())
        # wcdl=1 pins both detections (101, 103) inside the first
        # rollback window [101, 106): the second coalesces.
        assert [r.detect_cycle for r in injector.records] == [101, 103]
        assert result.stats.recoveries == 1
        assert result.stats.coalesced_recoveries == 1
        assert result.stats.detected_errors == 2
        assert np.allclose(faulty, golden)

    def test_spaced_detections_recover_independently(self):
        golden, faulty, injector, result = run_site(
            "SGEMM", "dest_reg", [100, 150], seed=3, wcdl=1,
            rollback_cycles=5, config=self._one_sm_config())
        assert result.stats.recoveries == 2
        assert result.stats.coalesced_recoveries == 0
        assert result.stats.detected_errors == 2
        assert np.allclose(faulty, golden)

    def test_second_strike_not_credited_to_first_detection(self):
        """The second record's own sensing delay must elapse before it
        is marked recovered — it is never attributed to the rollback
        already in flight when it struck."""
        _, _, injector, _ = run_site(
            "SGEMM", "dest_reg", [100, 102], seed=3, wcdl=1,
            rollback_cycles=5, config=self._one_sm_config())
        first, second = injector.records
        assert second.detect_cycle > first.detect_cycle
        assert first.recovered and second.recovered

    def test_rollback_cycles_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            FlameRuntime(wcdl=20, rollback_cycles=0)


class _StubRuntime(ResilienceRuntime):
    recovers_on_detection = True

    def __init__(self):
        self.recoveries = []

    def recover(self, cycle):
        self.recoveries.append(cycle)


class _StubSm:
    def __init__(self, sm_id, runtime):
        self.id = sm_id
        self.resilience = runtime


class _StubGpu:
    tracer = None

    def __init__(self, sms):
        self.sms = sms


class TestRecoveryAttribution:
    """Overlapping strikes on one SM: a detection event may only credit
    records whose own sensing delay has elapsed — a later strike's
    corruption can land *after* this rollback and must not be counted
    as recovered by it."""

    def _injector_with_records(self, detect_cycles, sm_id=0):
        from repro.core import InjectionRecord

        injector = FaultInjector(strike_cycles=[], wcdl=20, seed=0)
        for dc in detect_cycles:
            injector.records.append(InjectionRecord(
                strike_cycle=dc - 5, detect_cycle=dc, sm_id=sm_id,
                landed=True))
        return injector

    def test_pending_strike_not_credited_to_earlier_detection(self):
        runtime = _StubRuntime()
        gpu = _StubGpu([_StubSm(0, runtime)])
        injector = self._injector_with_records([10, 30])
        injector._detect(gpu, sm_id=0, cycle=10)
        first, second = injector.records
        assert first.recovered
        assert not second.recovered  # its own sensor has not fired yet
        assert runtime.recoveries == [10]

    def test_later_detection_credits_remaining_record(self):
        runtime = _StubRuntime()
        gpu = _StubGpu([_StubSm(0, runtime)])
        injector = self._injector_with_records([10, 30])
        injector._detect(gpu, sm_id=0, cycle=10)
        injector._detect(gpu, sm_id=0, cycle=30)
        assert all(r.recovered for r in injector.records)
        assert runtime.recoveries == [10, 30]

    def test_other_sm_records_untouched(self):
        from repro.core import InjectionRecord

        runtime = _StubRuntime()
        gpu = _StubGpu([_StubSm(0, runtime), _StubSm(1, _StubRuntime())])
        injector = self._injector_with_records([10])
        injector.records.append(InjectionRecord(
            strike_cycle=5, detect_cycle=10, sm_id=1, landed=True))
        injector._detect(gpu, sm_id=0, cycle=10)
        assert injector.records[0].recovered
        assert not injector.records[1].recovered


#: ROADMAP open item "Atomics break Flame's recovery claim": region
#: formation puts a boundary only before each atomic, and a rollback
#: resets every warp of the SM to its RPT entry, so a warp whose
#: post-atomic region has not verified replays an atomic add that
#: already committed.  Flip these to passing tests when the mend lands
#: in ``RecoveryRuntime._reset``/``_rollback``.
ATOMIC_REPLAY = pytest.mark.xfail(
    strict=True, reason="ROADMAP: atomics break Flame's recovery claim "
    "(a rollback replays a committed atomic)")

#: (scheme, strike cycle and injector seed, site) of the Histogram tiny
#: strikes that expose the replay: an absorbed ``rpt`` strike whose
#: sensor detection alone rolls flame back (39 words differ), and one
#: landed ``dest_reg`` strike that flame and dmr both roll back (56 and
#: 63 words differ).
ATOMIC_STRIKES = [("flame", 468, "rpt"), ("flame", 535, "dest_reg"),
                  ("dmr", 535, "dest_reg")]


def run_histogram(scheme, injector=None):
    from repro.core.schemes import launcher

    _, _, launch = launcher("Histogram", scheme, "tiny")
    return launch(injector)[0]


class TestAtomicReplay:
    """A rollback on an atomic workload must leave memory as the
    fault-free run does."""

    @pytest.mark.parametrize("scheme,cycle,site", ATOMIC_STRIKES)
    def test_strike_triggers_one_rollback(self, scheme, cycle, site):
        injector = FaultInjector(strike_cycles=[cycle], seed=cycle,
                                 site=site)
        result = run_histogram(scheme, injector)
        record, = injector.records
        assert record.absorbed if site == "rpt" else record.landed
        assert result.stats.recoveries == 1

    @ATOMIC_REPLAY
    @pytest.mark.parametrize("scheme,cycle,site", ATOMIC_STRIKES)
    def test_rollback_leaves_golden_memory(self, scheme, cycle, site):
        golden = run_histogram(scheme).global_mem
        faulty = run_histogram(scheme, FaultInjector(
            strike_cycles=[cycle], seed=cycle, site=site)).global_mem
        assert np.array_equal(faulty, golden)
