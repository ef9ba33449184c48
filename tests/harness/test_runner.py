"""Experiment runner: execution, caching, and normalization."""

import gc
import weakref

import pytest

import repro.harness.runner as runner_module
from repro.errors import ConfigError
from repro.harness import RunOutcome, Runner, RunSpec, execute, normalized_time


@pytest.fixture
def runner(tmp_path):
    return Runner(cache_dir=str(tmp_path), workers=1)


class TestExecute:
    def test_single_run(self):
        outcome = execute(RunSpec(workload="Triad", scheme="baseline",
                                  scale="tiny"))
        assert outcome.cycles > 0
        assert outcome.verified
        assert outcome.instructions > 0

    def test_flame_run_records_regions(self):
        outcome = execute(RunSpec(workload="Triad", scheme="flame",
                                  scale="tiny"))
        assert outcome.avg_region_size > 0
        assert outcome.boundaries > 0
        assert outcome.rbq_enqueues > 0

    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            execute(RunSpec(workload="NOPE"))

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            execute(RunSpec(workload="Triad", scheme="bogus"))


class TestCaching:
    def test_cache_round_trip(self, runner):
        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        first = runner.run(spec)
        fresh_runner = Runner(cache_dir=runner.cache_dir, workers=1)
        second = fresh_runner.run(spec)
        assert second.cycles == first.cycles
        assert isinstance(second, RunOutcome)

    def test_fresh_bypasses_cache(self, runner):
        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        runner.run(spec)
        fresh = Runner(cache_dir=runner.cache_dir, workers=1, fresh=True)
        assert fresh.run(spec).cycles == runner.run(spec).cycles

    def test_cache_key_distinguishes_fields(self):
        base = RunSpec(workload="Triad")
        assert base.cache_key() != RunSpec(workload="Triad",
                                           wcdl=30).cache_key()
        assert base.cache_key() != RunSpec(workload="Triad",
                                           scheduler="LRR").cache_key()
        assert base.cache_key() != RunSpec(workload="Triad",
                                           gpu="GV100").cache_key()

    def test_run_many_dedups(self, runner):
        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        outcomes = runner.run_many([spec, spec, spec])
        assert len(outcomes) == 3
        assert all(o.cycles == outcomes[0].cycles for o in outcomes)


class TestRunMemory:
    def test_run_frees_its_simulator_state(self, runner, monkeypatch):
        """The compiled kernel and its exec plans sit in reference cycles
        with the simulator; the runner frees them before it returns
        rather than at the collector's next automatic pass."""
        kernels = []
        compile_kernel = runner_module.compile_kernel

        def tracked(*args, **kwargs):
            compiled = compile_kernel(*args, **kwargs)
            kernels.append(weakref.ref(compiled.kernel))
            return compiled

        monkeypatch.setattr(runner_module, "compile_kernel", tracked)
        gc.collect()
        gc.disable()
        try:
            runner.run(RunSpec(workload="Triad", scheme="flame",
                               scale="tiny"))
        finally:
            gc.enable()
        assert len(kernels) == 1
        assert kernels[0]() is None

    def test_run_leaves_nothing_frozen(self, runner):
        """The pre-run freeze that narrows the collection to the run's
        own objects is undone after the run."""
        assert gc.get_freeze_count() == 0
        runner.run(RunSpec(workload="Triad", scheme="baseline",
                           scale="tiny"))
        assert gc.get_freeze_count() == 0

    def test_failing_run_leaves_nothing_frozen(self, runner, monkeypatch):
        def boom(spec):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(runner_module, "execute", boom)
        with pytest.raises(RuntimeError, match="simulated failure"):
            runner.run(RunSpec(workload="Triad", scheme="baseline",
                               scale="tiny"))
        assert gc.get_freeze_count() == 0

    def test_caller_frozen_objects_stay_frozen(self, runner):
        """A caller's freeze survives the run: the runner neither
        unfreezes it nor adds its own (frozen objects that die during
        the run leave the count, so it can only shrink)."""
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            runner.run(RunSpec(workload="Triad", scheme="baseline",
                               scale="tiny"))
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()


class TestCrashSafety:
    def test_store_leaves_no_temp_files(self, runner):
        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        runner.run(spec)
        import os

        files = os.listdir(runner.cache_dir)
        assert not [f for f in files if f.startswith(".tmp_")]
        assert any(f.endswith(".json") for f in files)

    def test_store_is_atomic_replace(self, runner, monkeypatch):
        """A crash mid-write must never leave a truncated cache entry:
        the final payload appears via os.replace or not at all."""
        import json
        import os

        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        outcome = runner.run(spec)
        path = runner._cache_path(spec)
        # The entry on disk parses even though a crashing writer was
        # simulated by failing the json.dump of a second store.
        calls = {"n": 0}
        real_dump = json.dump

        def exploding_dump(obj, handle, **kwargs):
            calls["n"] += 1
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", exploding_dump)
        with pytest.raises(OSError):
            runner._store(outcome)
        monkeypatch.setattr(json, "dump", real_dump)
        with open(path) as handle:
            assert json.load(handle)["cycles"] == outcome.cycles
        assert not [f for f in os.listdir(runner.cache_dir)
                    if f.startswith(".tmp_")]


class TestBatchIsolation:
    def test_one_bad_spec_does_not_abort_batch(self, runner):
        from repro.errors import ReproError

        good = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        bad = RunSpec(workload="NOPE", scheme="baseline", scale="tiny")
        with pytest.raises(ReproError) as info:
            runner.run_many([good, bad])
        # The failure names its own spec, and the good spec completed
        # and was cached despite it.
        assert "NOPE" in str(info.value)
        assert runner._load(good) is not None

    def test_pool_path_isolates_failures(self, tmp_path):
        from repro.errors import ReproError

        runner = Runner(cache_dir=str(tmp_path), workers=2)
        good = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        bad = RunSpec(workload="Triad", scheme="bogus", scale="tiny")
        with pytest.raises(ReproError) as info:
            runner.run_many([good, bad])
        assert "bogus" in str(info.value)
        assert runner._load(good) is not None

    def test_all_good_batch_unchanged(self, runner):
        specs = [RunSpec(workload="Triad", scheme="baseline", scale="tiny"),
                 RunSpec(workload="Triad", scheme="flame", scale="tiny")]
        outcomes = runner.run_many(specs)
        assert len(outcomes) == 2
        assert all(o.verified for o in outcomes)


class TestNormalization:
    def test_baseline_normalizes_to_one(self, runner):
        spec = RunSpec(workload="Triad", scheme="baseline", scale="tiny")
        assert normalized_time(runner, spec) == 1.0

    def test_flame_normalized(self, runner):
        spec = RunSpec(workload="Triad", scheme="flame", scale="tiny")
        ratio = normalized_time(runner, spec)
        assert 0.8 < ratio < 2.0

    def test_baselines_shared_across_wcdl(self, runner):
        for wcdl in (10, 20):
            normalized_time(runner, RunSpec(workload="Triad",
                                            scheme="flame", scale="tiny",
                                            wcdl=wcdl))
        # Only one baseline cache entry should exist.
        import os

        files = os.listdir(runner.cache_dir)
        baselines = [f for f in files if "baseline" in f]
        assert len(baselines) == 1
