"""The pay-per-change sanitizer against its full-sweep oracle.

:class:`repro.sim.Sanitizer` re-verifies a warp only when its
``version`` moved and a Recovery PC Table only when its ``changes``
count moved; :class:`tests.oracle.ReferenceSanitizer` verifies every
warp and table at every check.  Every trial must come out the same
under both, down to the invariant, SM, warp, cycle and message of the
first :class:`~repro.errors.SanitizerError`.

Tier-1 runs the pinned panel :data:`PIN_SPEC` under both and a
Hypothesis case over random kernels.  The wide panels :data:`WIDE_SPECS`
run as a CI step::

    PYTHONPATH=src python -m tests.integration.test_sanitizer_oracle
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.arch import GTX480
from repro.compiler import compile_kernel, prepare_launch
from repro.core import FaultInjector, runtime_scheme_by_name
from repro.core.campaign import CampaignSpec
from repro.core.injection import ALL_FAULT_SITES
from repro.errors import ReproError, SanitizerError
from repro.harness.campaign import run_campaign
from repro.sim import Gpu, LaunchConfig, Sanitizer
from tests.integration.test_property_based import (LAUNCH, fresh_memory,
                                                   random_kernel, relaxed)
from tests.oracle import ReferenceSanitizer, sanitizer_class

PIN_PATH = (Path(__file__).resolve().parents[1] / "expected"
            / "sanitizer_pin.jsonl")

#: The pinned panel: NW and BFS under baseline, flame and dmr with the
#: RPT and RBQ unhardened.  It trips ``simt-stack`` (baseline strikes on
#: both workloads), and ``rpt-region-start`` both from ``rpt`` strikes,
#: caught at the strike cycle, and from ``rbq`` strikes, caught only when
#: the corrupted region is released into the RPT cycles later.
PIN_SPEC = CampaignSpec(
    workloads=("NW", "BFS"), schemes=("baseline", "flame", "dmr"),
    trials=6, seed=2, scale="tiny",
    sites=("simt_stack", "rpt", "rbq", "dest_reg"), sanitize=True,
    harden_rpt=False, harden_rbq=False)

#: CI's wider panels: five workloads under every scheme that runs them,
#: all six sites, unhardened; then two strikes a trial under a sensor
#: that misses one strike in five and jitters by up to four cycles.
WIDE_SPECS = (
    CampaignSpec(
        workloads=("Histogram", "BFS", "SGEMM", "Kmeans", "NW"),
        schemes=("baseline", "flame", "dmr", "partial_thread"),
        trials=4, seed=11, scale="tiny", sites=ALL_FAULT_SITES,
        sanitize=True, harden_rpt=False, harden_rbq=False),
)
WIDE_SPECS += (dataclasses.replace(WIDE_SPECS[0], strikes_per_trial=2,
                                   sensor_miss_probability=0.2,
                                   sensor_jitter_cycles=4),)


def _journal(spec, cls, path: Path) -> bytes:
    """The journal of ``spec`` run inline under sanitizer class ``cls``."""
    with sanitizer_class(cls):
        run_campaign(spec, workers=1, journal_path=str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def product_journal(tmp_path_factory) -> bytes:
    return _journal(PIN_SPEC, Sanitizer,
                    tmp_path_factory.mktemp("sanitizer") / "product.jsonl")


class TestPinnedPanel:
    def test_journal_matches_committed_pin(self, product_journal):
        """The cycles inside each ``SanitizerError`` detail are pinned
        here, and nowhere else."""
        assert product_journal == PIN_PATH.read_bytes()

    def test_panel_trips_every_memo_path(self, product_journal):
        rows = [json.loads(line)
                for line in product_journal.decode().splitlines()[1:]]
        trips = {(row["site"], row["detail"].split("]")[0])
                 for row in rows if "SanitizerError" in row["detail"]}
        tag = "SanitizerError: sanitizer["
        assert ("simt_stack", tag + "simt-stack") in trips
        assert ("rpt", tag + "rpt-region-start") in trips
        assert ("rbq", tag + "rpt-region-start") in trips

    def test_oracle_journal_equals_product(self, product_journal,
                                           tmp_path):
        assert _journal(PIN_SPEC, ReferenceSanitizer,
                        tmp_path / "oracle.jsonl") == product_journal


def _first_violation(cls, compiled, runtime, launch, strikes, seed):
    """What one struck launch under sanitizer class ``cls`` ends in."""
    gpu = Gpu(GTX480, resilience=runtime, sanitizer=cls())
    gpu.fault_injector = FaultInjector(strike_cycles=strikes, wcdl=20,
                                       seed=seed, site="simt_stack")
    params, mem = prepare_launch(compiled, LAUNCH.params, fresh_memory(),
                                 LAUNCH.num_blocks, LAUNCH.threads_per_block)
    try:
        result = gpu.launch(compiled.kernel, launch(params), mem,
                            regs_per_thread=compiled.regs_per_thread,
                            max_cycles=50_000)
    except SanitizerError as exc:
        return (exc.invariant, exc.sm_id, exc.warp_id, exc.cycle, str(exc))
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return ("finished", result.cycles, mem.tobytes())


class TestRandomKernelStrikes:
    @relaxed
    @given(random_kernel(), st.sampled_from(["baseline", "flame", "dmr"]),
           st.lists(st.integers(1, 400), min_size=1, max_size=2),
           st.integers(0, 2**16))
    def test_same_first_violation(self, kernel, scheme, strikes, seed):
        rscheme = runtime_scheme_by_name(scheme)
        compiled = compile_kernel(kernel, rscheme.compile_scheme, wcdl=20)

        def launch(params):
            return LaunchConfig(grid=LAUNCH.grid, block=LAUNCH.block,
                                params=params)

        outcomes = [
            _first_violation(cls, compiled,
                             rscheme.build(wcdl=20, harden_rpt=False,
                                           harden_rbq=False),
                             launch, strikes, seed)
            for cls in (Sanitizer, ReferenceSanitizer)]
        assert outcomes[0] == outcomes[1]


def main() -> int:
    """Run :data:`WIDE_SPECS` under both sanitizers; exit 1 unless the
    journals are identical."""
    status = 0
    with tempfile.TemporaryDirectory() as workdir:
        for index, spec in enumerate(WIDE_SPECS):
            started = time.perf_counter()
            product = _journal(spec, Sanitizer,
                               Path(workdir) / f"product{index}.jsonl")
            middle = time.perf_counter()
            oracle = _journal(spec, ReferenceSanitizer,
                              Path(workdir) / f"oracle{index}.jsonl")
            done = time.perf_counter()
            rows = product.decode().splitlines()[1:]
            differing = [(a, b) for a, b in
                         zip(rows, oracle.decode().splitlines()[1:])
                         if a != b]
            print(f"{len(rows)} trials, {spec.strikes_per_trial} "
                  f"strike(s), miss {spec.sensor_miss_probability:g}, "
                  f"jitter {spec.sensor_jitter_cycles}: "
                  f"{sum('SanitizerError' in row for row in rows)} "
                  f"SanitizerError rows; product {middle - started:.1f} s, "
                  f"oracle {done - middle:.1f} s; "
                  f"{len(differing)} rows differ")
            if product != oracle:
                status = 1
                for a, b in differing[:5]:
                    print(f"  product {a}\n  oracle  {b}")
    return status


if __name__ == "__main__":
    sys.exit(main())
