"""Traced runs, pinned: cycles and the exact event stream of ten launches.

Each case is one :func:`repro.harness.trace.run_traced` call and records
the cycle count, the number of events and a SHA-256 of the bytes
:func:`repro.obs.write_jsonl` writes.  The panel covers every warp
scheduler under Flame, each compare scheme, two more workloads and a
clean baseline run.  Every strike lands on SM 0 (which holds the blocks
at ``tiny``), is rolled back once and the run verifies, so the streams
carry issue, stall, strike, detection, rollback and region-verify
events.  A simulator, tracer or recovery change that is meant to leave
traced runs alone must match the pin byte for byte::

    PYTHONPATH=src python -m tests.obs.test_trace_pin

Regenerate it only for a change that intends to alter traced runs, and
say so where the change is described::

    PYTHONPATH=src python -m tests.obs.test_trace_pin --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.harness.trace import run_traced
from repro.obs import write_jsonl

PIN_PATH = Path(__file__).resolve().parents[1] / "expected" / "trace_pin.json"

#: (workload, scheme, scheduler, seed); a scheme that does not detect
#: strikes runs clean.
PANEL = [("SGEMM", "flame", scheduler, 1)
         for scheduler in ("GTO", "LRR", "OLD", "2LV")] + [
    ("SGEMM", "dmr", "GTO", 1),
    ("SGEMM", "partial_thread", "GTO", 1),
    ("SGEMM_ABFT", "abft_sgemm", "GTO", 1),
    ("LBM", "flame", "GTO", 1),
    ("NW", "flame", "LRR", 6),
    ("LBM", "baseline", "GTO", 1),
]


def case_name(workload: str, scheme: str, scheduler: str, seed: int) -> str:
    return f"{workload}/{scheme}/{scheduler}/seed{seed}"


def trace_record(workload: str, scheme: str, scheduler: str,
                 seed: int) -> tuple[dict, object]:
    """One traced launch as its pin record, plus the run itself."""
    traced = run_traced(workload, scheme=scheme, scheduler=scheduler,
                        seed=seed, capacity=None)
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        events = write_jsonl(traced.tracer, path)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    finally:
        os.unlink(path)
    return {"cycles": traced.cycles, "events": events,
            "jsonl_sha256": digest}, traced


@pytest.mark.parametrize("case", PANEL, ids=lambda c: case_name(*c))
def test_trace_pin(case):
    record, traced = trace_record(*case)
    assert traced.verified
    if traced.strike_cycle is not None:
        # The strike must exercise recovery, not strike an empty SM.
        (strike,) = traced.injections
        assert (strike.sm_id, strike.landed) == (0, True), strike
        assert traced.stats.recoveries == 1
    expected = json.loads(PIN_PATH.read_text())
    assert record == expected[case_name(*case)]


def main(argv: list[str]) -> int:
    records = {case_name(*case): trace_record(*case)[0] for case in PANEL}
    if argv == ["--write"]:
        PIN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                            + "\n")
        print(f"wrote {len(records)} cases to {PIN_PATH}")
        return 0
    if argv:
        print(__doc__)
        return 2
    expected = json.loads(PIN_PATH.read_text())
    mismatched = sorted(name for name, record in records.items()
                        if expected.get(name) != record)
    if mismatched:
        print(f"{len(mismatched)} of {len(records)} traced runs differ "
              f"from {PIN_PATH.name}: {mismatched}")
        return 1
    print(f"trace pin ok: {len(records)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
