"""The compiler's output, pinned: every workload at tiny under every scheme.

Each case records a SHA-256 of the compiled kernel's assembly, the
registers per thread, every region-formation counter, the residual
register WARs and the checkpoint slot map.  A compiler change that is
meant to be output-neutral (an optimisation, a refactor) must match
the committed pin byte for byte.

Tier-1 checks the figure-regeneration roster plus WT; the full
34-workload pin runs as its own CI job::

    PYTHONPATH=src python -m tests.compiler.test_compile_pin

Regenerate the pin only for a change that intends to alter compiled
output, and say so where the change is described::

    PYTHONPATH=src python -m tests.compiler.test_compile_pin --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.compiler import SCHEMES, compile_kernel
from repro.workloads import WORKLOADS

PIN_PATH = Path(__file__).resolve().parents[1] / "expected" / "compile_pin.json"

#: Every registry scheme, plus the ablation knobs of the harness.
VARIANTS: list[tuple[str, dict]] = [(name, {}) for name in SCHEMES] + [
    ("flame", {"use_provenance": False}),
    ("flame", {"compact": False}),
    ("checkpointing", {"use_provenance": False}),
]

#: The figures-cold roster plus WT, whose cut placement depends on a
#: store's address version surviving the memory cut before it.
TIER1_WORKLOADS = ("SN", "NW", "SGEMM", "LBM", "NN", "WT")

_REGION_COUNTERS = ("boundaries", "war_cuts", "renames",
                    "rename_fallback_cuts", "extended_barriers")


def _variant_name(scheme: str, knobs: dict) -> str:
    flags = ",".join(f"{k}={v}" for k, v in sorted(knobs.items()))
    return f"{scheme}({flags})" if flags else scheme


def compile_record(kernel, scheme: str, knobs: dict) -> dict:
    compiled = compile_kernel(kernel, scheme, **knobs)
    record = {
        "asm_sha256": hashlib.sha256(
            compiled.kernel.to_asm().encode()).hexdigest(),
        "regs_per_thread": compiled.regs_per_thread,
    }
    regions = compiled.regions
    if regions is not None:
        record["regions"] = {name: getattr(regions, name)
                             for name in _REGION_COUNTERS}
        record["residual_reg_wars"] = [[index, repr(var)] for index, var
                                       in regions.residual_reg_wars]
    if compiled.checkpoints is not None:
        record["slot_of"] = {repr(reg): slot for reg, slot
                             in sorted(compiled.checkpoints.slot_of.items(),
                                       key=lambda item: item[1])}
    return record


def pin_records(workloads) -> dict[str, dict]:
    records = {}
    for name in workloads:
        kernel = WORKLOADS[name].instance("tiny").kernel
        for scheme, knobs in VARIANTS:
            records[f"{name}/{_variant_name(scheme, knobs)}"] = \
                compile_record(kernel, scheme, knobs)
    return records


def check_pin(workloads) -> int:
    """Compile ``workloads`` under every variant and compare with the pin;
    returns the number of cases checked."""
    expected = json.loads(PIN_PATH.read_text())
    actual = pin_records(workloads)
    mismatched = sorted(key for key, record in actual.items()
                        if expected.get(key) != record)
    assert not mismatched, (
        f"{len(mismatched)} of {len(actual)} compiles differ from "
        f"{PIN_PATH.name}: {mismatched[:8]}")
    return len(actual)


def test_compile_pin_figure_roster():
    assert check_pin(TIER1_WORKLOADS) == len(TIER1_WORKLOADS) * len(VARIANTS)


def main(argv: list[str]) -> int:
    workloads = list(WORKLOADS)
    if argv == ["--write"]:
        records = pin_records(workloads)
        lines = [f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
                 for key, record in sorted(records.items())]
        PIN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(records)} cases to {PIN_PATH}")
        return 0
    if argv:
        print(__doc__)
        return 2
    print(f"compile pin ok: {check_pin(workloads)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
