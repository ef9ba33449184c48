"""Differential test of the incremental WAR scan.

Region formation and compaction scan segment by segment through a
:class:`SegmentTable`, with provenance carried across edits and address
versions that restart at each region boundary.  Every one of those
scans must equal the whole-kernel reference loop in
``tests/compiler/reference_scan.py`` run on the same kernel.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import RegWarPolicy, allocate_registers, form_regions
from repro.compiler.antidep import SegmentTable
from repro.workloads import WORKLOADS
from tests.compiler.reference_scan import reference_scan
from tests.integration.test_property_based import random_kernel


@pytest.fixture
def checked_scans(monkeypatch):
    """Make every ``SegmentTable.scan`` assert equality with the
    reference; yields the list of scanned instruction counts."""
    incremental = SegmentTable.scan
    scanned = []

    def scan(self, kernel, cfg):
        result = incremental(self, kernel, cfg)
        expected = reference_scan(kernel, self.use_provenance)
        assert result.mem_cuts == expected.mem_cuts, kernel.to_asm()
        assert result.reg_wars == expected.reg_wars, kernel.to_asm()
        scanned.append(len(kernel.instructions))
        return result

    monkeypatch.setattr(SegmentTable, "scan", scan)
    return scanned


def _allocated(name):
    return allocate_registers(WORKLOADS[name].instance("tiny").kernel).kernel


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_flame_formation_scans_match_reference(name, checked_scans):
    """Renames, cuts, self-update splits and compaction merges."""
    form_regions(_allocated(name), RegWarPolicy.RENAME, extend_regions=True)
    assert checked_scans


@pytest.mark.parametrize("name", ["SN", "NW", "SGEMM", "WT", "BFS", "BO",
                                  "Histogram"])
def test_ablation_formation_scans_match_reference(name, checked_scans):
    """Provenance-blind renaming (its compaction too) and the
    checkpointing policy, which keeps register WARs."""
    kernel = _allocated(name)
    form_regions(kernel, RegWarPolicy.RENAME, use_provenance=False)
    form_regions(kernel, RegWarPolicy.KEEP)
    assert checked_scans


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(random_kernel())
def test_generated_kernel_scans_match_reference(checked_scans, kernel):
    allocated = allocate_registers(kernel).kernel
    for use_provenance in (True, False):
        form_regions(allocated, RegWarPolicy.RENAME, extend_regions=True,
                     use_provenance=use_provenance)
    form_regions(kernel, RegWarPolicy.RENAME)
    assert checked_scans
