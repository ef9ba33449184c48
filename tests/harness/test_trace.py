"""``run_traced``: the struck launch runs under a campaign trial's
cycle budget."""

import pytest

from repro.core.campaign import TrialSpec, cycle_budget
from repro.errors import SimTimeout
from repro.harness.trace import run_traced


def test_budget_is_the_trial_default():
    trial = TrialSpec(workload="LBM", scheme="flame", index=0,
                      campaign_seed=0)
    assert cycle_budget(100) == trial.min_cycle_budget
    assert cycle_budget(10_000) == int(10_000 * trial.max_cycles_factor)


def test_livelocking_strike_times_out():
    """A partial_thread ``simt_stack`` strike (LBM, seed 1, cycle 195)
    livelocks the kernel; the traced run stops at the budget instead of
    running on to ``MAX_CYCLES``."""
    with pytest.raises(SimTimeout, match="cycle budget"):
        run_traced("LBM", "partial_thread", site="simt_stack", seed=1)
