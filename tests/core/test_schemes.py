"""The pluggable resilience-scheme registry: lookup, registration,
validation, and the campaign spec's scheme vetting."""

import pytest

from repro.core import (AbftSgemmRuntime, CampaignSpec, DmrRuntime,
                        PartialThreadRuntime, RUNTIME_SCHEMES,
                        campaign_schemes, default_campaign_schemes,
                        register_scheme, runtime_scheme_by_name)
from repro.core.runtime import FlameRuntime
from repro.errors import ConfigError
from repro.sim import NULL_RESILIENCE


def test_builtin_roster():
    """Every scheme the issue names resolves, with the right bindings."""
    assert runtime_scheme_by_name("baseline").compile_scheme == "baseline"
    assert runtime_scheme_by_name("flame").compile_scheme == "flame"
    dmr = runtime_scheme_by_name("dmr")
    assert dmr.compile_scheme == "duplication_renaming"
    assert dmr.detects and dmr.campaign
    partial = runtime_scheme_by_name("partial_thread")
    assert partial.compile_scheme == "renaming"
    abft = runtime_scheme_by_name("abft_sgemm")
    assert abft.workloads == ("SGEMM", "SGEMM_ABFT")
    assert abft.supports_workload("SGEMM_ABFT")
    assert not abft.supports_workload("LBM")
    # Unrestricted schemes support anything.
    assert dmr.supports_workload("LBM")


def test_unknown_name_lists_runnable_schemes():
    with pytest.raises(ConfigError) as err:
        runtime_scheme_by_name("tmr")
    message = str(err.value)
    assert "unknown resilience scheme 'tmr'" in message
    # The suggestion list is the campaign-runnable set, not the full
    # table: compile-only timing variants would be dead ends here.
    assert "flame" in message and "dmr" in message
    assert "hybrid_renaming" not in message


def test_campaign_schemes_excludes_compile_only():
    runnable = campaign_schemes()
    assert "baseline" in runnable and "abft_sgemm" in runnable
    assert "renaming" not in runnable
    assert "hybrid_checkpointing" not in runnable
    # Compile-only entries are still resolvable (timing studies use
    # them), just not campaignable.
    assert not runtime_scheme_by_name("renaming").campaign


def test_default_campaign_schemes_are_runnable():
    defaults = default_campaign_schemes()
    assert defaults == ("baseline", "flame")
    for name in defaults:
        assert runtime_scheme_by_name(name).campaign


def test_build_runtime_types():
    def build(name: str, **knobs):
        return runtime_scheme_by_name(name).build(**knobs)

    assert build("baseline") is NULL_RESILIENCE
    assert isinstance(build("flame", wcdl=24), FlameRuntime)
    assert isinstance(build("dmr"), DmrRuntime)
    assert isinstance(build("partial_thread"), PartialThreadRuntime)
    assert isinstance(build("abft_sgemm"), AbftSgemmRuntime)


def test_register_scheme_round_trip():
    @register_scheme("test_scheme_rt", compile_scheme="renaming",
                     detects=True, workloads=["SGEMM"],
                     description="test-only entry")
    def _factory(wcdl=20, harden_rpt=True, harden_rbq=True):
        return NULL_RESILIENCE

    try:
        scheme = runtime_scheme_by_name("test_scheme_rt")
        assert scheme.factory is _factory
        assert scheme.workloads == ("SGEMM",)  # normalized to tuple
        assert scheme.build(wcdl=32) is NULL_RESILIENCE
        assert "test_scheme_rt" in campaign_schemes()
    finally:
        del RUNTIME_SCHEMES["test_scheme_rt"]


def test_register_scheme_rejects_duplicates():
    with pytest.raises(ConfigError, match="already registered"):
        register_scheme("flame", compile_scheme="flame",
                        description="imposter")(lambda **kw: None)


def test_register_scheme_validates_compile_binding():
    with pytest.raises(ConfigError):
        register_scheme("test_scheme_bad", compile_scheme="no_such_pass",
                        description="broken binding")(lambda **kw: None)
    assert "test_scheme_bad" not in RUNTIME_SCHEMES


def test_registry_listing_order_is_registration_order():
    names = list(RUNTIME_SCHEMES)
    assert names.index("baseline") < names.index("flame")
    assert names.index("flame") < names.index("dmr")
    runnable = campaign_schemes()
    assert runnable.index("dmr") < runnable.index("partial_thread")


def _spec(**kwargs):
    defaults = dict(workloads=("Triad",), schemes=("baseline", "flame"),
                    sites=("dest_reg",), trials=1, seed=7, scale="tiny")
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def test_campaign_spec_rejects_unknown_scheme():
    with pytest.raises(ConfigError, match="unknown resilience scheme"):
        _spec(schemes=("baseline", "nope"))


def test_campaign_spec_rejects_duplicate_scheme():
    with pytest.raises(ConfigError, match="more than once"):
        _spec(schemes=("flame", "baseline", "flame"))


def test_campaign_spec_rejects_compile_only_scheme():
    with pytest.raises(ConfigError, match="compile-only"):
        _spec(schemes=("baseline", "renaming"))


def test_campaign_spec_rejects_workload_incompatible_scheme():
    with pytest.raises(ConfigError, match="only supports workloads"):
        _spec(schemes=("baseline", "abft_sgemm"))
    # ...but accepts the pairing on a supported workload.
    spec = _spec(workloads=("SGEMM_ABFT",),
                 schemes=("baseline", "abft_sgemm"))
    assert spec.schemes == ("baseline", "abft_sgemm")


def test_campaign_spec_accepts_all_runtime_competitors():
    spec = _spec(schemes=("baseline", "flame", "dmr", "partial_thread"))
    assert len(spec.schemes) == 4


def test_runtime_instances_are_fresh_per_build():
    first = runtime_scheme_by_name("dmr").build()
    second = runtime_scheme_by_name("dmr").build()
    assert first is not second
