"""Flame's contribution: RBQ/RPT hardware, WCDL-aware warp scheduling,
the recovery protocol, fault injection, and hardware-cost accounting.
"""

from .campaign import (CampaignJournal, CampaignSpec, CellAggregate,
                       TrialResult, TrialSpec, aggregate, run_trial,
                       wilson_interval)
from .competitors import (AbftSgemmRuntime, DmrRuntime, PartialThreadRuntime)
from .hwcost import HardwareCost, flame_hardware_cost
from .injection import (ALL_FAULT_SITES, FAULT_SITES, FaultInjector,
                        FaultSite, InjectionRecord, fault_site_by_name,
                        register_fault_site)
from .rbq import RbqEntry, RegionBoundaryQueue
from .rpt import RecoveryPcTable
from .runtime import FlameRuntime
from .schemes import (RUNTIME_SCHEMES, RuntimeScheme, campaign_schemes,
                      default_campaign_schemes, register_scheme,
                      runtime_scheme_by_name)

__all__ = [
    "ALL_FAULT_SITES", "AbftSgemmRuntime", "CampaignJournal", "CampaignSpec",
    "CellAggregate", "DmrRuntime", "FAULT_SITES", "FaultInjector",
    "FaultSite", "FlameRuntime", "HardwareCost", "InjectionRecord",
    "PartialThreadRuntime", "RUNTIME_SCHEMES", "RbqEntry", "RecoveryPcTable",
    "RegionBoundaryQueue", "RuntimeScheme", "TrialResult",
    "TrialSpec", "aggregate", "campaign_schemes",
    "default_campaign_schemes", "fault_site_by_name", "flame_hardware_cost",
    "register_fault_site", "register_scheme", "run_trial",
    "runtime_scheme_by_name", "wilson_interval",
]
