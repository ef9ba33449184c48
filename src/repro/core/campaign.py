"""Monte Carlo fault-injection campaigns.

Statistical validation of the paper's resilience claim: sample N
independent strike trials per (workload, scheme, GPU, WCDL) cell, run
each against a fault-free golden execution, and classify the outcome
into the standard taxonomy —

* **masked** — the strike never became architecturally visible (it
  missed every live destination register, or the corrupted value was
  overwritten / never propagated to memory);
* **sdc** — silent data corruption: the run finished but its memory
  image differs from the golden run;
* **due_hang** — detected unrecoverable event: the corrupted state
  drove the kernel past its cycle budget (or wall clock) — the trial's
  :class:`~repro.errors.SimTimeout`;
* **due_crash** — the simulator raised (deadlock, launch fault, …)
  instead of finishing;
* **recovered** — a landed strike was sensed within WCDL and the
  all-warp rollback restored bit-exact output;
* **infra_error** — the trial itself could not be executed (worker
  death after bounded retries); reported separately, never counted in
  resilience rates.

Rates come with Wilson score confidence intervals, the standard choice
for small-count binomial proportions (an SDC count of 0 out of 200
still yields an honest nonzero upper bound).

Every completed trial is journaled as one JSON line, appended
atomically, so an interrupted campaign resumes exactly where it
stopped and partial results are always reportable.  Trial sampling is
a pure function of ``(campaign seed, workload, scheme, trial index)``
— resume order cannot change any outcome.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError, ReproError, SimTimeout
from ..obs.metrics import SIM_COUNTERS

#: Outcome taxonomy (string constants so records serialize naturally).
MASKED = "masked"
SDC = "sdc"
DUE_HANG = "due_hang"
DUE_CRASH = "due_crash"
RECOVERED = "recovered"
INFRA_ERROR = "infra_error"

OUTCOMES = (MASKED, SDC, DUE_HANG, DUE_CRASH, RECOVERED, INFRA_ERROR)

#: Outcomes that falsify the resilience claim when seen under a
#: sensor-protected scheme.
UNRECOVERED = (SDC, DUE_HANG, DUE_CRASH)


#: Faulty-run cycle budget = max(MIN_CYCLE_BUDGET,
#: golden_cycles * MAX_CYCLES_FACTOR): the spec defaults below, and the
#: budget of a traced strike (``repro.harness.trace``).
MAX_CYCLES_FACTOR = 20.0
MIN_CYCLE_BUDGET = 10_000


def cycle_budget(golden_cycles: int, factor: float = MAX_CYCLES_FACTOR,
                 minimum: int = MIN_CYCLE_BUDGET) -> int:
    """Cycle budget of a struck run whose fault-free run took
    ``golden_cycles``: a strike that hangs or livelocks the kernel
    surfaces as a ``SimTimeout`` instead of running on to ``MAX_CYCLES``."""
    return max(minimum, int(golden_cycles * factor))


#: Spec fields that steer *how* trials are executed, not *what* they
#: compute — excluded from :meth:`CampaignSpec.campaign_id` so direct
#: and checkpointed runs share journals.
_NON_IDENTITY_FIELDS = ("checkpoint", "checkpoint_interval")


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """One campaign: ``trials`` independent strikes per (workload,
    scheme) cell, all sharing one GPU / scheduler / WCDL / scale."""

    workloads: tuple[str, ...]
    schemes: tuple[str, ...] = ("baseline", "flame")
    trials: int = 200
    seed: int = 0
    scale: str = "tiny"
    gpu: str = "GTX480"
    scheduler: str = "GTO"
    wcdl: int = 20
    strikes_per_trial: int = 1
    #: Fault sites to sweep (each is its own campaign cell dimension).
    sites: tuple[str, ...] = ("dest_reg",)
    #: Imperfect-sensor knobs (0/0 = the paper's ideal detector).
    sensor_miss_probability: float = 0.0
    sensor_jitter_cycles: int = 0
    #: Attach the per-cycle architectural sanitizer to every run.
    sanitize: bool = False
    #: Parity protection of Flame's own structures.
    harden_rpt: bool = True
    harden_rbq: bool = True
    #: Faulty-run cycle budget (see :func:`cycle_budget`).
    max_cycles_factor: float = MAX_CYCLES_FACTOR
    min_cycle_budget: int = MIN_CYCLE_BUDGET
    #: Per-trial wall-clock budget (seconds); 0 disables the alarm.
    timeout_s: float = 120.0
    #: Checkpoint-accelerated execution: fast-start each trial from the
    #: golden checkpoint at/below its earliest strike cycle, and stop
    #: early once the faulty machine state reconverges with the
    #: golden run.  Pure execution strategy — per-trial classifications
    #: and aggregates are byte-identical to direct mode.
    checkpoint: bool = True
    #: Golden checkpoint spacing in cycles (0 = adaptive, ~64 evenly
    #: spaced checkpoints regardless of run length).
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigError("campaign needs at least one workload")
        if not self.schemes:
            raise ConfigError("campaign needs at least one scheme")
        if not self.sites:
            raise ConfigError("campaign needs at least one fault site")
        from .injection import fault_site_by_name
        for site in self.sites:
            fault_site_by_name(site)  # fail fast on unknown sites
        from .schemes import runtime_scheme_by_name
        seen = set()
        for name in self.schemes:
            scheme = runtime_scheme_by_name(name)  # unknown -> ConfigError
            if name in seen:
                raise ConfigError(
                    f"scheme {name!r} appears more than once in the "
                    f"campaign spec")
            seen.add(name)
            if not scheme.campaign:
                from .schemes import campaign_schemes
                raise ConfigError(
                    f"scheme {name!r} is compile-only and cannot be "
                    f"campaigned; campaign-runnable schemes: "
                    f"{', '.join(campaign_schemes())}")
            for workload in self.workloads:
                if not scheme.supports_workload(workload):
                    raise ConfigError(
                        f"scheme {name!r} only supports workloads "
                        f"{', '.join(scheme.workloads)}; campaign names "
                        f"{workload!r}")
        if not 0.0 <= self.sensor_miss_probability < 1.0:
            raise ConfigError("sensor miss probability must be in [0, 1)")
        if self.sensor_jitter_cycles < 0:
            raise ConfigError("sensor jitter must be >= 0 cycles")
        if self.trials < 1:
            raise ConfigError("campaign needs at least one trial")
        if self.strikes_per_trial < 1:
            raise ConfigError("each trial needs at least one strike")
        if self.max_cycles_factor <= 0 or self.min_cycle_budget < 1:
            raise ConfigError("cycle budget parameters must be positive")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint interval must be >= 0 (0 = auto)")

    def campaign_id(self) -> str:
        """Stable identifier for journaling / resume.

        Execution-strategy fields are excluded: a checkpointed campaign
        produces byte-identical trials to a direct one, so both may
        share (and resume) the same journal.
        """
        fields = {name: value for name, value in asdict(self).items()
                  if name not in _NON_IDENTITY_FIELDS}
        ident = json.dumps(fields, sort_keys=True)
        return f"{zlib.crc32(ident.encode()) & 0xFFFFFFFF:08x}"

    def cells(self) -> list[tuple[str, str, str]]:
        return [(w, s, f) for w in self.workloads for s in self.schemes
                for f in self.sites]

    @staticmethod
    def from_dict(data: dict) -> "CampaignSpec":
        """Rebuild a spec from ``asdict`` output (journal headers, shard
        assignment files) — JSON round-trips lists; the spec wants
        tuples."""
        data = dict(data)
        for name in ("workloads", "schemes", "sites"):
            data[name] = tuple(data[name])
        return CampaignSpec(**data)

    def trial_specs(self) -> list["TrialSpec"]:
        return [
            TrialSpec(workload=w, scheme=s, site=f, index=i,
                      campaign_seed=self.seed,
                      scale=self.scale, gpu=self.gpu,
                      scheduler=self.scheduler, wcdl=self.wcdl,
                      strikes=self.strikes_per_trial,
                      sensor_miss_probability=self.sensor_miss_probability,
                      sensor_jitter_cycles=self.sensor_jitter_cycles,
                      sanitize=self.sanitize,
                      harden_rpt=self.harden_rpt,
                      harden_rbq=self.harden_rbq,
                      max_cycles_factor=self.max_cycles_factor,
                      min_cycle_budget=self.min_cycle_budget,
                      timeout_s=self.timeout_s,
                      checkpoint=self.checkpoint,
                      checkpoint_interval=self.checkpoint_interval)
            for w, s, f in self.cells() for i in range(self.trials)
        ]


@dataclass(frozen=True)
class TrialSpec:
    """One Monte Carlo trial, self-contained and picklable."""

    workload: str
    scheme: str
    index: int
    campaign_seed: int
    site: str = "dest_reg"
    scale: str = "tiny"
    gpu: str = "GTX480"
    scheduler: str = "GTO"
    wcdl: int = 20
    strikes: int = 1
    sensor_miss_probability: float = 0.0
    sensor_jitter_cycles: int = 0
    sanitize: bool = False
    harden_rpt: bool = True
    harden_rbq: bool = True
    max_cycles_factor: float = MAX_CYCLES_FACTOR
    min_cycle_budget: int = MIN_CYCLE_BUDGET
    timeout_s: float = 120.0
    checkpoint: bool = True
    checkpoint_interval: int = 0

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.workload, self.scheme, self.site, self.index)

    def rng(self) -> np.random.Generator:
        """Per-trial generator: a pure function of the campaign seed and
        the trial's coordinates, so outcomes are independent of the
        order (or process) in which trials execute."""
        return np.random.default_rng([
            self.campaign_seed & 0xFFFFFFFF,
            zlib.crc32(self.workload.encode()),
            zlib.crc32(self.scheme.encode()),
            zlib.crc32(self.site.encode()),
            self.index,
        ])


@dataclass
class TrialResult:
    """Outcome of one trial (also the journal record schema)."""

    workload: str
    scheme: str
    index: int
    outcome: str
    site: str = "dest_reg"
    strike_cycles: list[int] = field(default_factory=list)
    injector_seed: int = 0
    golden_cycles: int = 0
    cycles: int = 0
    landed: int = 0
    recoveries: int = 0
    detail: str = ""
    attempts: int = 1
    # Telemetry (heartbeat metrics; not part of outcome classification).
    # Excluded from as_dict so journal records stay deterministic and
    # byte-identical across execution strategies (direct vs
    # checkpoint-accelerated, cold vs warm golden cache).
    wall_time_s: float = 0.0
    fast_start: bool = False
    converged: bool = False
    golden_cache_hit: bool = False
    #: Golden data came from the cross-worker shared-memory segment
    #: (repro.core.goldens) instead of a local simulation.
    golden_shared: bool = False
    #: The faulty run's exported ``SimStats`` counters, keyed by the
    #: names in ``repro.obs.metrics.SIM_COUNTERS``.  Convergence
    #: early-exit makes them execution-strategy-dependent, hence
    #: telemetry, not outcome.
    telemetry: dict = field(default_factory=dict)

    #: Attribute names carrying run-environment telemetry, not outcome.
    TELEMETRY_FIELDS = ("wall_time_s", "fast_start", "converged",
                        "golden_cache_hit", "golden_shared", "telemetry")

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.workload, self.scheme, self.site, self.index)

    def as_dict(self) -> dict:
        data = asdict(self)
        for name in self.TELEMETRY_FIELDS:
            del data[name]
        return data

    @staticmethod
    def from_dict(data: dict) -> "TrialResult":
        return TrialResult(**data)


# ----------------------------------------------------------------------
# Trial execution (runs inside worker processes — module-level and
# import-light so it pickles cleanly)
# ----------------------------------------------------------------------
#: Per-process memo of golden runs: compiling a workload and simulating
#: it fault-free once per worker amortizes across that worker's trials.
#: Bounded LRU (``REPRO_GOLDEN_CACHE`` entries, default 8) — sweeping
#: many (workload, scheme, scheduler) cells in one process no longer
#: accumulates a golden memory image plus checkpoint set per cell.
#: Entries are ``[launch_once, golden_cycles, golden_mem, recorder]``;
#: ``recorder`` stays ``None`` until a checkpointed trial needs it, so
#: direct-mode campaigns never pay for checkpoint recording.
_GOLDEN_CACHE: "OrderedDict[tuple, list]" = OrderedDict()

_GOLDEN_CACHE_DEFAULT = 8


def _golden_cache_limit() -> int:
    raw = os.environ.get("REPRO_GOLDEN_CACHE", "")
    try:
        limit = int(raw)
    except ValueError:
        limit = _GOLDEN_CACHE_DEFAULT
    return max(1, limit if raw else _GOLDEN_CACHE_DEFAULT)


def golden_key(trial: TrialSpec) -> tuple:
    """Cache/sharing identity of a trial's golden run: every spec field
    that steers the fault-free simulation (and nothing that doesn't)."""
    return (trial.workload, trial.scheme, trial.scale, trial.gpu,
            trial.scheduler, trial.wcdl, trial.sanitize,
            trial.harden_rpt, trial.harden_rbq)


def _golden(trial: TrialSpec,
            with_checkpoints: bool = False) -> tuple[list, bool]:
    """Return ``(cache entry, cache_hit)`` for the trial's golden run.

    Entries are ``[launch_once, golden_cycles, golden_mem, recorder,
    shared]`` where ``shared`` records that the golden data was adopted
    from the cross-worker shared-memory segment rather than simulated
    here (telemetry only — the data is byte-identical either way).
    """
    key = golden_key(trial)
    entry = _GOLDEN_CACHE.get(key)
    cache_hit = entry is not None
    if entry is not None:
        _GOLDEN_CACHE.move_to_end(key)
    else:
        from .goldens import shared_entry
        from .schemes import launcher

        _, _, launch_once = launcher(
            trial.workload, trial.scheme, trial.scale, gpu=trial.gpu,
            scheduler=trial.scheduler, wcdl=trial.wcdl,
            harden_rpt=trial.harden_rpt, harden_rbq=trial.harden_rbq,
            sanitize=trial.sanitize)

        shared = shared_entry(key)
        if shared is not None:
            golden_cycles, golden_mem, recorder = shared
            entry = [launch_once, golden_cycles, golden_mem, recorder,
                     True]
        else:
            recorder = None
            if with_checkpoints:
                from ..sim import CheckpointRecorder

                recorder = CheckpointRecorder(trial.checkpoint_interval)
            result, golden_mem = launch_once(recorder=recorder)
            entry = [launch_once, result.cycles, golden_mem, recorder,
                     False]
        _GOLDEN_CACHE[key] = entry
        while len(_GOLDEN_CACHE) > _golden_cache_limit():
            _GOLDEN_CACHE.popitem(last=False)
    if with_checkpoints and entry[3] is None:
        # A direct-mode trial populated this cell without checkpoints;
        # replay the golden run once with a recorder attached.  The
        # replay is deterministic, so its checkpoints (and the
        # read/write liveness maps) describe the cached golden
        # execution exactly.
        from ..sim import CheckpointRecorder

        recorder = CheckpointRecorder(trial.checkpoint_interval)
        replay, _ = entry[0](recorder=recorder)
        if replay.cycles != entry[1]:
            raise ReproError(
                "golden replay diverged while recording checkpoints "
                f"({replay.cycles} cycles vs {entry[1]}); the simulator "
                "is not deterministic")
        entry[3] = recorder
    return entry, cache_hit


class _WallClockTimeout(Exception):
    """Internal: the per-trial SIGALRM fired."""


def _alarm_guard(seconds: float):
    """Arm a per-trial wall-clock alarm where the platform allows it
    (POSIX, main thread); returns a disarm callable."""
    import signal
    import threading

    if (seconds <= 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return lambda: None

    def fire(signum, frame):
        raise _WallClockTimeout()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(max(1, math.ceil(seconds)))

    def disarm():
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    return disarm


def run_trial(trial: TrialSpec) -> TrialResult:
    """Execute one trial and classify it.

    Simulation-level failures are *classified*, never raised: the only
    exceptions escaping this function are infrastructure faults (import
    errors, worker death), which the pool layer retries.
    """
    import time

    from ..arch import SensorModel
    from .injection import FaultInjector

    started = time.perf_counter()
    entry, golden_cache_hit = _golden(trial,
                                      with_checkpoints=trial.checkpoint)
    launch_once, golden_cycles, golden_mem, recorder = entry[:4]
    rng = trial.rng()
    # Strike cycles are sampled over the fault-free execution window so
    # every trial has a chance to land (a strike after kernel end is a
    # guaranteed no-op and would just dilute the campaign).
    high = max(2, golden_cycles)
    strike_cycles = sorted(int(c) for c in rng.integers(1, high,
                                                        size=trial.strikes))
    injector_seed = int(rng.integers(0, 2**31 - 1))
    budget = cycle_budget(golden_cycles, trial.max_cycles_factor,
                          trial.min_cycle_budget)
    result = TrialResult(workload=trial.workload, scheme=trial.scheme,
                         index=trial.index, outcome=MASKED,
                         site=trial.site,
                         strike_cycles=strike_cycles,
                         injector_seed=injector_seed,
                         golden_cycles=golden_cycles,
                         golden_cache_hit=golden_cache_hit,
                         golden_shared=entry[4])
    sensor = SensorModel(wcdl=trial.wcdl,
                         miss_probability=trial.sensor_miss_probability,
                         jitter_cycles=trial.sensor_jitter_cycles)
    injector = FaultInjector(strike_cycles=list(strike_cycles),
                             wcdl=trial.wcdl, seed=injector_seed,
                             site=trial.site, sensor=sensor)
    resume_from = monitor = None
    if recorder is not None:
        # Fast-start: any golden checkpoint at or below the earliest
        # strike cycle is exactly this trial's state there (the injector
        # is a no-op before its first strike), so the fault-free prefix
        # need not be re-simulated.  Early out: once the faulty machine
        # state matches golden at a checkpoint boundary (or diverges
        # only in provably dead data) the suffix's outcome is known and
        # the run stops immediately.
        from ..sim import ConvergenceMonitor

        resume_from = recorder.best_at_or_below(strike_cycles[0])
        monitor = ConvergenceMonitor(recorder.checkpoints, golden_cycles,
                                     liveness=recorder.liveness)
        result.fast_start = resume_from is not None
    disarm = _alarm_guard(trial.timeout_s)
    try:
        sim_result, faulty_mem = launch_once(injector, max_cycles=budget,
                                             resume_from=resume_from,
                                             monitor=monitor)
    except SimTimeout as exc:
        result.outcome = DUE_HANG
        result.cycles = exc.cycles
        result.detail = str(exc)
        return result
    except _WallClockTimeout:
        result.outcome = DUE_HANG
        result.detail = f"wall-clock timeout after {trial.timeout_s:g}s"
        return result
    except ReproError as exc:
        result.outcome = DUE_CRASH
        result.detail = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        disarm()
        result.wall_time_s = time.perf_counter() - started

    result.converged = sim_result.converged
    result.telemetry = {name: getattr(sim_result.stats, name)
                        for name in SIM_COUNTERS}
    result.cycles = sim_result.cycles
    result.landed = sum(1 for r in injector.records if r.landed)
    # Coalesced recoveries count: a strike landing during an in-progress
    # rollback is still answered by a (re-applied) rollback.
    result.recoveries = (sim_result.stats.recoveries
                         + sim_result.stats.coalesced_recoveries)
    # A converged run's final memory equality is proven, not simulated:
    # True on a full state match (the suffix is byte-identical to
    # golden), and decided by golden's write liveness on an
    # inert-divergence match.  Landed and recovery counts were already
    # final when convergence was checked (the injector was quiescent),
    # so the classification below is exactly what a full run would
    # produce.
    if sim_result.converged:
        memory_equal = monitor.memory_equal
    else:
        memory_equal = np.array_equal(faulty_mem, golden_mem)
    if not memory_equal:
        result.outcome = SDC
    elif result.landed and result.recoveries:
        result.outcome = RECOVERED
    else:
        # Output bit-exact without a landed-and-rolled-back strike:
        # either the strike missed every live register or (baseline) the
        # corruption was overwritten before reaching memory.
        result.outcome = MASKED
    return result


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def wilson_interval(successes: int, n: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    zz = z * z
    denom = 1.0 + zz / n
    center = (p + zz / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + zz / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class CellAggregate:
    """Outcome counts and rates for one (workload, scheme, site) cell."""

    workload: str
    scheme: str
    trials: int
    counts: dict[str, int]
    rates: dict[str, tuple[float, float, float]]  # rate, ci_lo, ci_hi
    site: str = "dest_reg"

    @property
    def unrecovered(self) -> int:
        return sum(self.counts[o] for o in UNRECOVERED)

    def as_dict(self) -> dict:
        return {"workload": self.workload, "scheme": self.scheme,
                "site": self.site,
                "trials": self.trials, "counts": dict(self.counts),
                "rates": {k: list(v) for k, v in self.rates.items()},
                "unrecovered": self.unrecovered}


def _rates_from_counts(counts: dict[str, int],
                       measured: int) -> dict[str, tuple[float, float, float]]:
    rates = {}
    for o in OUTCOMES:
        if o == INFRA_ERROR:
            continue
        lo, hi = wilson_interval(counts[o], measured)
        rate = counts[o] / measured if measured else 0.0
        rates[o] = (rate, lo, hi)
    return rates


def dedupe_results(results: list[TrialResult]) -> list[TrialResult]:
    """Collapse duplicate trial records into one representative per key,
    deterministically under ANY input ordering.

    Duplicates arise from resumed campaigns and from shards re-executed
    after a lost lease.  Because trials are pure functions of their
    coordinates, duplicates are normally byte-identical — but a trial
    that failed as ``infra_error`` on one worker and succeeded on a
    reclaiming worker yields two *different* rows.  The winner is chosen
    by value, not by arrival order: prefer a measured outcome over
    ``infra_error``, then the smallest canonical JSON encoding, so every
    merge of the same record set picks the same representative.
    """
    best: dict[tuple[str, str, str, int], tuple] = {}
    order: list[tuple[str, str, str, int]] = []
    for r in results:
        rank = (r.outcome == INFRA_ERROR,
                json.dumps(r.as_dict(), sort_keys=True))
        held = best.get(r.key)
        if held is None:
            order.append(r.key)
            best[r.key] = (rank, r)
        elif rank < held[0]:
            best[r.key] = (rank, r)
    return [best[k][1] for k in order]


def aggregate(results: list[TrialResult]) -> list[CellAggregate]:
    """Collapse trial results into per-cell aggregates.

    Deterministic and order-independent: duplicates (a trial journaled
    by both a killed and a resumed campaign, or by overlapping shard
    re-executions) collapse via :func:`dedupe_results`, and cells render
    in sorted order.
    """
    unique = {r.key: r for r in dedupe_results(results)}
    cells: dict[tuple[str, str, str], list[TrialResult]] = {}
    for r in sorted(unique.values(), key=lambda r: r.key):
        cells.setdefault((r.workload, r.scheme, r.site), []).append(r)
    out = []
    for (workload, scheme, site), rows in sorted(cells.items()):
        counts = {o: 0 for o in OUTCOMES}
        for r in rows:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        measured = len(rows) - counts[INFRA_ERROR]
        out.append(CellAggregate(workload=workload, scheme=scheme, site=site,
                                 trials=len(rows), counts=counts,
                                 rates=_rates_from_counts(counts, measured)))
    return out


def merge_cells(cells: list[CellAggregate], workload: str,
                scheme: str) -> CellAggregate | None:
    """Site-agnostic view of one (workload, scheme): sum the per-site
    counts and recompute rates over the pooled trials."""
    rows = [c for c in cells if c.workload == workload and c.scheme == scheme]
    if not rows:
        return None
    if len(rows) == 1:
        return rows[0]
    counts = {o: 0 for o in OUTCOMES}
    for c in rows:
        for o, n in c.counts.items():
            counts[o] = counts.get(o, 0) + n
    trials = sum(c.trials for c in rows)
    measured = trials - counts[INFRA_ERROR]
    return CellAggregate(workload=workload, scheme=scheme, site="all",
                         trials=trials, counts=counts,
                         rates=_rates_from_counts(counts, measured))


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class CampaignJournal:
    """Append-only JSONL trial journal with crash-safe records.

    Each completed trial is one ``json.dumps`` line written with a
    single ``write`` + flush, fsynced on a configurable cadence
    (``fsync_interval`` appends; default every append), so a killed
    campaign loses at most the un-synced window plus one truncated
    *final* line — which ``load`` skips — and every synced record
    survives.  A header line pins the campaign spec; resuming against a
    journal from a different spec is refused rather than silently
    mixing incompatible trials.
    """

    def __init__(self, path: str, fsync_interval: int = 1) -> None:
        if fsync_interval < 1:
            raise ConfigError("fsync interval must be >= 1 append")
        self.path = path
        self.fsync_interval = fsync_interval
        self._handle = None
        self._unsynced = 0

    # -- writing -------------------------------------------------------
    def _append_line(self, record: dict) -> None:
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record, sort_keys=True) + "\n"
        self._handle.write(line)
        self._handle.flush()
        self._unsynced += 1
        if self._unsynced >= self.fsync_interval:
            self.sync()

    def sync(self) -> None:
        """Force outstanding appends to stable storage (the durability
        checkpoint between interval fsyncs)."""
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Sync and release the append handle (safe to append again —
        the handle reopens lazily)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def repair(self) -> None:
        """Drop a torn final line left by a killed writer, so records
        appended on resume start on a fresh line instead of gluing onto
        the partial one."""
        self.close()
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return
            handle.seek(data.rfind(b"\n") + 1)
            handle.truncate()

    def write_header(self, spec: CampaignSpec) -> None:
        self._append_line({"type": "header",
                           "campaign_id": spec.campaign_id(),
                           "spec": asdict(spec)})

    def append(self, result: TrialResult) -> None:
        record = result.as_dict()
        record["type"] = "trial"
        self._append_line(record)

    # -- reading -------------------------------------------------------
    def load(self, spec: CampaignSpec | None = None) -> list[TrialResult]:
        """Read every intact trial record; verify the header against
        ``spec`` when given."""
        if not os.path.exists(self.path):
            return []
        results: list[TrialResult] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # truncated tail from a killed writer
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                kind = record.pop("type", "trial")
                if kind == "header":
                    if (spec is not None and
                            record.get("campaign_id") != spec.campaign_id()):
                        raise ConfigError(
                            f"journal {self.path} belongs to campaign "
                            f"{record.get('campaign_id')}, not "
                            f"{spec.campaign_id()}; use a fresh journal "
                            f"path or delete the stale one")
                    continue
                try:
                    results.append(TrialResult.from_dict(record))
                except TypeError:
                    continue  # unknown schema — ignore, don't crash
        return results

    def has_header(self) -> bool:
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    def load_spec(self) -> CampaignSpec:
        """Reconstruct the campaign spec pinned in the header line —
        lets post-hoc tools (the ``report`` command) work from a journal
        alone, with no need to re-state the original CLI flags."""
        if not os.path.exists(self.path):
            raise ConfigError(f"journal {self.path} does not exist")
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("type") == "header" and "spec" in record:
                    return CampaignSpec.from_dict(record["spec"])
        raise ConfigError(
            f"journal {self.path} has no spec header (written by "
            f"pre-header tooling?); re-run the campaign or pass the "
            f"spec explicitly")


__all__ = [
    "CampaignJournal", "CampaignSpec", "CellAggregate", "DUE_CRASH",
    "DUE_HANG", "INFRA_ERROR", "MASKED", "OUTCOMES", "RECOVERED", "SDC",
    "TrialResult", "TrialSpec", "UNRECOVERED", "aggregate",
    "dedupe_results", "golden_key", "merge_cells", "run_trial",
    "wilson_interval",
]
