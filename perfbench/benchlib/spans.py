"""Spans around calls into the program's layers, installed from outside.

``install`` replaces public functions and methods of ``repro`` on their
modules and classes with thin wrappers; nothing under ``src/`` is
edited.  Three timestamp/count hooks always go in (the journal append,
the golden export and the runner's ``execute``).  With a tracer every
wrapped call records a :class:`Span` in memory; the spans are written
out when the benchmark ends.  With a :class:`~benchlib.host.Pace` every
wrapped call ticks it on entry and exit, which samples the host's speed
through the untraced measurement.

Pool workers are forked from the process that installed the wrappers,
so they inherit them.  A worker hands the spans and speed samples of
each trial back on the returned ``TrialResult`` (attributes outside its
dataclass fields, so the journal row is unchanged) and the parent
merges them when it journals the row.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

#: Span name -> layer (a module of the program).
LAYER_OF = {
    "compile_kernel": "compiler", "form_regions": "compiler",
    "launch": "sim",
    "restore_gpu": "ckpt", "check": "ckpt",
    "golden": "golden", "export_goldens": "golden",
    "run_trial": "trial",
    "append": "journal",
    "CampaignRunner.run": "pool",
    "note_trial": "obs",
    "execute": "runner", "store": "runner",
}

LAYERS = ("compiler", "sim", "ckpt", "golden", "trial", "journal", "pool",
          "obs", "runner")

#: Attributes carrying a worker's spans and speed samples back to the
#: parent.
_HANDOFF = "_bench_spans"
_HANDOFF_PACE = "_bench_pace"


@dataclass
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return LAYER_OF[self.name]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store for one traced workload process."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.owner_pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, describe=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   os.getpid(),
                                   {"error": type(exc).__name__}))
            raise
        end = time.monotonic()
        stack.pop()
        attrs = describe(args, kwargs, result) if describe else {}
        self.spans.append(Span(span_id, parent, name, start, end,
                               os.getpid(), attrs))
        return result

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record.update(layer=span.layer, workload=self.workload,
                              run_id=self.run_id)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class Marks:
    """Timestamps and counts the untraced measurement needs."""

    dispatch: float | None = None
    last_row: float | None = None
    #: The journaled ``TrialResult`` objects, telemetry included.
    results: list = field(default_factory=list)
    executes: list = field(default_factory=list)
    execute_errors: list = field(default_factory=list)


#: The installation in force in this process (inherited by forked pool
#: workers, which is how ``hooked_run_trial`` finds it there).
_ACTIVE: dict | None = None


def hooked_run_trial(trial):
    """Module-level stand-in for ``run_trial`` (pool workers unpickle it
    by name)."""
    active = _ACTIVE
    tracer, pace = active["tracer"], active["pace"]
    first = len(tracer.spans) if tracer else 0
    first_sample = len(pace.samples) if pace else 0
    result = active["call"]("run_trial", active["run_trial"], (trial,), {},
                            _describe_trial)
    if os.getpid() != active["owner_pid"]:
        if tracer is not None:
            setattr(result, _HANDOFF, tracer.spans[first:])
            del tracer.spans[first:]
        if pace is not None:
            setattr(result, _HANDOFF_PACE, pace.samples[first_sample:])
            del pace.samples[first_sample:]
    return result


def _describe_trial(args, kwargs, result):
    return {"outcome": result.outcome, "scheme": result.scheme}


def _describe_launch(args, kwargs, result):
    stats = result.stats
    return {"recorder": kwargs.get("recorder") is not None,
            "instructions": stats.instructions, "cycles": result.cycles,
            "superblock_insts": stats.superblock_insts,
            "mem_window_insts": stats.mem_window_insts,
            "fallbacks": sum(stats.superblock_fallbacks.values())}


def _describe_golden(args, kwargs, result):
    entry, hit = result
    return {"hit": bool(hit), "shared": bool(entry[4])}


def _describe_check(args, kwargs, result):
    return {"converged": bool(result)}


def _rebind(original, replacement, installed: list) -> None:
    """Point every ``repro`` module-level binding of ``original`` at
    ``replacement`` (modules that did ``from x import f`` hold their own
    binding)."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("repro")
                and module.__dict__.get(name) is original):
            installed.append((module, name, original))
            setattr(module, name, replacement)


def _wrap_function(call, name, original, describe=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return call(name, original, args, kwargs, describe)
    return wrapper


def install(tracer: Tracer | None, pace=None) -> Marks:
    """Install the hooks and, with a tracer or a pace, the wrappers."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("benchmark hooks are already installed")
    import repro.compiler.pipeline as pipeline
    import repro.core.campaign as campaign
    import repro.core.goldens as goldens
    import repro.harness.runner as runner
    import repro.sim.snapshot as snapshot
    from repro.harness.campaign import CampaignRunner
    from repro.obs.heartbeat import CampaignHeartbeat
    from repro.sim import Gpu

    marks = Marks()
    installed: list = []

    def call(name, fn, args, kwargs, describe=None):
        if pace is not None:
            pace.tick()
        try:
            if tracer is None:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, describe)
        finally:
            if pace is not None:
                pace.tick()

    _ACTIVE = {"tracer": tracer, "pace": pace, "call": call,
               "installed": installed, "owner_pid": os.getpid(),
               "run_trial": campaign.run_trial}

    append = campaign.CampaignJournal.append

    def journal_append(self, result):
        spans = result.__dict__.pop(_HANDOFF, None)
        if spans and tracer is not None:
            tracer.spans.extend(spans)
        samples = result.__dict__.pop(_HANDOFF_PACE, None)
        if samples and pace is not None:
            pace.samples.extend(samples)
        call("append", append, (self, result), {})
        marks.last_row = time.monotonic()
        marks.results.append(result)

    installed.append((campaign.CampaignJournal, "append", append))
    campaign.CampaignJournal.append = journal_append

    export = goldens.export_goldens

    def export_goldens(*args, **kwargs):
        result = call("export_goldens", export, args, kwargs)
        marks.dispatch = time.monotonic()
        return result

    _rebind(export, export_goldens, installed)

    execute = runner.execute

    def runner_execute(spec):
        try:
            outcome = call("execute", execute, (spec,), {})
        except Exception as exc:
            marks.execute_errors.append((spec.cache_key(), repr(exc)))
            raise
        marks.executes.append((spec.cache_key(), outcome.verified))
        return outcome

    _rebind(execute, runner_execute, installed)

    if tracer is None and pace is None:
        return marks

    _rebind(pipeline.compile_kernel,
            _wrap_function(call, "compile_kernel", pipeline.compile_kernel),
            installed)
    _rebind(pipeline.form_regions,
            _wrap_function(call, "form_regions", pipeline.form_regions),
            installed)
    _rebind(snapshot.restore_gpu,
            _wrap_function(call, "restore_gpu", snapshot.restore_gpu),
            installed)
    _rebind(campaign._golden,
            _wrap_function(call, "golden", campaign._golden,
                           _describe_golden), installed)
    _rebind(campaign.run_trial, hooked_run_trial, installed)
    for owner, attr, name, describe in (
            (Gpu, "launch", "launch", _describe_launch),
            (snapshot.ConvergenceMonitor, "check", "check", _describe_check),
            (CampaignHeartbeat, "note_trial", "note_trial", None),
            (runner.Runner, "_store", "store", None),
            (CampaignRunner, "run", "CampaignRunner.run", None)):
        original = getattr(owner, attr)
        installed.append((owner, attr, original))
        setattr(owner, attr, _wrap_function(call, name, original, describe))
    return marks


def uninstall() -> None:
    """Restore every replaced binding."""
    global _ACTIVE
    if _ACTIVE is None:
        return
    for owner, attr, original in reversed(_ACTIVE["installed"]):
        setattr(owner, attr, original)
    _ACTIVE = None


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span id: its duration minus the durations of its
    children in the same process."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own and span.parent.split(":")[0] == str(span.pid):
            own[span.parent] -= span.duration
    return own


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` for the highest percentile with at least
    ten samples beyond it (the median when there are too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100.0) >= 10:
            return pct, _quantile(ordered, pct)
    return 50.0, _quantile(ordered, 50.0)


def _quantile(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, results: list,
                  failed: int, workers: int,
                  trial_phase_s: float) -> dict[str, tuple]:
    """Every per-layer metric of one traced workload process, as
    ``{name: (value, unit)}``.

    Busy times and counts cover every process (pool workers included);
    ``<layer>.self_s`` and ``other.self_s`` cover the workload process,
    where they add up to ``wall_s``.  ``results`` are the journaled
    ``TrialResult`` objects (empty for figures-cold) and ``failed`` the
    trials journaled as ``infra_error`` or missing.  Ratios whose base
    is zero, and counts of layers that do not run, read 0.
    """
    from repro.core.campaign import OUTCOMES, UNRECOVERED

    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, pred=None):
        return sum(s.duration for s in by_name.get(name, ())
                   if pred is None or pred(s))

    def count(name, pred=None):
        return sum(1 for s in by_name.get(name, ())
                   if pred is None or pred(s))

    metrics: dict[str, tuple] = {}

    # compiler
    metrics["compiler.calls"] = (count("compile_kernel"), "count")
    metrics["compiler.busy_s"] = (total("compile_kernel"), "s")
    metrics["compiler.form_regions_s"] = (total("form_regions"), "s")

    # sim: the per-instruction figures cover launches without a
    # checkpoint recorder (golden recording is ckpt.record_s) that
    # returned a result (a launch that raises reports no stats).
    plain = [s for s in by_name.get("launch", ())
             if "instructions" in s.attrs and not s.attrs["recorder"]]

    def plain_sum(key):
        return sum(s.attrs[key] for s in plain)

    instructions = plain_sum("instructions")
    metrics["sim.launches"] = (count("launch"), "count")
    metrics["sim.busy_s"] = (total("launch"), "s")
    metrics["sim.instructions"] = (instructions, "count")
    metrics["sim.cycles"] = (plain_sum("cycles"), "count")
    metrics["sim.ns_per_inst"] = (
        _ratio(sum(own[s.id] for s in plain) * 1e9, instructions), "ns")
    metrics["sim.superblock_share"] = (
        _ratio(plain_sum("superblock_insts"), instructions), "ratio")
    metrics["sim.mem_window_share"] = (
        _ratio(plain_sum("mem_window_insts"), instructions), "ratio")
    metrics["sim.fallbacks"] = (plain_sum("fallbacks"), "count")

    # ckpt
    trials = len(results)
    metrics["ckpt.record_s"] = (
        total("launch", lambda s: s.attrs.get("recorder")), "s")
    metrics["ckpt.restore_s"] = (total("restore_gpu"), "s")
    metrics["ckpt.check_s"] = (total("check"), "s")
    metrics["ckpt.checks"] = (count("check"), "count")
    metrics["ckpt.fast_start_ratio"] = (
        _ratio(sum(r.fast_start for r in results), trials), "ratio")
    metrics["ckpt.converged_ratio"] = (
        _ratio(sum(r.converged for r in results), trials), "ratio")

    # golden
    def built(span):
        return not span.attrs.get("hit", True) and \
            not span.attrs.get("shared", True)

    lookups = count("golden")
    metrics["golden.builds"] = (count("golden", built), "count")
    metrics["golden.build_s"] = (total("golden", built), "s")
    metrics["golden.export_s"] = (total("export_goldens"), "s")
    metrics["golden.hit_ratio"] = (
        _ratio(count("golden", lambda s: s.attrs.get("hit")), lookups),
        "ratio")
    metrics["golden.shared_ratio"] = (
        _ratio(sum(r.golden_shared for r in results), trials), "ratio")

    # trial
    durations = sorted(s.duration * 1000.0
                       for s in by_name.get("run_trial", ()))
    pct, tail = tail_percentile(durations)
    metrics["trial.count"] = (trials, "count")
    metrics["trial.samples"] = (len(durations), "count")
    metrics["trial.p50_ms"] = (_quantile(durations, 50.0), "ms")
    metrics["trial.tail_ms"] = (tail, "ms")
    metrics["trial.tail_pct"] = (pct, "pct")
    metrics["trial.failed"] = (failed, "count")
    for outcome in OUTCOMES:
        metrics[f"trial.{outcome}"] = (
            sum(r.outcome == outcome for r in results), "count")
    metrics["trial.flame_unrecovered"] = (
        sum(r.scheme == "flame" and r.outcome in UNRECOVERED
            for r in results), "count")

    # journal, pool, obs, runner
    metrics["journal.appends"] = (count("append"), "count")
    metrics["journal.append_s"] = (total("append"), "s")
    metrics["pool.busy_share"] = (
        _ratio(sum(r.wall_time_s for r in results),
               workers * trial_phase_s), "ratio")
    metrics["obs.note_trial_s"] = (total("note_trial"), "s")
    metrics["runner.runs"] = (count("execute"), "count")
    metrics["runner.busy_s"] = (total("execute"), "s")
    metrics["runner.store_s"] = (total("store"), "s")

    # self time per layer in the workload process, plus what no span
    # covers; these add up to the traced wall.
    mine = [s for s in spans if s.pid == tracer.owner_pid]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(own[s.id] for s in mine if s.layer == layer), "s")
    ids = {s.id for s in mine}
    covered = sum(s.duration for s in mine if s.parent not in ids)
    metrics["other.self_s"] = (wall_s - covered, "s")
    return metrics
