"""The benchmark's three workloads, each run in a fresh process.

One call of :func:`run_child` is one launch of the program the way a
user runs it: a campaign through ``run_campaign`` or a cold figure
regeneration through ``figure13_14``/``figure18`` with a ``Runner``.
It returns the launch's timings, counts and check results.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass

from benchlib import host

#: Fixed tiny roster of figures-cold: SN and NW carry the expensive
#: renaming-family compiles; LUD and BO are left out because on their
#: own they add about 91 s and 22 s to a cold pass.
FIGURE_ROSTER = ("SN", "NW", "SGEMM", "LBM", "NN")
SMOKE_ROSTER = ("Triad",)
FIG18_SCHEDULERS = ("GTO", "OLD", "LRR", "2LV")


@dataclass(frozen=True)
class CampaignShape:
    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    sites: tuple[str, ...]
    sanitize: bool
    workers: int
    heartbeat: bool
    #: Trials per cell in one launch (full size, smoke size).  The full
    #: size keeps one launch's trial phase within LAUNCH_SECONDS
    #: reference seconds (``host.reference_s``).
    trials: int
    smoke_trials: int
    #: Trials re-run without checkpointing after the launch.
    rerun_sample: int


ALL_SITES = ("dest_reg", "shared_mem", "predicate", "simt_stack", "rpt",
             "rbq")

CAMPAIGNS = {
    # Inline checkpointed campaign: host time in the simulator's fast
    # tiers and the checkpoint layer; the compiler does only 8 compiles.
    "campaign-ckpt": CampaignShape(
        benchmarks=("SGEMM", "Triad", "LBM", "NN"),
        schemes=("baseline", "flame"), sites=("dest_reg",),
        sanitize=False, workers=1, heartbeat=False, trials=72,
        smoke_trials=2, rerun_sample=6),
    # The CLI default on a 2-CPU host: a 2-worker pool with shared
    # goldens, all six fault sites, sanitizer and heartbeat on.  The
    # sanitizer turns memory windows off.  Triad under Flame only: its
    # trials are short and even, so pool dispatch, journaling and the
    # heartbeat weigh most; SGEMM and baseline trials are heavy-tailed
    # (baseline simt_stack hangs run to the 20x cycle budget) and would
    # make throughput a count of slow trials.
    "campaign-sites-pool2": CampaignShape(
        benchmarks=("Triad",), schemes=("flame",), sites=ALL_SITES,
        sanitize=True, workers=2, heartbeat=True, trials=150,
        smoke_trials=1, rerun_sample=3),
}

FIGURES = "figures-cold"
WORKLOADS = tuple(CAMPAIGNS) + (FIGURES,)

#: Measured seconds one full-size launch takes (trial phase, or one
#: cold regeneration); ``--seconds`` divided by this is the number of
#: launches, at least one.
LAUNCH_SECONDS = {"campaign-ckpt": 12.0, "campaign-sites-pool2": 12.0,
                  FIGURES: 45.0}

#: Set-ups measured per run; ``setup_s`` is their median.  The launches'
#: own set-ups are topped up with set-up-only launches.  Where set-up is
#: mostly the import, which varies by more than a tenth between
#: processes, a run takes more of them.
SETUP_SAMPLES = {"campaign-ckpt": 2, "campaign-sites-pool2": 5, FIGURES: 7}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest (waited-for)
    child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def campaign_spec(name: str, seed: int, smoke: bool):
    from repro.core.campaign import CampaignSpec

    shape = CAMPAIGNS[name]
    return CampaignSpec(workloads=shape.benchmarks, schemes=shape.schemes,
                        trials=shape.smoke_trials if smoke else shape.trials,
                        seed=seed, scale="tiny", sites=shape.sites,
                        sanitize=shape.sanitize)


def figure_specs(roster: tuple[str, ...]) -> set[str]:
    """Cache keys of every distinct run Fig. 13/14 and Fig. 18 need."""
    from repro.harness.experiments import FIG13_SCHEMES
    from repro.harness.runner import RunSpec

    specs = [RunSpec(workload=bench, scheme=scheme, scale="tiny")
             for bench in roster
             for scheme in ("baseline",) + tuple(FIG13_SCHEMES)]
    specs += [RunSpec(workload=bench, scheme=scheme, scale="tiny",
                      scheduler=sched)
              for sched in FIG18_SCHEDULERS for bench in roster
              for scheme in ("baseline", "flame")]
    return {spec.cache_key() for spec in specs}


def _build_goldens(spec) -> None:
    """Build every cell's checkpointed golden through the memo that
    ``run_trial`` uses.  Inline campaigns would build each one in its
    cell's first trial; building them up front puts every compile and
    golden run in set-up, as ``export_goldens`` does for a pool."""
    import repro.core.campaign as campaign

    seen = set()
    for trial in spec.trial_specs():
        key = campaign.golden_key(trial)
        if key not in seen:
            seen.add(key)
            campaign._golden(trial, with_checkpoints=True)


def _times(pace, launched_at: float, start: float, end: float,
           workers: int = 1) -> dict:
    """Set-up ``[launched_at, start]`` and work ``[start, end]`` in
    reference seconds (host seconds when the launch is not paced), with
    the host seconds and the host's slowdown over the launch beside
    them."""
    out = {"setup_host_s": start - launched_at, "phase_host_s": end - start}
    if pace is None:
        out.update(setup_s=out["setup_host_s"], phase_s=out["phase_host_s"],
                   slowdown=1.0)
    else:
        out.update(setup_s=host.reference_s(pace.samples, launched_at, start),
                   phase_s=host.reference_s(pace.samples, start, end,
                                            workers),
                   slowdown=host.slowdown(pace.samples, launched_at, end))
    out["regen_s"] = out["setup_s"] + out["phase_s"]
    return out


def _run_campaign(name, seed, launched_at, run_dir, tracer, pace, smoke):
    from benchlib import checks, spans

    from repro.harness.campaign import run_campaign

    shape = CAMPAIGNS[name]
    spec = campaign_spec(name, seed, smoke)
    journal = os.path.join(run_dir, "journal.jsonl")
    metrics_path = (os.path.join(run_dir, "heartbeat.jsonl")
                    if shape.heartbeat else None)
    marks = spans.install(tracer, pace)
    try:
        if shape.workers == 1:
            _build_goldens(spec)
            if pace is not None:
                pace.sample()
            marks.dispatch = time.monotonic()
        run_campaign(spec, workers=shape.workers,
                     journal_path=journal, metrics_path=metrics_path)
        end = time.monotonic()
    finally:
        spans.uninstall()
    rss = peak_rss_mb()
    rows = checks.read_rows(journal)
    problems, failed = checks.check_journal(rows, spec)
    problems += checks.direct_rerun(
        spec, rows, 2 if smoke else shape.rerun_sample, seed)
    phase = marks.last_row - marks.dispatch
    out = {
        **_times(pace, launched_at, marks.dispatch, marks.last_row,
                 shape.workers),
        "wall_s": end - launched_at,
        "items": len(marks.results),
        "attempted": len(spec.trial_specs()),
        "failed": failed,
        "peak_rss_mb": rss,
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(
            tracer, end - launched_at, marks.results, failed,
            shape.workers, phase)
    return out


def _run_figures(launched_at, run_dir, tracer, pace, smoke):
    from benchlib import checks, spans

    from repro.errors import ReproError
    from repro.harness.experiments import figure13_14, figure18
    from repro.harness.runner import Runner

    roster = SMOKE_ROSTER if smoke else FIGURE_ROSTER
    marks = spans.install(tracer, pace)
    problems = []
    normalized, geomeans, schedulers = {}, {}, {}
    try:
        runner = Runner(cache_dir=os.path.join(run_dir, "cache"), workers=1)
        if pace is not None:
            pace.sample()
        start = time.monotonic()
        try:
            study = figure13_14(scale="tiny", benchmarks=roster,
                                runner=runner)
            normalized = study.normalized
            geomeans = study.geomeans()          # Fig. 15
            schedulers = figure18(scale="tiny", benchmarks=roster,
                                  schedulers=FIG18_SCHEDULERS, runner=runner)
        except ReproError as exc:
            problems.append(f"figure regeneration raised: {exc}")
        if pace is not None:
            pace.sample()
        end = time.monotonic()
    finally:
        spans.uninstall()
    rss = peak_rss_mb()
    expected = figure_specs(roster)
    problems += checks.check_figures(normalized, geomeans, schedulers,
                                     marks.executes, expected)
    for key, error in marks.execute_errors:
        problems.append(f"figure run {key} raised {error}")
    # A run that raises stops the figure, so runs it never reached count
    # as failed too.
    verified = {key for key, ok in marks.executes if ok} & expected
    times = _times(pace, launched_at, start, end)
    out = {
        **times,
        # From an empty result cache to verified values: no import.
        "regen_s": times["phase_s"],
        "wall_s": end - launched_at,
        "items": len(marks.executes),
        "attempted": len(expected),
        "failed": len(expected) - len(verified),
        "peak_rss_mb": rss,
        "problems": problems,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(
            tracer, end - launched_at, [], 0, 1, end - start)
    return out


def _setup_only(workload, seed, launched_at, run_dir, pace, smoke):
    """A launch's set-up and nothing after it: the same imports and
    hooks, then (figures) the ``Runner`` on an empty cache or
    (campaigns) every golden, built inline or exported for a pool."""
    from benchlib import spans

    from repro.core.goldens import export_goldens, release_goldens
    if workload == FIGURES:
        from repro.harness.experiments import figure13_14  # noqa: F401
        from repro.harness.runner import Runner
    else:
        from repro.harness.campaign import run_campaign  # noqa: F401
    spans.install(None, pace)
    try:
        if workload == FIGURES:
            Runner(cache_dir=os.path.join(run_dir, "cache"), workers=1)
        elif CAMPAIGNS[workload].workers == 1:
            _build_goldens(campaign_spec(workload, seed, smoke))
        else:
            export_goldens(campaign_spec(workload, seed, smoke).trial_specs(),
                           manifest_dir=run_dir)
        if pace is not None:
            pace.sample()
        ready = time.monotonic()
    finally:
        release_goldens()
        spans.uninstall()
    return {**_times(pace, launched_at, ready, ready),
            "peak_rss_mb": peak_rss_mb(), "problems": []}


def run_child(workload: str, seed: int, launched_at: float, run_dir: str,
              trace: bool, smoke: bool, run_id: str,
              trace_out: str | None = None, setup_only: bool = False,
              paced: bool = False) -> dict:
    """One launch of ``workload``; ``launched_at`` is the monotonic time
    at which this process was started.  A paced launch samples the
    host's speed throughout and reports its times in reference seconds
    (``host.reference_s``)."""
    from benchlib import spans

    pace = host.Pace() if paced else None
    if pace is not None:
        pace.sample()
    if setup_only:
        out = _setup_only(workload, seed, launched_at, run_dir, pace, smoke)
        out.update(workload=workload, seed=seed, run_id=run_id)
        return out
    tracer = spans.Tracer(workload, run_id) if trace else None
    if workload == FIGURES:
        out = _run_figures(launched_at, run_dir, tracer, pace, smoke)
    else:
        out = _run_campaign(workload, seed, launched_at, run_dir, tracer,
                            pace, smoke)
    if tracer is not None and trace_out:
        tracer.write(trace_out)
    out.update(workload=workload, seed=seed, run_id=run_id)
    return out
