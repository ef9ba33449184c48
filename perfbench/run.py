"""Repository benchmark: campaign trial throughput and cold figure
regeneration, end to end or per layer.

    python3 perfbench/run.py --workload campaign-ckpt --seed 0 \\
        --seconds 24 --trace 0

``--workload all`` measures the three workloads one after the other from
this one process and prints their metrics as ``<workload>.<metric>``.

Each workload launch runs in a fresh process (``child.py``) on a fresh
journal and result-cache directory under ``.bench_runs/``.  With
``--trace 0`` the workload is launched ``--seconds`` / LAUNCH_SECONDS
times (at least once), each launch on its own seed, set-up-only launches
around them bring the set-ups measured to SETUP_SAMPLES, and the
end-to-end metrics are printed.  These launches are paced: they sample
the host's speed as they run and report their times in reference
seconds (``benchlib/host.py``), with the host seconds beside them.
With ``--trace 1`` one untraced and one traced launch of the same inputs
run, followed by the compiler determinism probe, and the per-layer
metrics are printed.  The last line of standard output is the result as
one JSON object; the exit code is 1 when an output check fails.  See
NOTES.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid

from benchlib.host import fingerprint
from benchlib.probe import count_variants, run_probe
from benchlib.workloads import LAUNCH_SECONDS, SETUP_SAMPLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

#: No further launch starts once the invocation could not finish it
#: within this many seconds (the whole invocation must end within 180).
BUDGET_S = 150.0
LAUNCH_TIMEOUT_S = 170.0

E2E_UNITS = {"trials_per_s": "1/s", "regen_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


class LaunchError(RuntimeError):
    pass


def child_seed(seed: int, index: int) -> int:
    """Campaign seed of the ``index``-th launch of one invocation."""
    return seed * 1000 + index


def child_env(run_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    return env


def launch(workload: str, seed: int, run_dir: str, trace: bool,
           smoke: bool, trace_out: str | None = None,
           setup_only: bool = False, paced: bool = False) -> dict:
    """Start one workload process and return its measurements."""
    os.makedirs(run_dir)
    run_id = os.path.basename(run_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--run-dir", run_dir, "--run-id", run_id,
           "--trace", str(int(trace))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if paced:
        cmd.append("--paced")
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--launched-at", repr(started)], cwd=ROOT,
                          env=child_env(run_dir), stdout=subprocess.PIPE,
                          text=True, timeout=LAUNCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise LaunchError(f"{workload} launch exited with code "
                          f"{proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = time.monotonic() - started
    return out


def spread(items: int, slots: int) -> list[int]:
    """``items`` split over ``slots`` as evenly as possible."""
    return [items * (i + 1) // slots - items * i // slots
            for i in range(slots)]


def end_to_end(launches: list[dict], setups: list[float]) -> dict:
    """Pooled trial throughput, the median set-up and the median of every
    other per-launch time and memory figure, times in reference
    seconds."""
    items = sum(out["items"] for out in launches)
    phase = sum(out["phase_s"] for out in launches)
    values = {
        "trials_per_s": items / phase,
        "regen_s": statistics.median(out["regen_s"] for out in launches),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]
                                         for out in launches),
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in values.items()}


def per_layer(untraced: dict, traced: dict, variants: dict,
              calibration_ms: float) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["layers"].items()}
    extra = {
        "compiler.kernel_variants": (sum(variants.values()), "count"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "host.calibration_ms": (calibration_ms, "ms"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return dict(sorted(metrics.items()))


def measure(workload: str, args, host: dict) -> dict:
    """Launch one workload as ``args`` ask; return its launches, metrics
    and extra details."""
    invocation = f"{workload}-s{args.seed}-{uuid.uuid4().hex[:8]}"
    base_dir = os.path.join(RUNS_DIR, invocation)
    launches = []
    setups = []
    extra = {}
    try:
        if args.trace:
            untraced = launch(workload, child_seed(args.seed, 0),
                              os.path.join(base_dir, "untraced"), False,
                              args.smoke)
            trace_out = os.path.join(RUNS_DIR, "traces",
                                     f"{invocation}.jsonl")
            traced = launch(workload, child_seed(args.seed, 0),
                            os.path.join(base_dir, "traced"), True,
                            args.smoke, trace_out)
            launches = [untraced, traced]
            variants = count_variants(run_probe(ROOT))
            metrics = per_layer(untraced, traced, variants,
                                host["calibration_ms"])
            extra = {"kernel_variants": variants, "trace_file": trace_out}
        else:
            began = time.monotonic()
            count = max(1, round(args.seconds / LAUNCH_SECONDS[workload]))
            # The host's speed drifts over seconds, so the set-up-only
            # launches go before, between and after the measured ones.
            gaps = spread(max(0, SETUP_SAMPLES[workload] - count), count + 1)
            for index, before in enumerate(gaps):
                for _ in range(before):
                    out = launch(workload, child_seed(args.seed, count
                                                      + len(setups)),
                                 os.path.join(base_dir,
                                              f"setup{len(setups)}"),
                                 False, args.smoke, setup_only=True,
                                 paced=True)
                    setups.append(out["setup_s"])
                if index == count:
                    break
                out = launch(workload, child_seed(args.seed, index),
                             os.path.join(base_dir, str(index)), False,
                             args.smoke, paced=True)
                launches.append(out)
                setups.append(out["setup_s"])
                elapsed = time.monotonic() - began
                if elapsed + out["process_s"] > BUDGET_S:
                    break
            metrics = end_to_end(launches, setups)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    summary = [{key: out[key] for key in
                ("seed", "setup_s", "phase_s", "regen_s", "setup_host_s",
                 "phase_host_s", "slowdown", "wall_s", "items", "attempted",
                 "failed", "peak_rss_mb", "process_s")}
               for out in launches]
    return {"workload": workload, "launches": summary, "setups": setups,
            "problems": [p for out in launches for p in out["problems"]],
            "attempted": sum(out["attempted"] for out in launches),
            "failed": sum(out["failed"] for out in launches),
            "metrics": metrics, **extra}


def run(args) -> int:
    """Measure one workload, or (``all``) each in turn with metric names
    prefixed by the workload, and print the result."""
    # Byte-compile up front so that no launch's set-up pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    host = fingerprint(child_env(os.path.join(RUNS_DIR, "<launch>")))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [measure(workload, args, host) for workload in workloads]
    metrics = {}
    for done in runs:
        prefix = f"{done['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + name: metric
                        for name, metric in done.pop("metrics").items()})
    problems = [p for done in runs for p in done["problems"]]
    print(json.dumps({"host": host}, sort_keys=True))
    for done in runs:
        print(json.dumps(done, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(done["attempted"] for done in runs),
        "failed": sum(done["failed"] for done in runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured work per invocation; sets the "
                             "number of launches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload (tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (LaunchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
