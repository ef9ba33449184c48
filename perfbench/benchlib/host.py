"""Host fingerprint, a fixed probe of the host's speed, and the pacing
that takes the host's changing speed out of the end-to-end times.

The reference host is one on which :func:`probe` takes ``REFERENCE_S``.
On a host whose CPUs are shared with other tenants the same work can
take up to twice as long, in spells that last from seconds to minutes,
longer than one benchmark run, so host seconds of identical runs spread
by a fifth or more.  A :class:`Pace` runs the probe at most every
``PERIOD_S`` at the workload's call boundaries (the wrappers of
``spans.install``); :func:`reference_s` then divides an interval's host
time, less the probes run in it, by the host's slowdown over it.
The probe's code never changes, so a change to the program moves the
reference times as much as the host times, while a slow spell moves the
probe too and is divided out.  It cannot tell the program's own
processes from other tenants: work that oversubscribes the CPUs slows
the probe and is partly divided out as well.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

#: Seconds :func:`probe` takes on the reference host.
REFERENCE_S = 1.0e-3
#: Least time between two probes of one process (probing costs each
#: process about 3% of its time).
PERIOD_S = 0.05

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((32, 32))
_VECTOR = _RNG.random(4096)


def probe() -> int:
    """Fixed pure-Python plus NumPy work of about a millisecond."""
    acc = 0
    for i in range(12_000):
        acc = (acc + i * i) % 1_000_003
    work = _MATRIX
    for _ in range(8):
        work = (work @ _MATRIX) / 32.0
    np.sort(_VECTOR)
    return acc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_ms(reps: int = 200) -> float:
    """Median time of ``reps`` probes, in ms.

    The work never changes, so the ratio of two hosts' calibration times
    is the factor by which their timings are expected to differ.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def fingerprint(env: dict | None = None) -> dict:
    """CPU model, CPU count, interpreter and NumPy versions, the
    ``REPRO_*`` variables of ``env`` (the environment the workload
    processes get; default this process's), and the calibration time."""
    env = os.environ if env is None else env

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_env": {key: value for key, value in sorted(env.items())
                      if key.startswith("REPRO_")},
        "calibration_ms": calibration_ms(),
        "reference_ms": REFERENCE_S * 1000.0,
    }


class Pace:
    """Probe samples ``(start, end)`` (monotonic seconds) of one process,
    or of a pool's workers merged in its parent."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._due = 0.0

    def tick(self) -> None:
        """Probe if ``PERIOD_S`` has passed since the last probe."""
        if time.monotonic() >= self._due:
            self.sample()

    def sample(self) -> None:
        start = time.monotonic()
        probe()
        end = time.monotonic()
        self.samples.append((start, end))
        self._due = end + PERIOD_S


def slowdown(samples: list, t0: float, t1: float) -> float:
    """The host's slowdown against the reference host over ``[t0, t1]``.

    A probe that takes ``d`` seconds ran at speed ``REFERENCE_S / d``;
    each moment takes the speed of the sample nearest to it, and the
    slowdown is the inverse of the time-weighted mean speed.  Work done
    in the interval is the integral of the speed, so this is the factor
    by which the interval's work took longer than on the reference host.
    """
    if not samples:
        raise ValueError("no host speed samples")
    ordered = sorted(samples)
    if t1 <= t0:
        return (ordered[0][1] - ordered[0][0]) / REFERENCE_S
    mids = [(start + end) / 2.0 for start, end in ordered]
    edges = ([float("-inf")]
             + [(a + b) / 2.0 for a, b in zip(mids, mids[1:])]
             + [float("inf")])
    work = 0.0
    for (start, end), lo, hi in zip(ordered, edges, edges[1:]):
        overlap = min(hi, t1) - max(lo, t0)
        if overlap > 0:
            work += overlap * REFERENCE_S / (end - start)
    return (t1 - t0) / work


def reference_s(samples: list, t0: float, t1: float,
                workers: int = 1) -> float:
    """Seconds that ``[t0, t1]`` would have taken on the reference host:
    its host time less the probes run in it (run by ``workers``
    processes side by side), over the host's slowdown."""
    probing = sum(max(0.0, min(end, t1) - max(start, t0))
                  for start, end in samples)
    return (t1 - t0 - probing / workers) / slowdown(samples, t0, t1)
