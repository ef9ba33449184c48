"""Output checks that hold for any seed and any interpreter process.

Campaign rows are compared by trial key, never by raw journal bytes: a
process pool journals rows in completion order.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import replace


def read_rows(path: str) -> list[dict]:
    """Every trial row of a journal, in file order, without the
    ``type`` field."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.pop("type", "trial") == "trial":
                rows.append(record)
    return rows


def row_key(row: dict) -> tuple:
    return (row["workload"], row["scheme"], row["site"], row["index"])


def check_journal(rows: list[dict], spec) -> tuple[list[str], int]:
    """Check a campaign's journal rows against its spec.

    Returns ``(problems, failed)`` where ``failed`` counts trials
    journaled as ``infra_error`` or missing.  The checks: every trial
    key of the spec appears exactly once, no row is ``infra_error``,
    every outcome is in the taxonomy, and no ``flame`` row is SDC or
    DUE.
    """
    from repro.core.campaign import INFRA_ERROR, OUTCOMES, UNRECOVERED

    problems = []
    expected = {t.key for t in spec.trial_specs()}
    seen = Counter(row_key(row) for row in rows)
    missing = expected - set(seen)
    extra = set(seen) - expected
    duplicated = sorted(key for key, n in seen.items() if n > 1)
    infra = [row for row in rows if row["outcome"] == INFRA_ERROR]
    unknown = [row for row in rows if row["outcome"] not in OUTCOMES]
    flame_bad = [row for row in rows if row["scheme"] == "flame"
                 and row["outcome"] in UNRECOVERED]
    if missing:
        problems.append(f"{len(missing)} trial keys missing from the "
                        f"journal, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} journaled keys not in the spec, "
                        f"e.g. {sorted(extra)[0]}")
    if duplicated:
        problems.append(f"{len(duplicated)} trial keys journaled more "
                        f"than once, e.g. {duplicated[0]}")
    if infra:
        problems.append(f"{len(infra)} infra_error rows, e.g. "
                        f"{row_key(infra[0])}: {infra[0]['detail']}")
    if unknown:
        problems.append(f"{len(unknown)} rows with an outcome outside the "
                        f"taxonomy, e.g. {unknown[0]['outcome']!r}")
    if flame_bad:
        problems.append(f"{len(flame_bad)} flame trials unrecovered, e.g. "
                        f"{row_key(flame_bad[0])} {flame_bad[0]['outcome']}")
    return problems, len(missing) + len(infra)


def direct_rerun(spec, rows: list[dict], sample: int,
                 seed: int) -> list[str]:
    """Re-run a seeded sample of the campaign's trials in this process
    with ``checkpoint=False`` and compare each row with the journaled
    one (checkpointing is an execution strategy: rows must not change).

    ``run_trial`` uses the checkpoint recorder of a memoized golden
    whatever ``trial.checkpoint`` says, and the campaign left one on
    every cell, so the memo is emptied first: the goldens are rebuilt
    without a recorder and each re-run simulates from cycle 0 to the
    end.  A re-run that still fast-starts or stops early is a problem.
    """
    import repro.core.campaign as campaign

    by_key = {row_key(row): row for row in rows}
    trials = spec.trial_specs()
    chosen = random.Random(seed).sample(trials, min(sample, len(trials)))
    campaign._GOLDEN_CACHE.clear()
    problems = []
    for trial in chosen:
        direct = campaign.run_trial(replace(trial, checkpoint=False))
        if direct.fast_start or direct.converged:
            problems.append(f"re-run of {trial.key} without checkpoints "
                            f"took the checkpointed path")
        row = json.loads(json.dumps(direct.as_dict(), sort_keys=True))
        journaled = by_key.get(trial.key)
        if journaled != row:
            problems.append(f"direct re-run of {trial.key} differs from "
                            f"its journaled row: {row} != {journaled}")
    return problems


def check_figures(normalized: dict, geomeans: dict, schedulers: dict,
                  executes: list, expected_keys: set) -> list[str]:
    """Check one cold figure regeneration.

    ``executes`` lists ``(cache_key, verified)`` per executed run.
    Every expected run must execute exactly once on the empty cache and
    verify against its NumPy reference; every normalized time, Fig. 15
    geomean and Fig. 18 geomean must be finite and positive.
    """
    problems = []
    counts = Counter(key for key, _ in executes)
    missing = expected_keys - set(counts)
    if missing:
        problems.append(f"{len(missing)} figure runs never executed, e.g. "
                        f"{sorted(missing)[0]}")
    repeated = sorted(key for key, n in counts.items() if n > 1)
    if repeated:
        problems.append(f"{len(repeated)} figure runs executed more than "
                        f"once, e.g. {repeated[0]}")
    unverified = sorted(key for key, ok in executes if not ok)
    if unverified:
        problems.append(f"{len(unverified)} figure runs not verified, e.g. "
                        f"{unverified[0]}")
    values = [(f"{bench}/{scheme}", value)
              for bench, row in normalized.items()
              for scheme, value in row.items()]
    values += [(f"fig15/{scheme}", value) for scheme, value in
               geomeans.items()]
    values += [(f"fig18/{sched}", value) for sched, value in
               schedulers.items()]
    bad = [(name, value) for name, value in values
           if not (math.isfinite(value) and value > 0)]
    if bad:
        problems.append(f"{len(bad)} figure values not finite and "
                        f"positive, e.g. {bad[0]}")
    if not values:
        problems.append("no figure values produced")
    return problems
