"""The issue path keys machine state by ints, never by operand or enum
objects.

Scoreboard keys are ints from plan lowering, ``SimStats.by_fu`` is a
list indexed by functional-unit slot, and specials are positional, so a
launch whose plan is already lowered calls no ``Reg.__hash__``,
``Pred.__hash__`` or ``Enum.__hash__`` from ``repro/sim/``.  Call counts
are exact and host-independent: a change that brings object keys back
onto the issue path fails here rather than in a noisy timing gate.
"""

import cProfile
import os
import pstats

from repro.core.schemes import launcher


def _sim_hash_callers(stats: pstats.Stats) -> dict[str, int]:
    """``caller -> calls`` of operand and enum ``__hash__`` whose
    caller lives under ``repro/sim/``.  A hash taken inside a builtin
    (``dict.get``, ``set.add``) is charged to every caller of that
    builtin, since the profiler names the builtin as the caller."""
    found = {}
    for (path, _, name), (_, _, _, _, callers) in stats.stats.items():
        path = path.replace(os.sep, "/")
        if name != "__hash__" or not (path.endswith("repro/isa/operands.py")
                                      or path.endswith("/enum.py")):
            continue
        for caller, counts in callers.items():
            sites = ([caller] if caller[0] != "~"
                     else list(stats.stats[caller][4]))
            for cpath, cline, cname in sites:
                if "repro/sim/" in cpath.replace(os.sep, "/"):
                    key = f"{path}:__hash__ <- {cpath}:{cline}({cname})"
                    found[key] = found.get(key, 0) + counts[0]
    return found


def test_launch_hashes_no_operand_or_enum_keys():
    instance, compiled, launch = launcher("Triad", "flame", "tiny")
    launch()            # lowers and caches the plan, as a golden run does
    profiler = cProfile.Profile()
    profiler.enable()
    result, memory = launch()
    profiler.disable()
    assert instance.verify(memory)
    assert result.stats.instructions > 0
    assert _sim_hash_callers(pstats.Stats(profiler)) == {}
