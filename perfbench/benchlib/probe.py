"""Determinism probe: does ``compile_kernel`` give the same code in every
interpreter process?

Run as a script, it compiles every kernel the campaign workloads use and
prints one JSON line mapping ``"<workload>/<scheme>"`` to a SHA-256 of
the compiled form (instruction listing, labels, register count).  The
benchmark runs it in several fresh interpreters with different
``PYTHONHASHSEED`` values and counts the distinct forms per kernel.

A count above zero means that subprocess shard workers, which compile
their own kernel but adopt the coordinator's golden checkpoints, can
journal rows that differ from the inline run (see NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

#: The kernels of both campaign workloads (campaign-sites-pool2 uses a
#: subset of campaign-ckpt's).
PROBE_KERNELS = tuple((workload, scheme)
                      for workload in ("SGEMM", "Triad", "LBM", "NN")
                      for scheme in ("baseline", "flame"))

#: One fresh interpreter per hash seed.  Fixed seeds make the count a
#: repeatable figure for one commit.
HASH_SEEDS = (1, 2, 3, 4, 5, 6)


def compiled_form(workload: str, scheme: str) -> str:
    """SHA-256 of one kernel as compiled for the campaign (tiny scale)."""
    from repro.compiler import compile_kernel, scheme_by_name
    from repro.core.schemes import runtime_scheme_by_name
    from repro.workloads import workload_by_name

    instance = workload_by_name(workload).instance("tiny")
    compile_scheme = runtime_scheme_by_name(scheme).compile_scheme
    compiled = compile_kernel(instance.kernel, scheme_by_name(compile_scheme),
                              wcdl=20)
    kernel = compiled.kernel
    text = "\n".join(str(inst) for inst in kernel.instructions)
    text += "\nlabels " + json.dumps(kernel.labels, sort_keys=True)
    text += f"\nregs {compiled.regs_per_thread}"
    return hashlib.sha256(text.encode()).hexdigest()


def count_variants(forms: list[dict[str, str]]) -> dict[str, int]:
    """Per kernel: distinct compiled forms across processes, minus one."""
    kernels = sorted({name for form in forms for name in form})
    return {name: len({form[name] for form in forms if name in form}) - 1
            for name in kernels}


def run_probe(root: str, hash_seeds=HASH_SEEDS,
              timeout_s: float = 60.0) -> list[dict[str, str]]:
    """Compile the probe kernels in one fresh interpreter per hash seed
    and return each interpreter's ``{kernel: sha256}`` map."""
    forms = []
    for hash_seed in hash_seeds:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout_s, check=True)
        forms.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return forms


if __name__ == "__main__":
    print(json.dumps({f"{w}/{s}": compiled_form(w, s)
                      for w, s in PROBE_KERNELS}, sort_keys=True))
