"""Scheme composition: the compile pipeline of Section VI-B."""

import numpy as np
import pytest

from repro.compiler import (SCHEMES, clear_compile_memo, compile_kernel,
                            pipeline, prepare_launch, scan_kernel,
                            scheme_by_name, Detection, Recovery)
from repro.errors import ConfigError
from repro.isa import Imm, Instruction, Kernel, Op, Reg
from repro.sim import LaunchConfig, run_kernel
from repro.workloads import workload_by_name


class TestSchemeRegistry:
    def test_all_nine_plus_flame(self):
        assert len(SCHEMES) == 10
        assert "flame" in SCHEMES
        assert "baseline" in SCHEMES

    def test_flame_is_sensor_renaming_with_opt(self):
        flame = scheme_by_name("flame")
        assert flame.recovery is Recovery.RENAMING
        assert flame.detection is Detection.SENSOR
        assert flame.extend_regions
        noopt = scheme_by_name("sensor_renaming")
        assert not noopt.extend_regions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            scheme_by_name("magic")

    def test_runtime_flags(self):
        assert scheme_by_name("flame").uses_sensor_runtime
        assert not scheme_by_name("duplication_renaming").uses_sensor_runtime
        assert not scheme_by_name("hybrid_renaming").uses_sensor_runtime


class TestCompileShapes:
    def test_baseline_has_no_markers(self, loop_kernel):
        compiled = compile_kernel(loop_kernel, "baseline")
        assert all(i.op is not Op.RB for i in compiled.kernel.instructions)
        assert compiled.regions is None

    def test_recovery_schemes_are_war_free(self, loop_kernel):
        for name in ("renaming", "flame", "sensor_renaming",
                     "duplication_renaming", "hybrid_renaming"):
            compiled = compile_kernel(loop_kernel, name)
            scan = scan_kernel(compiled.kernel)
            assert not scan.mem_cuts, name

    def test_renaming_schemes_have_no_reg_wars(self, loop_kernel):
        compiled = compile_kernel(loop_kernel, "flame")
        assert scan_kernel(compiled.kernel).clean

    def test_duplication_adds_shadow_instructions(self, loop_kernel):
        plain = compile_kernel(loop_kernel, "renaming")
        dup = compile_kernel(loop_kernel, "duplication_renaming")
        assert len(dup.kernel.instructions) > len(plain.kernel.instructions)
        assert dup.duplication.duplicated > 0

    def test_hybrid_duplicates_less_than_full(self, loop_kernel):
        full = compile_kernel(loop_kernel, "duplication_renaming")
        tail = compile_kernel(loop_kernel, "hybrid_renaming", wcdl=5)
        assert tail.duplication.duplicated <= full.duplication.duplicated

    def test_hybrid_scales_with_wcdl(self, loop_kernel):
        short = compile_kernel(loop_kernel, "hybrid_renaming", wcdl=2)
        long = compile_kernel(loop_kernel, "hybrid_renaming", wcdl=40)
        assert short.duplication.duplicated <= long.duplication.duplicated

    def test_checkpointing_needs_extra_param(self, loop_kernel):
        compiled = compile_kernel(loop_kernel, "checkpointing")
        assert compiled.needs_ckpt_param
        assert compiled.kernel.num_params == loop_kernel.num_params + 1

    def test_shadow_regs_do_not_count_for_occupancy(self, loop_kernel):
        plain = compile_kernel(loop_kernel, "renaming")
        dup = compile_kernel(loop_kernel, "duplication_renaming")
        assert dup.regs_per_thread == plain.regs_per_thread
        # But the functional register file is larger.
        assert dup.kernel.num_regs > plain.kernel.num_regs


class TestFunctionalEquivalence:
    """Every scheme must compute exactly what the baseline computes."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_scheme_preserves_semantics(self, loop_kernel, scheme):
        launch = LaunchConfig(grid=(2, 1), block=(64, 1),
                              params=(100, 0, 128))

        def init():
            mem = np.zeros(4096)
            mem[:100] = np.arange(100) / 7.0
            mem[128:228] = 1.5
            return mem

        golden = init()
        run_kernel(loop_kernel, launch, golden)

        compiled = compile_kernel(loop_kernel, scheme)
        mem = init()
        params, mem = prepare_launch(compiled, launch.params, mem,
                                     launch.num_blocks,
                                     launch.threads_per_block)
        launch2 = LaunchConfig(grid=launch.grid, block=launch.block,
                               params=params)
        run_kernel(compiled.kernel, launch2, mem,
                   regs_per_thread=compiled.regs_per_thread)
        assert np.allclose(mem[:300], golden[:300]), scheme

    def test_prepare_launch_noop_without_ckpt(self, loop_kernel):
        compiled = compile_kernel(loop_kernel, "renaming")
        mem = np.zeros(16)
        params, mem2 = prepare_launch(compiled, (1.0,), mem, 2, 64)
        assert params == (1.0,)
        assert mem2 is mem


#: Prints a digest of each kernel's compiled form (listing, labels,
#: register count) as one JSON line.
_COMPILED_FORMS = """
import hashlib, json
from repro.compiler import compile_kernel, scheme_by_name
from repro.workloads import workload_by_name
forms = {}
for workload in ("SGEMM", "NN"):
    for scheme in ("baseline", "flame"):
        compiled = compile_kernel(workload_by_name(workload).instance(
            "tiny").kernel, scheme_by_name(scheme), wcdl=20)
        kernel = compiled.kernel
        text = "\\n".join(str(inst) for inst in kernel.instructions)
        text += json.dumps(kernel.labels, sort_keys=True)
        text += str(compiled.regs_per_thread)
        forms[workload + "/" + scheme] = hashlib.sha256(
            text.encode()).hexdigest()
print(json.dumps(forms))
"""


class TestProcessIndependence:
    def test_compiled_form_ignores_the_hash_seed(self):
        """Register sets iterate in hash order, and the coloring follows
        it: a hash that varies per process would compile the same
        kernel differently in different shard workers."""
        import json
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        forms = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", _COMPILED_FORMS],
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=120).stdout
            forms.append(json.loads(out))
        assert len(forms[0]) == 4
        assert forms[0] == forms[1]


# ----------------------------------------------------------------------
# The compile memo
# ----------------------------------------------------------------------
#: Small kernels covering barriers, guards, loops and atomics.
MEMO_ROSTER = ("SGEMM", "NN", "LBM", "Triad", "Histogram")

#: Every compile scheme, plus the two ablation variants that change the
#: region-formation key.
MEMO_VARIANTS = ([(name, {}) for name in sorted(SCHEMES)]
                 + [("flame", {"use_provenance": False}),
                    ("checkpointing", {"use_provenance": False}),
                    ("flame", {"compact": False})])


def _compiled_form(compiled) -> tuple:
    """Everything a compile produces that a run or a figure reads."""
    regions = compiled.regions
    allocation = compiled.allocation
    return (
        compiled.kernel.to_asm(),
        compiled.regs_per_thread,
        allocation.kernel.to_asm(), allocation.num_regs,
        allocation.num_preds, sorted(allocation.reg_map.items()),
        sorted(allocation.pred_map.items()),
        None if regions is None else (
            regions.kernel.to_asm(), regions.boundaries, regions.war_cuts,
            regions.renames, regions.rename_fallback_cuts,
            regions.extended_barriers, list(regions.residual_reg_wars)),
        None if compiled.checkpoints is None
        else sorted(compiled.checkpoints.slot_of.items()),
    )


def _cold(kernel, scheme, **options):
    clear_compile_memo()
    return compile_kernel(kernel, scheme, **options)


@pytest.fixture
def memo():
    """An empty compile memo, emptied again afterwards."""
    clear_compile_memo()
    yield pipeline._COMPILE_MEMO
    clear_compile_memo()


class TestCompileMemo:
    @pytest.mark.parametrize("workload", MEMO_ROSTER)
    def test_hit_equals_cold_compile(self, workload, memo):
        kernel = workload_by_name(workload).instance("tiny").kernel
        cold = {(scheme, tuple(options.items())):
                _compiled_form(_cold(kernel, scheme, **options))
                for scheme, options in MEMO_VARIANTS}
        clear_compile_memo()
        for _ in range(2):   # misses and hits, then hits only
            for scheme, options in MEMO_VARIANTS:
                warm = compile_kernel(kernel, scheme, **options)
                assert _compiled_form(warm) == \
                    cold[(scheme, tuple(options.items()))], (scheme, options)

    def test_schemes_share_one_formation_per_recovery(self, loop_kernel,
                                                      memo, monkeypatch):
        calls = {"allocate_registers": 0, "form_regions": 0}

        def counted(name):
            original = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counted(name))
        for scheme in SCHEMES:
            compile_kernel(loop_kernel, scheme)
        # One allocation; one formation each for renaming, renaming with
        # region extension (flame) and checkpointing.
        assert calls == {"allocate_registers": 1, "form_regions": 3}

    def test_returned_objects_are_private(self, loop_kernel, memo):
        expected = {scheme: _compiled_form(_cold(loop_kernel, scheme))
                    for scheme in ("flame", "checkpointing", "baseline")}
        clear_compile_memo()
        for _ in range(2):   # vandalize a miss's result, then a hit's
            for scheme in expected:
                compiled = compile_kernel(loop_kernel, scheme)
                assert "_exec_plans" not in compiled.kernel.__dict__
                kernels = [compiled.kernel, compiled.allocation.kernel]
                if compiled.regions is not None:
                    kernels.append(compiled.regions.kernel)
                    compiled.regions.residual_reg_wars.append((0, Reg(0)))
                for kernel in kernels:
                    kernel.instructions.append(Instruction(op=Op.EXIT))
                    label = next(iter(kernel.labels))
                    kernel.labels[label] = 0
                    kernel.__dict__["_exec_plans"] = {"planted": None}
                compiled.allocation.reg_map.clear()
        for scheme, form in expected.items():
            compiled = compile_kernel(loop_kernel, scheme)
            assert _compiled_form(compiled) == form, scheme
            assert "_exec_plans" not in compiled.kernel.__dict__

    @pytest.mark.parametrize("change", ["operand", "label", "guard_sense",
                                        "comment"])
    def test_near_identical_kernels_do_not_alias(self, loop_kernel, memo,
                                                 change):
        instructions = list(loop_kernel.instructions)
        labels = dict(loop_kernel.labels)
        guarded = next(i for i, inst in enumerate(instructions)
                       if inst.guard is not None)
        if change == "operand":
            mad = next(i for i, inst in enumerate(instructions)
                       if inst.op is Op.MAD)
            instructions[mad] = instructions[mad].with_(
                srcs=(Imm(3.0),) + instructions[mad].srcs[1:])
        elif change == "label":
            name, at = max(labels.items(), key=lambda item: item[1])
            labels[name] = at - 1
        elif change == "guard_sense":
            instructions[guarded] = instructions[guarded].with_(
                guard_sense=not instructions[guarded].guard_sense)
        else:
            instructions[guarded] = instructions[guarded].with_(
                comment="changed")
        variant = Kernel(name=loop_kernel.name, instructions=instructions,
                         labels=labels, num_params=loop_kernel.num_params,
                         shared_words=loop_kernel.shared_words)
        for scheme in ("flame", "checkpointing", "baseline"):
            original = _compiled_form(_cold(loop_kernel, scheme))
            expected = _compiled_form(_cold(variant, scheme))
            assert expected != original
            clear_compile_memo()
            compile_kernel(loop_kernel, scheme)
            assert _compiled_form(compile_kernel(variant, scheme)) \
                == expected, scheme
            assert _compiled_form(compile_kernel(loop_kernel, scheme)) \
                == original, scheme

    def test_lru_bound(self, memo, monkeypatch):
        monkeypatch.setattr(pipeline, "COMPILE_MEMO_SIZE", 3)
        kernels = [workload_by_name(name).instance("tiny").kernel
                   for name in MEMO_ROSTER]
        for kernel in kernels[:3]:
            compile_kernel(kernel, "baseline")   # one allocation each
        assert len(memo) == 3
        compile_kernel(kernels[0], "baseline")   # hit: most recent now
        compile_kernel(kernels[3], "baseline")   # evicts kernels[1]
        assert len(memo) == 3
        digests = {key[1] for key in memo}
        assert pipeline._content_digest(kernels[0]) in digests
        assert pipeline._content_digest(kernels[1]) not in digests
        compile_kernel(kernels[4], "flame")      # allocation + formation
        assert len(memo) == 3
