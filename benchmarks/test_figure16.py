"""Benchmark for Figure 16: region-extension optimization impact."""

from repro.compiler import clear_compile_memo
from repro.harness import figure16, optimization_eligible_benchmarks


def test_figure16_region_optimization(benchmark, runner):
    result = benchmark.pedantic(
        figure16, kwargs=dict(scale="tiny", runner=runner),
        iterations=1, rounds=1)
    assert result
    improved = sum(1 for v in result.values()
                   if v["with_opt"] <= v["without_opt"] + 1e-9)
    # The optimization must help (or at least not hurt) most of the
    # eligible benchmarks.
    assert improved >= len(result) // 2
    benchmark.extra_info["eligible"] = sorted(result)
    benchmark.extra_info["ratios"] = {
        k: (round(v["without_opt"], 3), round(v["with_opt"], 3))
        for k, v in result.items()}


def test_eligibility_analysis(benchmark):
    # Empty the compile memo before every round: the analysis compiles
    # each barrier kernel, and a memo hit would skip the allocation.
    eligible = benchmark.pedantic(optimization_eligible_benchmarks,
                                  setup=clear_compile_memo, rounds=5)
    assert 5 <= len(eligible) <= 12  # the paper found 7
