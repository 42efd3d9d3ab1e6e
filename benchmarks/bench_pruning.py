"""E7 — effectiveness of the domain-specific pruning techniques (Sec. 5.2 / App. D).

The paper reports that pruning reduces the number of candidate samples needed
by a factor of 3 or more on scenarios like bumper-to-bumper traffic.  The
synthetic road map is friendlier than the GTA V map (its polygons are wide
and well connected), so the absolute factor here is smaller, but pruning must
never hurt: it only removes sample-space volume that could not have produced
a valid scene.

The pruned measurement runs ``prune_scenario`` on a second compile and then
rejection-samples it exactly like the baseline (see
``benchmarks/bench_engine.py`` for the full strategy comparison).
"""

from repro.experiments.pruning_eval import pruning_table, run_pruning_experiment

from conftest import save_result


def test_pruning_benchmark(benchmark, record_result):
    comparisons = benchmark.pedantic(
        lambda: run_pruning_experiment(samples=5, seed=0), rounds=1, iterations=1
    )
    table = pruning_table(comparisons)
    record_result(
        "pruning",
        table
        + "\n\nPaper (Sec 5.2 / App. D): pruning reduced the number of samples needed"
        "\nby a factor of 3 or more on scenarios such as bumper-to-bumper traffic.",
    )
    for comparison in comparisons:
        # Soundness shows up as "pruning never makes sampling harder" (up to noise).
        assert comparison.pruned_iterations <= comparison.unpruned_iterations * 1.5 + 5
        assert 0 < comparison.area_ratio <= 1.0 + 1e-9
