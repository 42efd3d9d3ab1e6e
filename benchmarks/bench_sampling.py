"""E8/E9 — scene-generation performance over the Appendix A gallery.

The paper states that all reasonable scenarios needed at most a few hundred
rejection-sampling iterations, yielding a sample within a few seconds
(Sec. 5.2).  This benchmark samples every gallery scenario and reports the
mean/max iteration counts and wall-clock time per scene.
"""

from repro.experiments import scenarios
from repro.experiments.pruning_eval import measure_gallery_sampling, sampling_table

from conftest import save_result


def test_gallery_sampling_benchmark(benchmark, record_result):
    measurements = benchmark.pedantic(
        lambda: measure_gallery_sampling(samples=3, seed=0), rounds=1, iterations=1
    )
    table = sampling_table(measurements)
    record_result(
        "sampling_gallery",
        table
        + "\n\nPaper (Sec 5.2): all reasonable scenarios needed at most a few hundred"
        "\niterations, yielding a sample within a few seconds.",
    )
    # The headline claim should hold for the reproduction too.
    for measurement in measurements:
        assert measurement.mean_seconds < 10.0


def test_single_scenario_throughput(benchmark):
    """Wall-clock time to draw one scene from the generic two-car scenario.

    The scenario is compiled once, outside the timed draws.
    """
    scenario = scenarios.compile_scenario(scenarios.two_cars())
    seeds = iter(range(100000))

    def draw_one():
        return scenario.generate(seed=next(seeds), max_iterations=20000)

    scene = benchmark(draw_one)
    assert len(scene.objects) == 3


def test_compilation_throughput(benchmark):
    """Time to compile (lex, parse, interpret) the bumper-to-bumper program."""
    source = scenarios.bumper_to_bumper()
    scenario = benchmark(lambda: scenarios.compile_scenario(source))
    assert len(scenario.objects) == 13
