"""Tests for the grammar-driven fuzzer (generation, oracles, campaign)."""

import math
import random

import pytest

from repro.core.errors import ScenicError
from repro.fuzz import (
    CampaignConfig,
    check_invalid_program,
    derive_seed,
    generate_invalid_program,
    generate_program,
    mutate_program,
    run_campaign,
    run_oracles,
)
from repro.fuzz.oracles import EXACT_EQUIVALENCE_STRATEGIES, scene_record, records_differ
from repro.language import scenario_from_string


class TestGenerator:
    def test_generation_is_deterministic(self):
        for seed in (0, 7, 123456):
            first = generate_program(seed)
            second = generate_program(seed)
            assert first.source == second.source
            assert first.checks == second.checks
            assert first.world == second.world

    def test_different_seeds_differ(self):
        sources = {generate_program(seed).source for seed in range(30)}
        assert len(sources) >= 28  # near-certain uniqueness

    def test_generated_programs_compile(self):
        for seed in range(80):
            program = generate_program(seed)
            scenario = scenario_from_string(program.source)
            assert len(scenario.objects) == program.object_count, program.source

    def test_worlds_and_features_are_covered(self):
        worlds = set()
        features = set()
        for seed in range(120):
            program = generate_program(seed)
            worlds.add(program.world)
            features.update(program.features)
        assert worlds == {None, "gtaLib", "mars", "warehouse"}
        # The grammar walk must reach the constructs the tentpole names.
        for expected in ("class", "def", "for", "if", "require", "mutate", "param", "facing"):
            assert expected in features, f"feature {expected!r} never generated"

    def test_planned_checks_reference_real_objects(self):
        for seed in range(60):
            program = generate_program(seed)
            for check in program.checks:
                assert 0 <= check.object_index < program.object_count

    def test_mutation_mode_is_deterministic(self):
        base = generate_program(3).source
        assert mutate_program(base, 11) == mutate_program(base, 11)

    def test_invalid_mode_is_deterministic(self):
        assert generate_invalid_program(5) == generate_invalid_program(5)


class TestInvalidPrograms:
    def test_invalid_programs_never_crash_the_front_end(self):
        """The 'never crashes' contract: ScenicError or clean compile, only."""
        for seed in range(150):
            source = generate_invalid_program(seed)
            assert check_invalid_program(source) is None, source


class TestOracles:
    def test_oracles_pass_on_generated_programs(self):
        verdicts = {"pass": 0, "skip": 0, "fail": 0}
        for seed in range(25):
            report = run_oracles(generate_program(seed), max_iterations=200)
            verdicts[report.verdict] += 1
            assert report.verdict != "fail", [str(f) for f in report.failures]
        assert verdicts["pass"] >= 15  # most programs are feasible

    def test_oracle_catches_scene_divergence(self):
        """A strategy whose scenes drift must be flagged by the exact oracle."""
        from repro.fuzz.selfcheck import run_selfcheck

        ok, report = run_selfcheck(seed=0, max_programs=40)
        assert ok, report

    def test_scene_record_comparison(self):
        scenario = scenario_from_string(
            "ego = Object at 0 @ 0\nObject at 5 @ 5, with requireVisible False\n"
        )
        scene = scenario.generate(seed=1)
        record = scene_record(scene)
        assert records_differ(record, record) is None
        import copy

        other = copy.deepcopy(record)
        other["objects"][1]["heading"] += 1e-6
        assert "heading" in records_differ(record, other)

    def test_exact_set_matches_golden_corpus_contract(self):
        assert "rejection" in EXACT_EQUIVALENCE_STRATEGIES
        assert "vectorized" in EXACT_EQUIVALENCE_STRATEGIES

    def test_oracles_handle_random_mutation_scale(self):
        """``mutate x by (a, b)`` is a valid program; the oracle's mutation
        probe must not branch on the random scale's truthiness."""
        source = (
            "ego = Object at 0 @ 0\n"
            "x = Object at 10 @ 0, with requireVisible False\n"
            "mutate x by (0.1, 0.5)\n"
        )
        report = run_oracles(source, seed=1, max_iterations=100)
        assert report.verdict != "fail", [str(f) for f in report.failures]


class TestCampaign:
    def test_mini_campaign_has_no_finds(self, tmp_path):
        config = CampaignConfig(
            seed=20260729, count=40, max_iterations=150, regression_dir=tmp_path
        )
        result = run_campaign(config, corpus=[generate_program(1).source])
        assert result.ok, result.summary()
        assert result.executed == 40
        assert result.passed + result.skipped + result.invalid_ok == 40
        assert not list(tmp_path.iterdir())  # no finds -> nothing persisted

    def test_campaign_seed_derivation_is_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_campaign_persists_finds(self, tmp_path):
        """A failing oracle produces a .scenic + .json reproducer pair."""
        from repro.fuzz.oracles import OracleFailure, OracleReport

        def broken_oracle(program, **kwargs):
            seed = getattr(program, "seed", kwargs.get("seed", 0))
            report = OracleReport(seed=seed, verdict="fail")
            report.failures.append(OracleFailure("strategy-equivalence", "planted"))
            return report

        config = CampaignConfig(
            seed=3, count=6, invalid_fraction=0.0, mutation_fraction=0.0,
            regression_dir=tmp_path, shrink=False,
        )
        result = run_campaign(config, oracle=broken_oracle)
        assert not result.ok
        scenic_files = list(tmp_path.glob("*.scenic"))
        json_files = list(tmp_path.glob("*.json"))
        assert len(scenic_files) == len(result.finds) == 6
        assert len(json_files) == 6

    def test_time_budget_truncates(self):
        config = CampaignConfig(seed=0, count=10_000, time_budget=1.5)
        result = run_campaign(config)
        assert result.executed < 10_000


class TestKernelOracle:
    def test_kernel_equivalence_on_concrete_scene(self):
        from repro.fuzz.oracles import check_kernel_equivalence

        scenario = scenario_from_string(
            "ego = Object at 0 @ 0\n"
            "Object at 6 @ 2, facing 40 deg, with requireVisible False\n"
            "Object at -4 @ 5, facing -10 deg, with requireVisible False\n"
        )
        scene = scenario.generate(seed=9)
        assert check_kernel_equivalence(scenario, scene, seed=9) == []


class TestRequirementRecheck:
    def test_recheck_flags_planted_violation(self):
        from repro.fuzz.oracles import recheck_scene
        from repro.fuzz.program_gen import PlannedCheck

        scenario = scenario_from_string(
            "ego = Object at 0 @ 0\nObject at 30 @ 0, with requireVisible False\n"
        )
        scene = scenario.generate(seed=0)
        ok = recheck_scene(scenario, scene, [PlannedCheck("max_distance", 1, 50.0)])
        assert ok == []
        bad = recheck_scene(scenario, scene, [PlannedCheck("max_distance", 1, 10.0)])
        assert bad and "distance" in bad[0]

    def test_hard_requirements_hold_on_recorded_sample(self):
        from repro.fuzz.oracles import draw_scene_with_sample, recheck_hard_requirements

        scenario = scenario_from_string(
            "ego = Object at 0 @ 0\n"
            "c = Object at (5, 15) @ 0, with requireVisible False\n"
            "require (distance to c) <= 12\n"
        )
        scene, sample = draw_scene_with_sample(scenario, seed=4, max_iterations=500)
        assert scene is not None
        assert recheck_hard_requirements(scenario, sample) == []


class TestCli:
    def test_repro_subcommand_regenerates_and_reports(self, capsys):
        from repro.fuzz.__main__ import main

        code = main(["--seed", "20260729", "--repro", "3", "--max-iterations", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict:" in out
        assert "program 3 of campaign seed 20260729" in out

    def test_campaign_subcommand_smoke(self, capsys, tmp_path, monkeypatch):
        from repro.fuzz.__main__ import main

        monkeypatch.chdir(tmp_path)  # no examples/ corpus, no tests/ dir
        code = main(["--seed", "1", "--n", "8", "--max-iterations", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz campaign: 8 programs" in out

    def test_campaign_writes_finds_to_out_dir(self, capsys, tmp_path, monkeypatch):
        import repro.fuzz.runner as runner_module
        from repro.fuzz.__main__ import main
        from repro.fuzz.oracles import OracleFailure, OracleReport

        def failing_oracle(program, **kwargs):
            report = OracleReport(seed=getattr(program, "seed", 0), verdict="fail")
            report.failures.append(OracleFailure("kernel", "planted cli failure"))
            return report

        monkeypatch.setattr(runner_module, "run_oracles", failing_oracle)
        out_dir = tmp_path / "finds"
        code = main(
            ["--seed", "2", "--n", "3", "--invalid-fraction", "0", "--no-shrink",
             "--out", str(out_dir)]
        )
        assert code == 1
        assert list(out_dir.glob("*.scenic"))


# ---------------------------------------------------------------------------
# Statistical-equivalence oracle (oracle E)
# ---------------------------------------------------------------------------


def test_ks_statistic_reference_behaviour():
    from repro.fuzz.oracles import ks_statistic

    same = [float(i) for i in range(50)]
    assert ks_statistic(same, list(same)) == pytest.approx(0.0, abs=1e-12)
    low = [float(i) for i in range(50)]
    high = [float(i) + 1000.0 for i in range(50)]
    assert ks_statistic(low, high) == pytest.approx(1.0)


def test_two_sample_tests_accept_identical_and_flag_shifted():
    from repro.fuzz.oracles import (
        KS_COEFFICIENT,
        chi_square_quantile,
        chi_square_two_sample,
        ks_statistic,
    )

    rng = random.Random(12)
    base = [rng.gauss(0.0, 1.0) for _ in range(400)]
    twin = [rng.gauss(0.0, 1.0) for _ in range(400)]
    shifted = [value + 0.8 for value in twin]

    ks_threshold = KS_COEFFICIENT * math.sqrt(2.0 / 400)
    assert ks_statistic(base, twin) < ks_threshold
    assert ks_statistic(base, shifted) > ks_threshold

    statistic, df = chi_square_two_sample(base, twin)
    assert statistic < chi_square_quantile(df)
    statistic, df = chi_square_two_sample(base, shifted)
    assert statistic > chi_square_quantile(df)


def test_chi_square_quantile_grows_with_df():
    from repro.fuzz.oracles import chi_square_quantile

    values = [chi_square_quantile(df) for df in (1, 3, 7, 15)]
    assert values == sorted(values)
    assert values[0] > 1.0


def test_statistical_equivalence_passes_on_gallery_program():
    """Oracle E: batch's marginals match rejection's on a real program."""
    from repro.experiments import scenarios
    from repro.fuzz.oracles import check_statistical_equivalence

    problems = check_statistical_equivalence(
        scenarios.two_cars(), seed=5, samples=60, max_iterations=3000
    )
    assert problems == []
