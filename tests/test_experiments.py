"""Tests for the experiment harness.

Each experiment runs on the shared mid-size fleet/report fixtures and is
checked against its paper shape target.  The registry and CLI are
exercised at the end.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ablation_distance,
    ablation_features,
    baselines_prediction,
    fig01_profile_durations,
    fig02_attribute_boxes,
    fig03_elbow,
    fig04_pca_groups,
    fig05_centroids,
    fig06_deciles,
    fig07_distance_series,
    fig08_poly_fits,
    fig09_rw_correlation,
    fig10_env_correlation,
    fig11_tc_zscores,
    fig12_poh_zscores,
    fig13_regression_tree,
    sig_model_selection,
    table1_attributes,
    table2_taxonomy,
    table3_prediction,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment


def test_table1_lists_the_twelve_attributes():
    result = table1_attributes.run()
    assert result.data["n_attributes"] == 12
    assert "RRER" in result.rendered


def test_fig1_profile_duration_fractions(mid_fleet):
    result = fig01_profile_durations.run(mid_fleet)
    assert 0.5 < result.data["fraction_over_10_days"] <= 1.0
    assert 0.3 < result.data["fraction_full_20_days"] < 0.75
    assert "paper: 78.5%" in result.rendered


def test_fig2_variation_split(mid_report):
    result = fig02_attribute_boxes.run(mid_report)
    spread = result.data["central_90_spread"]
    # The paper's "small variation" attributes vary less than the
    # "medium to large" ones, on average.
    small = np.mean([spread[s] for s in
                     ("CPSC", "R-CPSC", "SER", "HFW", "HER")])
    large = np.mean([spread[s] for s in
                     ("TC", "SUT", "POH", "RSC", "R-RSC")])
    assert small < large


def test_fig3_elbow_at_three(mid_report):
    result = fig03_elbow.run(mid_report)
    assert result.data["best_k"] == 3
    curve = np.array(result.data["average_distances"])
    assert curve[0] > curve[-1]


def test_fig4_group_counts(mid_report):
    result = fig04_pca_groups.run(mid_report)
    counts = result.data["counts"]
    assert counts["group1"] > counts["group3"] > counts["group2"]
    assert sum(counts.values()) == mid_report.records.n_records


def test_fig5_centroid_manifestations(mid_report):
    result = fig05_centroids.run(mid_report)
    from repro.core.taxonomy import FailureType
    values = result.data["centroid_values"]
    # G2 centroid: most uncorrectable errors (lowest RUE).
    assert values[FailureType.BAD_SECTOR]["RUE"] == min(
        v["RUE"] for v in values.values()
    )
    # G3 centroid: most reallocated sectors.
    assert values[FailureType.HEAD]["R-RSC"] == max(
        v["R-RSC"] for v in values.values()
    )


def test_fig6_decile_contrasts(mid_report):
    result = fig06_deciles.run(mid_report)
    deciles = result.data["deciles"]
    # G2 has the lowest RUE deciles.
    assert deciles["RUE"]["group2"][0] < deciles["RUE"]["group1"][0]
    assert deciles["RUE"]["group2"][0] < deciles["RUE"]["group3"][0]
    # G3's R-RSC deciles all sit near the top of the scale.
    assert np.all(deciles["R-RSC"]["group3"] > 0.8)


def test_table2_population_mix(mid_report):
    result = table2_taxonomy.run(mid_report)
    fractions = result.data["fractions"]
    assert fractions["LOGICAL"] == pytest.approx(0.596, abs=0.08)
    assert fractions["BAD_SECTOR"] == pytest.approx(0.076, abs=0.05)
    assert fractions["HEAD"] == pytest.approx(0.328, abs=0.08)


def test_fig7_group2_monotone_descent(mid_report):
    result = fig07_distance_series.run(mid_report)
    trend = result.data["descent_trend"]
    # G2 decreases essentially monotonically over the whole profile;
    # G1/G3 fluctuate around a plateau before the short final descent.
    assert trend["group2"] < -0.9
    assert trend["group2"] < trend["group1"]
    assert trend["group2"] < trend["group3"]


def test_fig8_windows_and_orders(mid_report):
    result = fig08_poly_fits.run(mid_report)
    assert result.data["group1"]["window"] <= 20
    assert result.data["group2"]["window"] >= 100
    assert 8 <= result.data["group3"]["window"] <= 40
    # Free order-3 fit is never worse than order-1 (nested models).
    for group in ("group1", "group2", "group3"):
        r2 = result.data[group]["r_squared"]
        assert r2[3] >= r2[1] - 1e-9


def test_sig_models_winners(mid_report):
    result = sig_model_selection.run(mid_report)
    assert result.data["group2"]["winner"] == "first_order"
    # The revised forms always beat the paper's rejected Eq. (2)/(5).
    group1 = result.data["group1"]["rmse"]
    assert group1["revised_second_order"] <= group1["equation_2"]


def test_fig9_dominant_attributes(mid_report):
    result = fig09_rw_correlation.run(mid_report)
    assert set(result.data["group2"]["top"]) <= {
        "RUE", "R-RSC", "CPSC", "R-CPSC", "RSC", "RRER", "HER", "SER"
    }
    g1_correlations = result.data["group1"]["correlations"]
    assert max(abs(g1_correlations["RRER"]), abs(g1_correlations["HER"])) > 0.5


def test_fig10_tc_uncorrelated(mid_report):
    result = fig10_env_correlation.run(mid_report)
    for group in ("group1", "group2", "group3"):
        for cell in result.data[group]["cells"]:
            if cell.environmental == "TC":
                assert abs(cell.correlation) < 0.75


def test_fig11_group1_hottest(mid_report):
    result = fig11_tc_zscores.run(mid_report)
    assert result.data["most_negative"] == "group1"
    assert all(value < 0 for value in result.data["means"].values())


def test_fig12_group3_oldest(mid_report):
    result = fig12_poh_zscores.run(mid_report)
    assert result.data["most_negative"] == "group3"


def test_fig13_group3_tree_uses_reallocations(mid_report):
    result = fig13_regression_tree.run(mid_report)
    assert result.data["g3_dominant_feature"] in ("R-RSC", "RSC")
    assert result.data["tree_text"].strip()


def test_table3_group1_hardest(mid_report):
    result = table3_prediction.run(mid_report)
    assert result.data["hardest"] == "group1"
    for group in ("group1", "group2", "group3"):
        assert result.data[group]["error_rate"] < 0.15


def test_baselines_ordering(mid_fleet):
    result = baselines_prediction.run(mid_fleet)
    assert result.data["ordering_holds"]
    assert result.data["vendor_threshold"]["far"] < 0.05


def test_ablation_distance_euclidean_wins(mid_report):
    result = ablation_distance.run(mid_report)
    assert result.data["euclidean_wins"]


def test_ablation_features_high_purity(mid_fleet):
    result = ablation_features.run(mid_fleet)
    purity = result.data["purity"]
    assert all(value > 0.9 for value in purity.values())


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 27

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("table1")
        assert result.experiment_id == "table1"

    def test_cli_list(self, capsys):
        from repro.experiments.registry import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table3" in out

    def test_cli_no_arguments_shows_help(self, capsys):
        from repro.experiments.registry import main
        assert main([]) == 2

    def test_cli_unknown_id_errors(self, capsys):
        from repro.experiments.registry import main
        assert main(["bogus"]) == 1

    def test_result_str_contains_reference(self):
        result = run_experiment("table1")
        text = str(result)
        assert "table1" in text and "paper:" in text

    def test_cli_prints_duration_line_per_experiment(self, capsys):
        from repro.experiments.registry import main
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "[table1] finished in" in out

    def test_package_is_runnable_as_module(self):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "fig8" in result.stdout


class TestParallelRunner:
    """`run_many` / `--jobs`: deterministic fan-out of experiments."""

    @pytest.fixture()
    def small_scale(self):
        from repro.experiments import common
        saved = dict(common._active_scale)
        common.configure_default_fleet(n_drives=1500, seed=11)
        yield
        common._active_scale.update(saved)

    def test_run_many_matches_serial(self, small_scale):
        from repro.experiments.registry import run_many
        ids = ["table1", "fig3"]
        serial = run_many(ids, jobs=1)
        parallel = run_many(ids, jobs=2)
        assert [result.experiment_id for result, _ in parallel] == ids
        assert ([str(result) for result, _ in serial]
                == [str(result) for result, _ in parallel])
        assert all(wall_s >= 0.0 for _, wall_s in parallel)

    def test_run_many_unknown_id_fails_fast(self):
        from repro.experiments.registry import run_many
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_many(["table1", "fig99"], jobs=2)

    def test_run_many_negative_jobs_is_an_experiment_error(self):
        from repro.experiments.registry import run_many
        with pytest.raises(ExperimentError, match="jobs must be >= 0"):
            run_many(["table1"], jobs=-1)

    def test_run_many_emits_duration_and_jobs_telemetry(self, small_scale):
        from repro.experiments.common import set_pipeline_observer
        from repro.experiments.registry import run_many
        from repro.obs.observer import TelemetryObserver
        observer = TelemetryObserver()
        set_pipeline_observer(observer)
        try:
            run_many(["table1", "fig3"], jobs=1)
        finally:
            set_pipeline_observer(None)
        snapshot = observer.metrics.snapshot()
        assert snapshot["experiment_duration_s"]["count"] == 2
        assert snapshot["parallel_jobs"]["value"] == 1.0

    def test_cli_jobs_flag_renders_identically(self, small_scale, capsys):
        from repro.experiments.registry import main
        assert main(["table1", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["table1"]) == 0
        serial_out = capsys.readouterr().out
        strip = lambda text: [line for line in text.splitlines()
                              if "finished in" not in line]
        assert strip(parallel_out) == strip(serial_out)
        assert "[table1] finished in" in parallel_out
