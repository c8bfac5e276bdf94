"""Tests for repro.core.figures — figure data exporters."""

import csv

import pytest

from repro.core.figures import (
    FigureSeries,
    export_all_figures,
    fig2_series,
    fig3_series,
    fig4_series,
    fig5_series,
)
from repro.errors import ConfigError

#: Tiny scale keeps the whole module fast; generators accept any scale.
SCALE = 0.01


class TestFigureSeries:
    def test_csv_write(self, tmp_path):
        series = FigureSeries(
            name="demo", columns=("a", "b"), rows=((1, 2.5), (3, 4.0))
        )
        path = series.write_csv(tmp_path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "2.5"]

    def test_ragged_rejected(self):
        with pytest.raises(ConfigError):
            FigureSeries(name="x", columns=("a", "b"), rows=((1,),))


class TestGenerators:
    def test_fig2(self):
        series = fig2_series(scale=SCALE, quantities=(1024, 2000), repeats=1)
        assert series.columns[0] == "input"
        assert len(series.rows) == 4  # 2 inputs x 2 quantities
        inputs = {row[0] for row in series.rows}
        assert inputs == {"small", "full"}
        for row in series.rows:
            assert row[2] > 0 and row[4] > 0  # runtime, jpm positive

    def test_fig2_matches_benchmark_protocol(self):
        # The Fig 2 benchmark's protocol at this scale (workflow seed
        # derive_seed(0, name), pool seeds derive_seed(1, name, repeat)):
        # the exporter must write the numbers the benchmark prints.
        series = fig2_series(scale=SCALE, quantities=(1024, 2000), repeats=2)
        assert series.rows == (
            ("small", 1024, 0.248, 0.017, 0.676, 0.047),
            ("small", 2000, 0.266, 0.019, 0.82, 0.06),
            ("full", 1024, 2.596, 0.376, 0.066, 0.01),
            ("full", 2000, 2.95, 0.109, 0.074, 0.003),
        )

    def test_fig3(self):
        series = fig3_series(scale=SCALE, total_waveforms=800, levels=(1, 2), repeats=1)
        assert [row[0] for row in series.rows] == [1, 2]
        # per-DAGMan throughput falls with concurrency.
        assert series.rows[0][3] > series.rows[1][3]

    def test_fig4(self):
        all_series = fig4_series(scale=SCALE, total_waveforms=800, concurrency=1,
                                 max_points=50)
        names = {s.name for s in all_series}
        assert names == {
            "fig4_k1_exec_sorted_s",
            "fig4_k1_wait_sorted_s",
            "fig4_k1_instant_throughput_jpm",
            "fig4_k1_running_jobs",
        }
        for s in all_series:
            assert 1 <= len(s.rows) <= 50

    def test_fig5(self):
        series = fig5_series(
            scale=SCALE, total_waveforms=800, probes=(1, 60), queue_caps_min=(90,)
        )
        # 2 batches x (1 control + 2 probes).
        assert len(series.rows) == 6
        controls = [row for row in series.rows if row[1] == "control"]
        assert len(controls) == 2

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            fig2_series(scale=0.0)
        with pytest.raises(ConfigError):
            fig3_series(scale=1.5)

    def test_export_all(self, tmp_path):
        paths = export_all_figures(tmp_path, scale=SCALE)
        assert len(paths) >= 4
        for path in paths:
            assert path.exists()
            assert path.suffix == ".csv"
