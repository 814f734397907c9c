"""ASCII report rendering and the experiment registry/CLI."""

import pytest

from repro.errors import RequestError
from repro.harness.cache import ResultCache
from repro.harness.report import render_speedup_chart, render_stacked_bars
from repro.harness.experiments import REGISTRY, list_experiments, run_experiment


class TestSpeedupChart:
    CURVES = {
        "CommTM": {1: 1.0, 8: 7.9, 32: 30.0},
        "Baseline": {1: 1.0, 8: 0.5, 32: 0.3},
    }

    def test_contains_title_and_legend(self):
        out = render_speedup_chart(self.CURVES, "My Figure")
        assert out.startswith("My Figure")
        assert "o CommTM" in out
        assert "* Baseline" in out

    def test_axis_labels_show_threads(self):
        out = render_speedup_chart(self.CURVES)
        assert "32" in out
        assert "(threads)" in out

    def test_scales_to_max(self):
        out = render_speedup_chart(self.CURVES)
        assert "30.0" in out  # top axis label

    def test_empty_curves(self):
        assert render_speedup_chart({}, "t") == "t"

    def test_series_without_points(self):
        assert render_speedup_chart({"CommTM": {}, "Baseline": {}}, "t") \
            == "t"

    def test_single_point(self):
        out = render_speedup_chart({"X": {4: 2.0}})
        assert "4" in out

    def test_ends_with_the_speedups(self):
        out = render_speedup_chart(self.CURVES)
        assert out.splitlines()[-3:] == [
            "threads      1     8     32",
            "CommTM    1.00  7.90  30.00",
            "Baseline  1.00  0.50   0.30",
        ]


class TestStackedBars:
    ROWS = {
        "Base@8": {"a": 1.0, "b": 0.5},
        "CommTM@8": {"a": 0.2, "b": 0.1},
    }

    def test_renders_rows_and_totals(self):
        out = render_stacked_bars(self.ROWS, ["a", "b"], "Bars")
        assert "Base@8" in out and "CommTM@8" in out
        assert "1.500" in out and "0.300" in out

    def test_legend(self):
        out = render_stacked_bars(self.ROWS, ["a", "b"])
        assert "# a" in out and "= b" in out

    def test_bar_lengths_proportional(self):
        out = render_stacked_bars(self.ROWS, ["a", "b"])
        base_line = next(l for l in out.splitlines() if "Base@8" in l)
        commtm_line = next(l for l in out.splitlines() if "CommTM@8" in l)
        assert base_line.count("#") > commtm_line.count("#")

    def test_ends_with_values_normalized_to_the_first_row(self):
        out = render_stacked_bars(self.ROWS, ["a", "b"])
        assert out.splitlines()[-4:] == [
            "normalized to Base@8:",
            "config        a      b",
            "Base@8    0.667  0.333",
            "CommTM@8  0.133  0.067",
        ]

    def test_skips_rows_with_nothing_to_normalize_to(self):
        rows = {"Base@1": {"a": 0, "b": 0}, **self.ROWS}
        assert "normalized to Base@8:" in render_stacked_bars(rows, ["a", "b"])

    def test_empty(self):
        assert render_stacked_bars({}, ["a"], "t") == "t"


class TestRegistry:
    def test_all_figures_registered(self):
        names = set(REGISTRY)
        for expected in ("fig09", "fig10", "fig12a", "fig12b", "fig13",
                         "fig14"):
            assert expected in names
        for app in ("boruvka", "kmeans", "ssca2", "genome", "vacation"):
            assert f"fig16-{app}" in names
            assert f"fig17-{app}" in names
            assert f"fig18-{app}" in names
        assert "fig19-boruvka" in names and "fig19-kmeans" in names

    def test_list_experiments(self):
        lines = list_experiments()
        assert len(lines) == len(REGISTRY)
        assert any("counter" in l for l in lines)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_small_experiment(self):
        out = run_experiment("fig09", threads=[1, 2], scale=0.02)
        assert "Fig. 9" in out
        assert "CommTM" in out

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_empty_ladder_simulates_nothing(self, name, tmp_path):
        cache = ResultCache(tmp_path)
        report = run_experiment(name, threads=[], jobs=1, cache=cache)
        assert report.splitlines()[0]  # the entry's title
        assert cache.stores == cache.misses == 0

    @pytest.mark.parametrize("name", ["fig09", "fig16-kmeans",
                                      "fig17-kmeans", "ablation-gather"])
    @pytest.mark.parametrize("request_, refusal", [
        (dict(threads=[0, 8]), "positive integers, not 0"),
        (dict(threads=[1, 8.0]), "positive integers, not 8.0"),
        (dict(threads=[8, 200]), "200 threads on a 128-core machine"),
        (dict(scale=0), "finite positive number, not 0"),
        (dict(scale=-1), "finite positive number, not -1"),
        (dict(scale=float("nan")), "finite positive number, not nan"),
        (dict(scale=float("inf")), "finite positive number, not inf"),
    ], ids=["zero-threads", "float-threads", "too-many-threads",
            "zero-scale", "negative-scale", "nan-scale", "inf-scale"])
    def test_refuses_before_simulating(self, name, request_, refusal,
                                       tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(RequestError, match=refusal):
            run_experiment(name, **{"threads": [1, 8], **request_},
                           jobs=1, cache=cache)
        assert cache.stores == cache.misses == 0

    def test_scale_sizes_app_inputs(self, tmp_path):
        # --scale multiplies an app's input size as it does op counts.
        cache = ResultCache(tmp_path)
        stored = []
        cache.put = lambda spec, result: stored.append(spec)
        run_experiment("fig16-kmeans", threads=[1], scale=0.25, jobs=1,
                       cache=cache)
        assert {dict(spec.params)["num_points"] for spec in stored} == {128}


class TestCli:
    def test_list(self, capsys):
        from repro.harness.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out

    def test_unknown(self, capsys):
        from repro.harness.__main__ import main
        assert main(["fig99"]) == 2

    def test_run(self, capsys):
        from repro.harness.__main__ import main
        assert main(["fig09", "--threads", "1,2", "--scale", "0.02"]) == 0
        assert "Fig. 9" in capsys.readouterr().out

    @pytest.mark.parametrize("args, refusal", [
        (["--threads", "x"], "error: --threads 'x' is not a comma-separated "
                             "list of integers"),
        (["--threads", "0,8"], "error: thread counts must be positive "
                               "integers, not 0"),
        (["--threads", "200"], "error: 200 threads on a 128-core machine: "
                               "a point runs 1 to 128 threads"),
        (["--scale", "0"], "error: scale must be a finite positive number, "
                           "not 0.0"),
        (["--scale", "-1"], "error: scale must be a finite positive "
                            "number, not -1.0"),
        (["--scale", "nan"], "error: scale must be a finite positive "
                             "number, not nan"),
    ], ids=["threads-x", "threads-0", "threads-200", "scale-0", "scale--1",
            "scale-nan"])
    def test_refuses_a_bad_request_in_one_line(self, args, refusal, capsys,
                                               tmp_path):
        from repro.harness.__main__ import main
        assert main(["fig09", "--cache-dir", str(tmp_path), *args]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == [refusal]
        assert not list(tmp_path.iterdir())  # nothing was simulated
