"""Tests for extension experiments X1-X5."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.report import FigureSeries, Table, run_experiment


@pytest.fixture(scope="module")
def artifacts(study):
    return {eid: run_experiment(eid, study) for eid in ("X1", "X2", "X3", "X4", "X5")}


class TestX1WaitVsLoad:
    def test_structure(self, artifacts):
        fig = artifacts["X1"]
        assert isinstance(fig, FigureSeries)
        assert set(fig.series) == {"cpu", "gpu"}
        for load, wait in fig.series.values():
            assert (np.asarray(load) >= 0).all()
            assert (np.asarray(wait) >= 0).all()

    def test_load_below_ceiling(self, artifacts):
        load, _ = artifacts["X1"].series["cpu"]
        assert np.asarray(load).max() < 1.5  # offered load sane


class TestX2Panel:
    def test_rows(self, artifacts):
        table = artifacts["X2"]
        assert isinstance(table, Table)
        labels = table.column("practice")
        assert "machine learning" in labels
        assert "python" in labels

    def test_ml_adoption_significant(self, artifacts):
        table = artifacts["X2"]
        row = table.rows[list(table.column("practice")).index("machine learning")]
        assert "***" in row[-1]
        assert row[4].startswith("+")

    def test_fortran_declines(self, artifacts):
        table = artifacts["X2"]
        row = table.rows[list(table.column("practice")).index("fortran")]
        adopted, abandoned = int(row[2]), int(row[3])
        assert abandoned >= adopted

    def test_deterministic_across_runs(self, study):
        a = run_experiment("X2", study)
        b = run_experiment("X2", study)
        assert a.rows == b.rows


class TestX2PanelMemo:
    @staticmethod
    def _holder(questionnaire):
        return SimpleNamespace(responses=SimpleNamespace(questionnaire=questionnaire))

    def test_cold_and_warm_memo_render_identically(self, study):
        from repro.audit.digests import render_artifact
        from repro.report.extensions import _panel

        _panel.cache_clear()
        cold = render_artifact(run_experiment("X2", study))
        assert _panel.cache_info().misses == 1
        warm = render_artifact(run_experiment("X2", study))
        assert _panel.cache_info().hits == 1
        assert cold == warm

    def test_equal_instruments_share_one_panel(self):
        from repro.core.instrument import build_instrument
        from repro.report.extensions import _panel, _panel_for

        _panel.cache_clear()
        first, second = build_instrument(), build_instrument()
        assert first is not second
        assert _panel_for(self._holder(first)) is _panel_for(self._holder(second))
        assert _panel.cache_info().misses == 1

    def test_different_content_gets_its_own_panel(self):
        from repro.core.instrument import build_instrument
        from repro.report.extensions import _panel, _panel_for
        from repro.survey.schema import Questionnaire

        _panel.cache_clear()
        base = build_instrument()
        renamed = Questionnaire(
            "another-instrument", base.questions, base.sections, base.skip_logic
        )
        ungated = Questionnaire(base.name, base.questions, base.sections, {})
        panels = [_panel_for(self._holder(q)) for q in (base, renamed, ungated)]
        assert len({id(p) for p in panels}) == 3
        assert panels[1].wave_a.questionnaire.name == "another-instrument"


class TestX3WeightedVsRaw:
    def test_structure(self, artifacts):
        table = artifacts["X3"]
        assert len(table.rows) == 5
        assert "weighted" in table.columns

    def test_design_shift_small_for_representative_sample(self, artifacts):
        # The generator samples fields at population shares, so shifts
        # should be a few points at most.
        table = artifacts["X3"]
        for row in table.rows:
            shift = abs(float(row[3].removesuffix("pp")))
            assert shift < 10.0


class TestX4Rhythm:
    def test_structure(self, artifacts):
        fig = artifacts["X4"]
        hourly_x, hourly_y = fig.series["hourly"]
        assert hourly_x.shape == (24,)
        weekly_x, weekly_y = fig.series["weekly"]
        assert weekly_x.shape == (7,)

    def test_diurnal_pattern_visible(self, artifacts):
        _, hourly = artifacts["X4"].series["hourly"]
        assert hourly[14] > 1.5 * hourly[3]

    def test_weekend_dip(self, artifacts):
        _, weekly = artifacts["X4"].series["weekly"]
        weekday_mean = weekly[:5].mean()
        weekend_mean = weekly[5:].mean()
        assert weekday_mean > 1.5 * weekend_mean


class TestX5Walltime:
    def test_structure(self, artifacts):
        table = artifacts["X5"]
        assert table.rows[0][0] == "all partitions"
        assert len(table.rows) >= 3

    def test_users_over_request(self, artifacts):
        table = artifacts["X5"]
        median = float(table.rows[0][3])
        assert 0.1 < median < 0.9  # runtimes well under requests

    def test_quartiles_ordered(self, artifacts):
        for row in artifacts["X5"].rows:
            q25, q50, q75 = float(row[2]), float(row[3]), float(row[4])
            assert q25 <= q50 <= q75


class TestDocumentIncludesExtensions:
    def test_extensions_in_report(self, study):
        from repro.report import build_report

        text = build_report(study, include_quality_appendix=False)
        for eid in ("X1", "X2", "X3", "X4", "X5"):
            assert f"experiment {eid}:" in text
