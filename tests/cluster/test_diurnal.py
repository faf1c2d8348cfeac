"""Tests for diurnal/weekly arrival structure."""

import numpy as np
import pytest

from repro.cluster import WorkloadModel, WorkloadParams, arrival_profile
from repro.cluster.records import JobRecord, JobState, JobTable
from repro.cluster.workload import DAY, DIURNAL_PEAK, WEEK, diurnal_intensity


class TestDiurnalIntensity:
    def test_weekly_mean_is_one(self):
        t = np.linspace(0, WEEK, 7 * 24 * 60, endpoint=False)
        assert diurnal_intensity(t).mean() == pytest.approx(1.0, abs=0.01)

    def test_afternoon_beats_night(self):
        afternoon = diurnal_intensity(np.array([15.0 * 3600.0]))[0]
        night = diurnal_intensity(np.array([3.0 * 3600.0]))[0]
        assert afternoon > 2.0 * night

    def test_weekend_quieter(self):
        monday_noon = diurnal_intensity(np.array([12.0 * 3600.0]))[0]
        saturday_noon = diurnal_intensity(np.array([5 * DAY + 12.0 * 3600.0]))[0]
        assert saturday_noon == pytest.approx(0.4 * monday_noon)

    def test_nonnegative(self):
        t = np.linspace(0, WEEK, 1000)
        assert (diurnal_intensity(t) >= 0).all()

    def test_thinning_envelope_is_the_maximum(self):
        # Diurnal arrivals are thinned with acceptance intensity / envelope;
        # an envelope below the intensity would clip acceptance at 1.
        ratio = diurnal_intensity(np.arange(0.0, WEEK, 60.0)) / DIURNAL_PEAK
        assert (ratio <= 1.0).all()
        assert ratio.max() == pytest.approx(1.0, abs=1e-12)


class TestDiurnalWorkload:
    @pytest.fixture(scope="class")
    def jobs(self):
        params = WorkloadParams(months=2, jobs_per_day=200, diurnal=True)
        return WorkloadModel(params).generate(np.random.default_rng(6))

    def test_total_volume_preserved(self, jobs):
        flat = WorkloadModel(
            WorkloadParams(months=2, jobs_per_day=200, diurnal=False)
        ).generate(np.random.default_rng(6))
        assert len(jobs) == pytest.approx(len(flat), rel=0.1)

    def test_afternoon_peak_in_submissions(self, jobs):
        hours = np.array([(j.submit % DAY) / 3600.0 for j in jobs])
        afternoon = ((hours >= 13) & (hours < 17)).sum()
        night = ((hours >= 1) & (hours < 5)).sum()
        assert afternoon > 1.8 * night

    def test_weekday_beats_weekend(self, jobs):
        weekday = np.array([(j.submit % WEEK) / DAY for j in jobs])
        weekday_rate = (weekday < 5).sum() / 5.0
        weekend_rate = (weekday >= 5).sum() / 2.0
        assert weekday_rate > 1.5 * weekend_rate


class TestArrivalProfile:
    def make_table(self, submit_hours):
        records = []
        for i, h in enumerate(submit_hours):
            submit = h * 3600.0
            records.append(
                JobRecord(i, "u", "f", "cpu", submit, submit, submit + 60.0, 1, 0,
                          JobState.COMPLETED)
            )
        return JobTable.from_records(records)

    def test_hourly_binning(self):
        table = self.make_table([0.5, 0.9, 14.2, 14.8, 14.9])
        profile = arrival_profile(table)
        assert profile["hourly"][0] == 2
        assert profile["hourly"][14] == 3
        assert profile["hourly"].sum() == 5

    def test_weekly_binning(self):
        # 30h = Tuesday (day 1), 150h = Sunday (day 6).
        table = self.make_table([30.0, 150.0])
        profile = arrival_profile(table)
        assert profile["weekly"][1] == 1
        assert profile["weekly"][6] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arrival_profile(JobTable.empty())

    def test_diurnal_profile_visible_in_schedule(self):
        params = WorkloadParams(months=1, jobs_per_day=150, diurnal=True)
        jobs = WorkloadModel(params).generate(np.random.default_rng(4))
        from repro.cluster import simulate_schedule

        table = simulate_schedule(jobs, rng=np.random.default_rng(0)).table
        profile = arrival_profile(table)
        assert profile["hourly"][14] > profile["hourly"][3]
