"""Tests for temperature transformation, calibration, and the NbtiModel.

These encode the paper's headline model behaviours: the Fig. 8 anchors,
the Table 1 sign structure, and the Fig. 3/4 monotonicities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BOLTZMANN_EV, TEN_YEARS
from repro.core import (
    BEST_CASE_DEVICE,
    DEFAULT_CALIBRATION,
    DEFAULT_MODEL,
    WORST_CASE_DEVICE,
    DeviceStress,
    ModeTimes,
    NbtiModel,
    OperatingProfile,
    calibrate_from_anchors,
    diffusivity_ratio,
    equivalent_duty,
    equivalent_times,
)


class TestDiffusivityRatio:
    def test_identity(self):
        assert diffusivity_ratio(400.0, 400.0, 0.49) == 1.0

    def test_cold_below_one(self):
        assert diffusivity_ratio(330.0, 400.0, 0.49) < 1.0

    def test_arrhenius_value(self):
        expected = math.exp(-(0.49 / BOLTZMANN_EV) * (1 / 330.0 - 1 / 400.0))
        assert diffusivity_ratio(330.0, 400.0, 0.49) == pytest.approx(expected)

    def test_zero_activation_is_flat(self):
        assert diffusivity_ratio(330.0, 400.0, 0.0) == 1.0

    def test_guards(self):
        with pytest.raises(ValueError):
            diffusivity_ratio(-1.0, 400.0, 0.49)
        with pytest.raises(ValueError):
            diffusivity_ratio(330.0, 400.0, -0.1)


class TestEquivalentTimes:
    def test_eq17_standby_stress_shrinks(self):
        times = ModeTimes(stress_active=0.0, recovery_active=0.5,
                          stress_standby=0.5, recovery_standby=0.0)
        t_s, t_r = equivalent_times(times, 400.0, 330.0, 0.49)
        ratio = diffusivity_ratio(330.0, 400.0, 0.49)
        assert t_s == pytest.approx(0.5 * ratio)
        assert t_r == pytest.approx(0.5)

    def test_recovery_unscaled_by_default(self):
        times = ModeTimes(stress_active=0.2, recovery_active=0.0,
                          stress_standby=0.0, recovery_standby=0.8)
        t_s, t_r = equivalent_times(times, 400.0, 330.0, 0.49)
        assert t_r == pytest.approx(0.8)

    def test_recovery_scaled_in_ablation_mode(self):
        times = ModeTimes(stress_active=0.2, recovery_active=0.0,
                          stress_standby=0.0, recovery_standby=0.8)
        _, t_r = equivalent_times(times, 400.0, 330.0, 0.49, scale_recovery=True)
        assert t_r == pytest.approx(0.8 * diffusivity_ratio(330.0, 400.0, 0.49))

    def test_isothermal_identity(self):
        times = ModeTimes(stress_active=0.25, recovery_active=0.25,
                          stress_standby=0.25, recovery_standby=0.25)
        t_s, t_r = equivalent_times(times, 400.0, 400.0, 0.49)
        assert t_s == pytest.approx(0.5)
        assert t_r == pytest.approx(0.5)

    def test_duty_eqs_18_19(self):
        times = ModeTimes(stress_active=0.3, recovery_active=0.1,
                          stress_standby=0.0, recovery_standby=0.6)
        c_eq, tau_eq = equivalent_duty(times, 400.0, 330.0, 0.49)
        assert tau_eq == pytest.approx(1.0)
        assert c_eq == pytest.approx(0.3)

    def test_negative_mode_times_rejected(self):
        with pytest.raises(ValueError):
            ModeTimes(-0.1, 0.5, 0.3, 0.3)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            ModeTimes(0.0, 0.0, 0.0, 0.0)


class TestOperatingProfile:
    def test_from_ras(self):
        assert OperatingProfile.from_ras("1:9").active_fraction == pytest.approx(0.1)
        assert OperatingProfile.from_ras("9/1").active_fraction == pytest.approx(0.9)
        assert OperatingProfile.from_ras("1:1").active_fraction == pytest.approx(0.5)

    def test_ras_label_roundtrip(self):
        for ras in ("1:9", "1:5", "1:3", "1:1", "3:1", "5:1", "9:1",
                    "1:200", "1:300"):
            assert OperatingProfile.from_ras(ras).ras_label() == ras
        assert OperatingProfile.from_ras("2:18").ras_label() == "1:9"
        # No small integer ratio gives this fraction back exactly: the
        # label holds the two fractions, exact.
        profile = OperatingProfile.from_ras("1:3.3333")
        active, standby = profile.ras_label().split(":")
        assert float(active) == profile.active_fraction
        assert float(standby) == profile.standby_fraction

    def test_header_prints_every_value_exactly(self):
        profile = OperatingProfile.from_ras("1:9", t_active=400.0,
                                            t_standby=330.0)
        assert profile.header() == "RAS 1:9, 400 K / 330 K"
        assert profile.header(10.0) == "RAS 1:9, 400 K / 330 K, 10 years"
        profile = OperatingProfile.from_ras("1:300", t_active=400.4,
                                            t_standby=330.0)
        assert profile.header(2.5) == \
            "RAS 1:300, 400.4 K / 330 K, 2.5 years"

    def test_bad_ras(self):
        with pytest.raises(ValueError):
            OperatingProfile.from_ras("fast:slow")
        with pytest.raises(ValueError):
            OperatingProfile.from_ras("0:0")

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingProfile(active_fraction=1.5)
        with pytest.raises(ValueError):
            OperatingProfile(active_fraction=0.5, t_active=-10)
        with pytest.raises(ValueError):
            OperatingProfile(active_fraction=0.5, period=0.0)

    @pytest.mark.parametrize("temps", [
        {"t_active": float("nan")}, {"t_standby": float("nan")},
        {"t_active": float("inf")}, {"t_standby": float("-inf")},
    ], ids=["nan-active", "nan-standby", "inf-active", "minus-inf-standby"])
    def test_non_finite_temperatures_rejected(self, temps):
        with pytest.raises(ValueError, match="finite"):
            OperatingProfile(active_fraction=0.5, **temps)

    def test_device_stress_validation(self):
        with pytest.raises(ValueError):
            DeviceStress(active_stress_duty=1.2, standby_stressed=True)


class TestCalibrationAnchors:
    """The model must hit the paper's Fig. 8 endpoints exactly."""

    def test_high_anchor(self):
        p = OperatingProfile.from_ras("9:1")
        dv = DEFAULT_MODEL.sleep_transistor_shift(p, TEN_YEARS, vth0=0.20)
        assert dv == pytest.approx(30.3e-3, rel=1e-6)

    def test_low_anchor(self):
        p = OperatingProfile.from_ras("1:9")
        dv = DEFAULT_MODEL.sleep_transistor_shift(p, TEN_YEARS, vth0=0.40)
        assert dv == pytest.approx(6.7e-3, rel=1e-6)

    def test_dc_magnitude_at_nominal_vth(self):
        # ~30 mV over 10 years of DC stress at 400 K for the 220 mV
        # library device: the right magnitude band for 90 nm NBTI.
        dv = DEFAULT_MODEL.delta_vth_dc(TEN_YEARS, 400.0, vth0=0.22)
        assert 20e-3 < dv < 45e-3

    def test_anchor_solver_guards(self):
        with pytest.raises(ValueError, match="distinct"):
            calibrate_from_anchors(anchor_high=(0.2, 0.9, 0.03),
                                   anchor_low=(0.2, 0.1, 0.007))

    def test_field_factor_monotone_in_vth(self):
        cal = DEFAULT_CALIBRATION
        factors = [cal.field_factor(v) for v in (0.15, 0.2, 0.3, 0.4)]
        assert factors == sorted(factors, reverse=True)

    def test_field_factor_range_check(self):
        with pytest.raises(ValueError):
            DEFAULT_CALIBRATION.field_factor(1.2)

    def test_temperature_factor_below_one_when_cold(self):
        assert DEFAULT_CALIBRATION.temperature_factor(330.0) < 1.0
        assert DEFAULT_CALIBRATION.temperature_factor(400.0) == pytest.approx(1.0)


class TestModelBehaviour:
    MODEL = DEFAULT_MODEL

    def test_fig1_ac_below_dc(self):
        p = OperatingProfile(active_fraction=1.0, t_active=400.0)
        device = DeviceStress(active_stress_duty=0.5, standby_stressed=True)
        ac = self.MODEL.delta_vth(p, device, TEN_YEARS, 0.22)
        dc = self.MODEL.delta_vth_dc(TEN_YEARS, 400.0, 0.22)
        assert 0 < ac < dc

    def test_fig3_worst_case_grows_with_standby_temp(self):
        cold = OperatingProfile.from_ras("1:5", t_standby=330.0)
        hot = OperatingProfile.from_ras("1:5", t_standby=400.0)
        assert (self.MODEL.worst_case_shift(hot, TEN_YEARS, 0.22)
                > self.MODEL.worst_case_shift(cold, TEN_YEARS, 0.22))

    def test_fig4_monotone_in_t_standby(self):
        shifts = []
        for tst in (330.0, 350.0, 370.0, 400.0):
            p = OperatingProfile.from_ras("1:5", t_standby=tst)
            shifts.append(self.MODEL.worst_case_shift(p, TEN_YEARS, 0.22))
        assert shifts == sorted(shifts)

    def test_table1_sign_structure(self):
        """dVth vs standby fraction: rises at T_st=400, falls at 330,
        nearly flat around 370 — the paper's central observation."""
        def grid(tst):
            out = []
            for ras in ("9:1", "1:1", "1:9"):
                p = OperatingProfile.from_ras(ras, t_standby=tst)
                out.append(self.MODEL.worst_case_shift(p, TEN_YEARS, 0.22))
            return out
        hot = grid(400.0)
        assert hot[0] < hot[1] < hot[2]
        cold = grid(330.0)
        assert cold[0] > cold[1] > cold[2]
        mid = grid(370.0)
        spread = (max(mid) - min(mid)) / max(mid)
        assert spread < 0.08

    def test_table1_gap_scale_at_1_9(self):
        """The 330 K vs 400 K gap at RAS = 1:9 is ~10 mV-scale."""
        hot = OperatingProfile.from_ras("1:9", t_standby=400.0)
        cold = OperatingProfile.from_ras("1:9", t_standby=330.0)
        gap = (self.MODEL.worst_case_shift(hot, TEN_YEARS, 0.22)
               - self.MODEL.worst_case_shift(cold, TEN_YEARS, 0.22))
        assert 5e-3 < gap < 20e-3

    def test_best_case_independent_of_standby_temperature(self):
        """Recovery is temperature-insensitive, so the best case (parked
        at 1) must not move with T_standby."""
        shifts = []
        for tst in (330.0, 370.0, 400.0):
            p = OperatingProfile.from_ras("1:9", t_standby=tst)
            shifts.append(self.MODEL.best_case_shift(p, TEN_YEARS, 0.22))
        assert max(shifts) - min(shifts) < 1e-12

    def test_best_below_worst(self):
        p = OperatingProfile.from_ras("1:9", t_standby=330.0)
        assert (self.MODEL.best_case_shift(p, TEN_YEARS, 0.22)
                < self.MODEL.worst_case_shift(p, TEN_YEARS, 0.22))

    def test_ablation_scaled_recovery_changes_best_case(self):
        ablation = NbtiModel(scale_recovery=True)
        p_cold = OperatingProfile.from_ras("1:9", t_standby=330.0)
        p_hot = OperatingProfile.from_ras("1:9", t_standby=400.0)
        cold = ablation.best_case_shift(p_cold, TEN_YEARS, 0.22)
        hot = ablation.best_case_shift(p_hot, TEN_YEARS, 0.22)
        assert cold != pytest.approx(hot)

    def test_no_stress_no_shift(self):
        p = OperatingProfile.from_ras("1:1")
        device = DeviceStress(active_stress_duty=0.0, standby_stressed=False)
        assert self.MODEL.delta_vth(p, device, TEN_YEARS, 0.22) == 0.0

    def test_series_matches_scalar(self):
        p = OperatingProfile.from_ras("1:5")
        times = [1e6, 1e7, 1e8]
        series = self.MODEL.delta_vth_series(p, WORST_CASE_DEVICE, times, 0.22)
        for t, dv in zip(times, series):
            assert dv == pytest.approx(self.MODEL.delta_vth(p, WORST_CASE_DEVICE, t, 0.22))

    def test_recursive_approaches_closed_form(self):
        p = OperatingProfile.from_ras("1:1", period=3600.0)
        seq = self.MODEL.delta_vth_recursive(p, WORST_CASE_DEVICE, 5000, 0.22)
        closed = self.MODEL.delta_vth(p, WORST_CASE_DEVICE, 5000 * 3600.0, 0.22)
        assert seq[-1] == pytest.approx(closed, rel=0.01)

    def test_negative_time_rejected(self):
        p = OperatingProfile.from_ras("1:1")
        with pytest.raises(ValueError):
            self.MODEL.delta_vth(p, WORST_CASE_DEVICE, -1.0)
        with pytest.raises(ValueError):
            self.MODEL.delta_vth_dc(-1.0, 400.0)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=330.0, max_value=400.0))
    @settings(max_examples=40, deadline=None)
    def test_property_shift_positive_and_bounded_by_dc(self, frac, tst):
        p = OperatingProfile(active_fraction=frac, t_standby=tst)
        dv = self.MODEL.worst_case_shift(p, TEN_YEARS, 0.22)
        dc = self.MODEL.delta_vth_dc(TEN_YEARS, 400.0, 0.22)
        assert 0.0 < dv <= dc * (1 + 1e-9)

    @given(st.floats(min_value=1e3, max_value=3.15e8))
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_in_time(self, t):
        p = OperatingProfile.from_ras("1:5")
        assert (self.MODEL.delta_vth(p, WORST_CASE_DEVICE, t * 1.1, 0.22)
                >= self.MODEL.delta_vth(p, WORST_CASE_DEVICE, t, 0.22))
