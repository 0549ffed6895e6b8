import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkcomb.bloch

from starkcomb import (
    DegenerateSystemError,
    DomainError,
    LadderSystem,
    RegimeError,
    at_splitting,
    heterodyne_gain,
    probe_absorption,
    steady_state,
)

TWO_PI = 2 * math.pi
GAMMA_E = TWO_PI * 5.2e6

PAPER_LIKE = LadderSystem(
    probe_rabi=TWO_PI * 6.9e6, coupling_rabi=TWO_PI * 16.1e6, mw_rabi=0.0
)


def dressed_gap(mw_rabi):
    """Eigenvalue gap of the microwave-coupled Rydberg pair (the splitting oracle)."""
    h = np.array([[0.0, mw_rabi / 2.0], [mw_rabi / 2.0, 0.0]])
    eigenvalues = np.linalg.eigvalsh(h)
    return eigenvalues[1] - eigenvalues[0]


def at_test_system(mw_rabi):
    # Field calibration by the splitting runs in the coherence-preserving
    # regime: weak probe, Rydberg decoherence well below the intermediate
    # linewidth. Larger dephasing fills the transparency windows and drags
    # the measured minima inward.
    return LadderSystem(
        probe_rabi=0.02 * GAMMA_E,
        coupling_rabi=TWO_PI * 16.1e6,
        mw_rabi=mw_rabi,
        decay_r1=TWO_PI * 1e3,
        decay_r2=TWO_PI * 1e3,
        dephasing=TWO_PI * 10e3,
    )


def quasi_static_beat_amplitude(system, omega_sig):
    """Two-field oracle: half the absorption swing over one beat cycle."""
    lo = system.mw_rabi
    upper = probe_absorption(replace(system, mw_rabi=lo + omega_sig))
    lower = probe_absorption(replace(system, mw_rabi=lo - omega_sig))
    return (upper - lower) / 2.0


class TestSteadyState:
    def test_no_driving_gives_ground_projector(self):
        s = LadderSystem(probe_rabi=0.0, coupling_rabi=0.0, mw_rabi=0.0)
        rho = steady_state(s).rho
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_residual_norm_small(self):
        sol = steady_state(PAPER_LIKE)
        assert sol.residual_norm <= 1e-9

    def test_weak_probe_two_level_coherence(self):
        # Analytic two-level oracle: Im(rho_ge) = probe_rabi / decay_e
        # to first order in the probe.
        s = LadderSystem(probe_rabi=1e-4 * GAMMA_E, coupling_rabi=0.0, mw_rabi=0.0)
        rho = steady_state(s).rho
        assert math.isclose(
            rho[0, 1].imag, s.probe_rabi / s.decay_e, rel_tol=1e-6
        )

    def test_physicality_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = _random_system(rng)
            rho = steady_state(s).rho
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-8

    def test_disconnected_level_is_degenerate(self):
        s = LadderSystem(
            probe_rabi=0.1 * GAMMA_E,
            coupling_rabi=0.0,
            mw_rabi=0.0,
            decay_r1=0.0,
            decay_r2=0.0,
            dephasing=0.0,
        )
        with pytest.raises(DegenerateSystemError):
            steady_state(s)

    def test_invalid_rates_rejected(self):
        with pytest.raises(DomainError):
            LadderSystem(probe_rabi=-1.0, coupling_rabi=0.0, mw_rabi=0.0)
        with pytest.raises(DomainError):
            LadderSystem(probe_rabi=0.0, coupling_rabi=0.0, mw_rabi=0.0, decay_e=0.0)
        for name in ("dephasing", "decay_e", "probe_detuning"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match=name):
                    replace(PAPER_LIKE, **{name: value})

    def test_invalid_swept_values_rejected(self):
        for sweep in (
            {"probe_detuning": [0.0, math.nan]},
            {"probe_detuning": [math.inf]},
            {"mw_rabi": [GAMMA_E, -math.inf]},
            {"mw_rabi": [-1.0]},
        ):
            with pytest.raises(DomainError):
                steady_state(PAPER_LIKE, **sweep)

    @pytest.mark.parametrize("solve", [steady_state, probe_absorption])
    def test_sweeps_that_do_not_broadcast_rejected(self, solve):
        # A named error that gives both shapes, raised before any system is solved.
        message = "swept probe_detuning of shape (3,) and mw_rabi of shape (2,) do not broadcast"
        with mock.patch("numpy.linalg.inv") as inverse:
            with pytest.raises(DomainError, match=re.escape(message)):
                solve(PAPER_LIKE, probe_detuning=np.zeros(3), mw_rabi=np.full(2, GAMMA_E))
        inverse.assert_not_called()
        # Shapes that broadcast still sweep their product.
        grid = solve(PAPER_LIKE, probe_detuning=np.zeros((3, 1)), mw_rabi=np.full(2, GAMMA_E))
        assert np.shape(getattr(grid, "residual_norm", grid)) == (3, 2)


def _random_system(rng):
    return LadderSystem(
        probe_rabi=GAMMA_E * 10 ** rng.uniform(-2, 1),
        coupling_rabi=GAMMA_E * 10 ** rng.uniform(-2, 1),
        mw_rabi=GAMMA_E * 10 ** rng.uniform(-2, 1),
        probe_detuning=GAMMA_E * rng.uniform(-10, 10),
        coupling_detuning=GAMMA_E * rng.uniform(-10, 10),
        mw_detuning=GAMMA_E * rng.uniform(-10, 10),
        decay_e=GAMMA_E * 10 ** rng.uniform(-0.5, 0.5),
        decay_r1=GAMMA_E * 10 ** rng.uniform(-2, 0),
        decay_r2=GAMMA_E * 10 ** rng.uniform(-2, 0),
        dephasing=GAMMA_E * 10 ** rng.uniform(-2, 0),
    )


class TestProbeAbsorption:
    def test_two_level_resonant_normalization(self):
        s = LadderSystem(probe_rabi=1e-4 * GAMMA_E, coupling_rabi=0.0, mw_rabi=0.0)
        assert math.isclose(probe_absorption(s), 1.0, rel_tol=1e-6)

    def test_weak_probe_bounded(self):
        for ratio in (1e-4, 1e-3, 1e-2):
            s = replace(PAPER_LIKE, probe_rabi=ratio * GAMMA_E)
            a = probe_absorption(s)
            assert 0.0 <= a <= 1.0 + 1e-6

    def test_ideal_transparency(self):
        # Perfect EIT needs an undamped ground-Rydberg coherence; decay_r2
        # stays nonzero only to keep the unused top level connected.
        s = LadderSystem(
            probe_rabi=1e-3 * GAMMA_E,
            coupling_rabi=10 * GAMMA_E,
            mw_rabi=0.0,
            decay_r1=0.0,
            decay_r2=TWO_PI * 10e3,
            dephasing=0.0,
        )
        assert probe_absorption(s) < 1e-3

    def test_transparency_peak_at_zero_detuning(self):
        # Symmetric grid search: transmission is maximal (absorption minimal)
        # exactly at zero probe detuning.
        detunings = np.linspace(-TWO_PI * 30e6, TWO_PI * 30e6, 121)
        absorption = [
            probe_absorption(replace(PAPER_LIKE, probe_detuning=d)) for d in detunings
        ]
        assert int(np.argmin(absorption)) == len(detunings) // 2

    def test_detuning_symmetry(self):
        for detuning in (TWO_PI * 1e6, TWO_PI * 7.3e6, TWO_PI * 21e6):
            left = probe_absorption(replace(PAPER_LIKE, probe_detuning=-detuning))
            right = probe_absorption(replace(PAPER_LIKE, probe_detuning=detuning))
            assert abs(left - right) < 1e-8

    def test_strong_mw_absorption_maximum_between_windows(self):
        s = at_test_system(10 * GAMMA_E)
        half = s.mw_rabi / 2.0
        center = probe_absorption(s)
        step = TWO_PI * 0.5e6
        assert center > probe_absorption(replace(s, probe_detuning=step))
        assert center > probe_absorption(replace(s, probe_detuning=-step))
        for sign in (+1, -1):
            window = probe_absorption(replace(s, probe_detuning=sign * half))
            assert window < 0.1 * center

    def test_requires_probe(self):
        with pytest.raises(DomainError):
            probe_absorption(replace(PAPER_LIKE, probe_rabi=0.0))


def _splitting_by_loop(detunings, absorption):
    # The per-detuning minimum search that at_splitting replaced; None when
    # fewer than two windows are found.
    minima = []
    for i in range(1, detunings.size - 1):
        if absorption[i] < absorption[i - 1] and absorption[i] < absorption[i + 1]:
            denom = absorption[i - 1] - 2.0 * absorption[i] + absorption[i + 1]
            step = detunings[i + 1] - detunings[i]
            shift = 0.0
            if denom != 0.0:
                shift = 0.5 * step * (absorption[i - 1] - absorption[i + 1]) / denom
            minima.append((absorption[i], detunings[i] + shift))
    if len(minima) < 2:
        return None
    minima.sort(key=lambda m: m[0])  # stable: equal depths keep sweep order
    (_, d1), (_, d2) = minima[0], minima[1]
    return abs(d2 - d1) / TWO_PI


class TestAtSplitting:
    # Repeated levels give equal-depth windows and flat steps.
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            min_size=5,
            max_size=40,
        )
    )
    def test_equals_per_detuning_loop(self, values):
        absorption = np.array(values)
        detunings = np.linspace(-1e8, 1e8, absorption.size)
        expected = _splitting_by_loop(detunings, absorption)
        system = at_test_system(10 * GAMMA_E)
        drawn = lambda system, probe_detuning: absorption
        with mock.patch.object(starkcomb.bloch, "probe_absorption", drawn):
            if expected is None:
                with pytest.raises(RegimeError, match="transparency window"):
                    at_splitting(system, detunings)
            else:
                assert at_splitting(system, detunings) == expected

    def test_fifty_megahertz_splitting(self):
        mw = TWO_PI * 50e6
        s = at_test_system(mw)
        sweep = np.linspace(-0.75 * mw, 0.75 * mw, 1501)
        splitting = at_splitting(s, sweep)
        assert math.isclose(splitting, dressed_gap(mw) / TWO_PI, rel_tol=0.02)
        assert math.isclose(splitting, 50e6, rel_tol=0.02)

    def test_doubling_mw_doubles_splitting(self):
        results = []
        for mw in (TWO_PI * 40e6, TWO_PI * 80e6):
            s = at_test_system(mw)
            sweep = np.linspace(-0.75 * mw, 0.75 * mw, 1501)
            results.append(at_splitting(s, sweep))
        assert math.isclose(results[1] / results[0], 2.0, rel_tol=0.02)

    def test_zero_mw_is_regime_error(self):
        s = replace(at_test_system(10 * GAMMA_E), mw_rabi=0.0)
        with pytest.raises(RegimeError):
            at_splitting(s, np.linspace(-GAMMA_E, GAMMA_E, 101))

    def test_single_window_is_regime_error(self):
        # A sweep confined between the windows sees only the central maximum.
        s = at_test_system(10 * GAMMA_E)
        sweep = np.linspace(-0.1 * s.mw_rabi, 0.1 * s.mw_rabi, 51)
        with pytest.raises(RegimeError):
            at_splitting(s, sweep)


class TestHeterodyneGain:
    BASE = LadderSystem(
        probe_rabi=TWO_PI * 6.9e6,
        coupling_rabi=TWO_PI * 16.1e6,
        mw_rabi=TWO_PI * 5e6,
    )

    def test_step_convergence(self):
        lo = self.BASE.mw_rabi
        gains = []
        for h in (1e-4 * lo, 0.5e-4 * lo):
            up = probe_absorption(replace(self.BASE, mw_rabi=lo + h))
            down = probe_absorption(replace(self.BASE, mw_rabi=lo - h))
            gains.append((up - down) / (2 * h))
        assert math.isclose(gains[0], gains[1], rel_tol=0.01)
        assert math.isclose(heterodyne_gain(self.BASE), gains[0], rel_tol=0.01)

    def test_beat_amplitude_ratio(self):
        lo = self.BASE.mw_rabi
        sig = 1e-2 * lo
        big = quasi_static_beat_amplitude(self.BASE, sig)
        small = quasi_static_beat_amplitude(self.BASE, sig / 10.0)
        assert math.isclose(big / small, 10.0, rel_tol=0.01)

    def test_small_signal_slope(self):
        lo = self.BASE.mw_rabi
        sigs = np.logspace(-4, -2, 13) * lo
        amps = [abs(quasi_static_beat_amplitude(self.BASE, s)) for s in sigs]
        slope = np.polyfit(np.log10(sigs), np.log10(amps), 1)[0]
        assert abs(slope - 1.0) <= 0.01

    def test_gain_matches_quasi_static_oracle(self):
        gain = heterodyne_gain(self.BASE)
        sig = 1e-3 * self.BASE.mw_rabi
        assert math.isclose(
            quasi_static_beat_amplitude(self.BASE, sig), gain * sig, rel_tol=1e-3
        )

    def test_optimal_lo_gain_positive_and_finite(self):
        los = TWO_PI * np.linspace(0.5e6, 20e6, 24)
        gains = [heterodyne_gain(replace(self.BASE, mw_rabi=lo)) for lo in los]
        best = max(gains)
        assert best > 0.0
        assert math.isfinite(best)

    def test_requires_lo(self):
        with pytest.raises(DomainError):
            heterodyne_gain(replace(self.BASE, mw_rabi=0.0))

    def test_sweep_matches_per_lo_calls(self):
        los = TWO_PI * np.linspace(0.5e6, 20e6, 161)
        gains = heterodyne_gain(self.BASE, mw_rabi=los)
        assert gains.shape == los.shape
        expected = [heterodyne_gain(replace(self.BASE, mw_rabi=lo)) for lo in los]
        np.testing.assert_allclose(gains, expected, rtol=1e-12, atol=0)

    def test_small_lo_has_a_gain(self):
        # The gain is defined at any LO above 0, however small.
        lo = TWO_PI * 100.0
        gain = heterodyne_gain(replace(self.BASE, mw_rabi=lo))
        sig = 1e-3 * lo
        assert math.isclose(
            quasi_static_beat_amplitude(replace(self.BASE, mw_rabi=lo), sig),
            gain * sig,
            rel_tol=1e-3,
        )

    @pytest.mark.parametrize("los", [[GAMMA_E, 0.0], [-GAMMA_E], [math.nan]])
    def test_requires_lo_in_sweep(self, los):
        with pytest.raises(DomainError):
            heterodyne_gain(self.BASE, mw_rabi=los)

    def test_requires_probe(self):
        with pytest.raises(DomainError, match="probe_rabi"):
            heterodyne_gain(replace(self.BASE, probe_rabi=0.0))
