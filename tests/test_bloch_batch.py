"""The batched steady-state solver against a per-system least-squares reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkcomb import (
    DegenerateSystemError,
    LadderSystem,
    SolverError,
    default_config,
    heterodyne_gain,
    probe_absorption,
    run_scenario,
    steady_state,
)
from starkcomb import bloch

TWO_PI = 2 * math.pi
GAMMA_E = TWO_PI * 5.2e6
# Above this 1-norm condition number of the trace-replaced system the steady
# state counts as not unique.
CONDITION_LIMIT = 1.0 / (16.0 * np.finfo(float).eps)


# ---------------------------------------------------------------- reference
# One 16x16 Liouvillian per system from Kronecker products, the unit-trace
# row appended, solved by least squares.


def _lowering(i, j):
    op = np.zeros((4, 4), dtype=complex)
    op[i, j] = 1.0
    return op


def _scale(s):
    return max(
        s.probe_rabi, s.coupling_rabi, s.mw_rabi,
        abs(s.probe_detuning), abs(s.coupling_detuning), abs(s.mw_detuning),
        s.decay_e, s.decay_r1, s.decay_r2, s.dephasing,
    )


def reference_liouvillian(s):
    """Column-major vectorized Liouvillian, rates divided by their maximum."""
    scale = _scale(s)
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = -s.probe_detuning
    h[2, 2] = -(s.probe_detuning + s.coupling_detuning)
    h[3, 3] = -(s.probe_detuning + s.coupling_detuning + s.mw_detuning)
    h[0, 1] = h[1, 0] = s.probe_rabi / 2.0
    h[1, 2] = h[2, 1] = s.coupling_rabi / 2.0
    h[2, 3] = h[3, 2] = s.mw_rabi / 2.0
    h /= scale

    collapse = []
    for rate, (i, j) in (
        (s.decay_e, (0, 1)),
        (s.decay_r1, (1, 2)),
        (s.decay_r2, (2, 3)),
    ):
        if rate > 0:
            collapse.append(math.sqrt(rate / scale) * _lowering(i, j))
    if s.dephasing > 0:
        for level in (2, 3):
            collapse.append(math.sqrt(2.0 * s.dephasing / scale) * _lowering(level, level))

    eye = np.eye(4, dtype=complex)
    liouv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse:
        cdc = c.conj().T @ c
        liouv += np.kron(c.conj(), c)
        liouv -= 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return liouv


def reference_rho(s):
    trace_row = np.zeros((1, 16), dtype=complex)
    trace_row[0, [0, 5, 10, 15]] = 1.0
    rhs = np.zeros(17, dtype=complex)
    rhs[16] = 1.0
    stacked = np.vstack([reference_liouvillian(s), trace_row])
    solution, _, rank, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
    assert rank == 16
    return solution.reshape((4, 4), order="F")


def reference_condition(s):
    system = reference_liouvillian(s)
    system[0] = 0.0
    system[0, [0, 5, 10, 15]] = 1.0
    return np.linalg.cond(system, 1)


# ---------------------------------------------------------------- strategies
# The parameter ranges of acceptance criterion 6, in units of decay_e.


def _log_rate(lo, hi):
    return st.floats(lo, hi).map(lambda e: GAMMA_E * 10.0**e)


_detuning = st.floats(-10.0, 10.0).map(lambda x: GAMMA_E * x)

systems = st.builds(
    LadderSystem,
    probe_rabi=_log_rate(-2, 1),
    coupling_rabi=_log_rate(-2, 1),
    mw_rabi=_log_rate(-2, 1),
    probe_detuning=_detuning,
    coupling_detuning=_detuning,
    mw_detuning=_detuning,
    decay_e=_log_rate(-0.5, 0.5),
    decay_r1=_log_rate(-2, 0),
    decay_r2=_log_rate(-2, 0),
    dephasing=_log_rate(-2, 0),
)
# Lengths up to 150 cross the solver's block boundaries.
sweeps = st.one_of(
    st.tuples(st.just("probe_detuning"), st.lists(_detuning, min_size=1, max_size=150)),
    st.tuples(st.just("mw_rabi"), st.lists(_log_rate(-2, 1), min_size=1, max_size=150)),
)

property_settings = settings(max_examples=40, deadline=None, derandomize=True)


@property_settings
@given(system=systems, sweep=sweeps)
def test_batched_rho_matches_reference(system, sweep):
    name, values = sweep
    solution = steady_state(system, **{name: values})
    assert solution.rho.shape == (len(values), 4, 4)
    for value, rho in zip(values, solution.rho):
        np.testing.assert_allclose(
            rho, reference_rho(replace(system, **{name: value})), rtol=0, atol=1e-12
        )


@property_settings
@given(system=systems, sweep=sweeps)
def test_every_residual_within_limit(system, sweep):
    name, values = sweep
    solution = steady_state(system, **{name: values})
    assert solution.residual_norm.shape == (len(values),)
    assert np.all(solution.residual_norm <= 1e-9)
    for value, rho in zip(values, solution.rho):
        liouv = reference_liouvillian(replace(system, **{name: value}))
        assert np.linalg.norm(liouv @ rho.reshape(16, order="F")) <= 1e-9


@property_settings
@given(system=systems, name=st.sampled_from(["probe_detuning", "mw_rabi"]))
def test_batch_of_one_equals_scalar_call(system, name):
    value = getattr(system, name)
    batch = steady_state(system, **{name: [value]})
    scalar = steady_state(system)
    assert np.array_equal(batch.rho[0], scalar.rho)
    assert batch.residual_norm[0] == scalar.residual_norm
    assert isinstance(scalar.residual_norm, float)


@property_settings
@given(system=systems)
def test_real_liouvillian_is_the_reference_in_real_coordinates(system):
    # T must be unitary for the residual 2-norm to keep its meaning.
    t = bloch._T
    np.testing.assert_allclose(t @ t.conj().T, np.eye(16), rtol=0, atol=1e-15)
    scaled = np.array([getattr(system, name) for name in bloch._FIELDS]) / _scale(system)
    transformed = t @ reference_liouvillian(system) @ t.conj().T
    np.testing.assert_allclose(
        np.tensordot(scaled, bloch._BASIS, axes=1), transformed, rtol=0, atol=1e-14
    )


@property_settings
@given(system=systems)
def test_gain_matches_richardson_difference(system):
    # The exact derivative against central differences at steps h and h/2,
    # Richardson-extrapolated to O(h^4). Each absorption carries a rounding
    # error of about eps * decay_e / probe_rabi (|rho_ij| <= 1) that the
    # quotients divide by h: where the microwave barely moves the absorption,
    # that floor and not the relative tolerance bounds the comparison.
    lo = system.mw_rabi
    h = 1e-3 * lo
    wide = probe_absorption(system, mw_rabi=[lo + h, lo - h])
    narrow = probe_absorption(system, mw_rabi=[lo + h / 2, lo - h / 2])
    difference = (4 * (narrow[0] - narrow[1]) / h - (wide[0] - wide[1]) / (2 * h)) / 3
    gain = heterodyne_gain(system)
    rounding = 10 * np.finfo(float).eps * system.decay_e / system.probe_rabi / h
    assert abs(gain - difference) <= 1e-6 * abs(gain) + rounding


@property_settings
@given(system=systems)
def test_gain_batch_of_one_equals_scalar_call(system):
    batch = heterodyne_gain(system, mw_rabi=[system.mw_rabi])
    scalar = heterodyne_gain(system)
    assert batch.shape == (1,)
    assert batch[0] == scalar
    assert isinstance(scalar, float)


@property_settings
@given(
    system=systems,
    lo_values=st.lists(_log_rate(-2, 1), min_size=1, max_size=150),
    data=st.data(),
)
def test_degenerate_system_anywhere_in_batch_raises(system, lo_values, data):
    # Without microwave drive, decay or dephasing the top level is
    # disconnected, so mw_rabi = 0 has no unique steady state.
    system = replace(system, decay_r2=0.0, dephasing=0.0)
    position = data.draw(st.integers(0, len(lo_values)))
    values = lo_values[:position] + [0.0] + lo_values[position:]
    steady_state(system, mw_rabi=lo_values)
    with pytest.raises(DegenerateSystemError):
        steady_state(system, mw_rabi=values)


def _slowly_draining(rate):
    # Coupling and microwave off: the Rydberg populations drain to |e> only
    # through decay_r1 and decay_r2, and the condition number grows as 1/rate.
    return LadderSystem(
        probe_rabi=0.1 * GAMMA_E,
        coupling_rabi=0.0,
        mw_rabi=0.0,
        decay_r1=rate,
        decay_r2=rate,
        dephasing=0.0,
    )


def test_conditioning_limit_separates_near_degenerate_systems():
    # The condition number is about 9.2 * decay_e / rate; the limit falls
    # near rate = 3.3e-14 * decay_e. Take a factor 4 on either side.
    solvable = _slowly_draining(1.3e-13 * GAMMA_E)
    degenerate = _slowly_draining(8e-15 * GAMMA_E)
    assert reference_condition(solvable) < CONDITION_LIMIT < reference_condition(degenerate)

    solution = steady_state(solvable)
    assert solution.residual_norm <= 1e-9
    # All population ends in the driven |g>, |e> pair: the resonant
    # two-level steady state.
    omega, gamma = solvable.probe_rabi, solvable.decay_e
    denominator = gamma**2 / 4.0 + omega**2 / 2.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = omega**2 / 4.0 / denominator
    expected[0, 0] = 1.0 - expected[1, 1]
    expected[0, 1] = 1j * omega * gamma / 4.0 / denominator
    expected[1, 0] = expected[0, 1].conjugate()
    np.testing.assert_allclose(solution.rho, expected, rtol=0, atol=1e-9)
    with pytest.raises(DegenerateSystemError):
        steady_state(degenerate)


@pytest.mark.parametrize("error", [1e-6, math.nan])
def test_bad_solution_in_any_system_raises(monkeypatch, error):
    # Corrupt the solution of one system in the second block of 64. A finite
    # error passes the conditioning check and must fail the residual check;
    # a NaN must fail one of the two.
    inverse = np.linalg.inv
    calls = []

    def corrupted(a):
        result = inverse(a)
        if len(calls) == 1:
            result[6, 3, 0] += error
        calls.append(len(a))
        return result

    monkeypatch.setattr(np.linalg, "inv", corrupted)
    system = LadderSystem(
        probe_rabi=TWO_PI * 6.9e6, coupling_rabi=TWO_PI * 16.1e6, mw_rabi=TWO_PI * 5e6
    )
    with pytest.raises(SolverError) as excinfo:
        steady_state(system, probe_detuning=np.linspace(-GAMMA_E, GAMMA_E, 100))
    assert calls == [64, 36]
    if math.isfinite(error):
        assert "residual" in str(excinfo.value)


def test_eit_scenario_rows_match_reference_digits(tmp_path):
    # Byte-identity guard: the eit data rows are the per-system least-squares
    # solve printed with ten significant digits.
    config = default_config()
    params = config.scenarios["eit"]
    detunings = np.linspace(-params["probe_span"], params["probe_span"], params["points"])
    detunings = detunings * 2.0 * math.pi
    ladder = config.ladder
    expected = []
    for d in detunings:
        rho = reference_rho(replace(ladder, probe_detuning=float(d)))
        absorption = rho[0, 1].imag * ladder.decay_e / ladder.probe_rabi
        expected.append(
            f"{format(float(d / (2.0 * math.pi * 1e6)), '.10g')},"
            f"{format(float(absorption), '.10g')}"
        )

    path = run_scenario(config, "eit", tmp_path)[0]
    lines = path.read_text().splitlines()
    header = lines.index("probe_detuning_MHz,absorption")
    assert lines[header + 1:] == expected
