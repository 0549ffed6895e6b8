"""Steady-state optical Bloch equations for the four-level receiver ladder.

Level structure (basis order used throughout):

    0  |g>   ground state
    1  |e>   intermediate state, probed on |g> -> |e>
    2  |r1>  first Rydberg state, coupled on |e> -> |r1>
    3  |r2>  second Rydberg state, driven by the microwave LO on |r1> -> |r2>

The rotating-frame Hamiltonian (hbar = 1, all rates in rad/s) is

    H = -Dp |e><e| - (Dp+Dc) |r1><r1| - (Dp+Dc+Dmw) |r2><r2|
        + (Op/2)(|g><e| + h.c.) + (Oc/2)(|e><r1| + h.c.)
        + (Omw/2)(|r1><r2| + h.c.)

with Lindblad decay |e> -> |g> at ``decay_e``, cascade decays
|r1> -> |e> at ``decay_r1`` and |r2> -> |r1> at ``decay_r2``, and pure
dephasing of each Rydberg level at ``dephasing`` (a proxy for laser
linewidth and transit broadening). A single zero-velocity class is modeled;
Doppler averaging is out of scope.

The Liouvillian is linear in the ten ``LadderSystem`` fields, so it is
summed from a basis of ten constant 16x16 superoperators built at import.
It preserves Hermiticity, so it is written on the 16 real coordinates of
rho: the four populations, then ``sqrt(2) Re rho_ij`` and
``sqrt(2) Im rho_ij`` for each i < j. These are ``T vec(rho)`` for one fixed
unitary 16x16 map ``T``. Each basis superoperator ``T B T^dagger`` then maps
real coordinates to real coordinates, so it is a real matrix, and 2-norms
(the residual) are the same in both coordinates.
:func:`steady_state` rescales each system by its largest rate, replaces the
ground-population row (redundant under trace preservation) by the unit-trace
row, and inverts the real square systems in batches of fixed size. The first
column of each inverse is the steady state; the inverse also gives the 1-norm
condition number, which flags non-unique steady states. Scalar calls and
sweeps share this one path. From each batch :func:`steady_state` reads rho
(``T^dagger x``), :func:`probe_absorption` only Im rho_ge, and
:func:`heterodyne_gain` alone forms the ``mw_rabi`` slope.

The beat note produced by mixing a weak signal with the LO is modeled
quasi-statically: its amplitude is the derivative of the probe absorption
with respect to the microwave Rabi frequency at the LO operating point
(:func:`heterodyne_gain`) times the signal Rabi frequency. The Liouvillian
is affine in that frequency, so the same inverse gives the derivative of the
steady state exactly, with one matrix-vector product per system.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import ArrayLike

from .errors import DegenerateSystemError, DomainError, RegimeError, SolverError, is_number, require

__all__ = [
    "LadderSystem",
    "DensityMatrixSolution",
    "steady_state",
    "probe_absorption",
    "at_splitting",
    "heterodyne_gain",
]

_RESIDUAL_LIMIT = 1e-9
# A 1-norm condition number above this leaves fewer than one significant
# digit in a 16x16 solve: the steady state is numerically not unique.
_CONDITION_LIMIT = 1.0 / (16.0 * np.finfo(float).eps)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LadderSystem:
    """Drive and relaxation parameters of the four-level ladder, in rad/s."""

    probe_rabi: float
    coupling_rabi: float
    mw_rabi: float
    probe_detuning: float = 0.0
    coupling_detuning: float = 0.0
    mw_detuning: float = 0.0
    decay_e: float = _TWO_PI * 5.2e6
    decay_r1: float = _TWO_PI * 10e3
    decay_r2: float = _TWO_PI * 10e3
    dephasing: float = _TWO_PI * 100e3

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        values = [getattr(self, name) for name in names]
        require([*map(is_number, values)], DomainError, "{} must be finite, got {}", names, values)
        rates = ("probe_rabi", "coupling_rabi", "mw_rabi", "decay_r1", "decay_r2", "dephasing")
        values = [getattr(self, name) for name in rates]
        require(np.greater_equal(values, 0), DomainError, "{} must be >= 0, got {}", rates, values)
        require(self.decay_e > 0, DomainError, "decay_e must be > 0, got {}", self.decay_e)


@dataclass(frozen=True)
class DensityMatrixSolution:
    """Steady-state density matrix and the norm of its Liouvillian residual.

    ``residual_norm`` is measured after rescaling all system rates by their
    maximum, so it is dimensionless and comparable across parameter regimes.
    For a sweep, ``rho`` has shape ``sweep_shape + (4, 4)`` and
    ``residual_norm`` is an array of shape ``sweep_shape``.
    """

    rho: np.ndarray
    residual_norm: float | np.ndarray


def _unit(i: int, j: int) -> np.ndarray:
    op = np.zeros((4, 4))
    op[i, j] = 1.0
    return op


def _hamiltonian_term(h: np.ndarray) -> np.ndarray:
    eye = np.eye(4)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator(c: np.ndarray) -> np.ndarray:
    eye = np.eye(4)
    cdc = c.T @ c
    return np.kron(c, c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))


def _liouvillian_basis() -> np.ndarray:
    """Liouvillian of each ``LadderSystem`` field set to 1 and the others to 0.

    Column-major vectorization: ``vec(A X B) = kron(B.T, A) vec(X)``. The
    collapse operators are real, so ``conj(c) = c``.
    """
    terms = {
        "probe_rabi": _hamiltonian_term((_unit(0, 1) + _unit(1, 0)) / 2.0),
        "coupling_rabi": _hamiltonian_term((_unit(1, 2) + _unit(2, 1)) / 2.0),
        "mw_rabi": _hamiltonian_term((_unit(2, 3) + _unit(3, 2)) / 2.0),
        "probe_detuning": _hamiltonian_term(-np.diag([0.0, 1.0, 1.0, 1.0])),
        "coupling_detuning": _hamiltonian_term(-np.diag([0.0, 0.0, 1.0, 1.0])),
        "mw_detuning": _hamiltonian_term(-np.diag([0.0, 0.0, 0.0, 1.0])),
        "decay_e": _dissipator(_unit(0, 1)),
        "decay_r1": _dissipator(_unit(1, 2)),
        "decay_r2": _dissipator(_unit(2, 3)),
        "dephasing": 2.0 * (_dissipator(_unit(2, 2)) + _dissipator(_unit(3, 3))),
    }
    return np.array([terms[name] for name in _FIELDS])


def _real_coordinates() -> np.ndarray:
    """Unitary ``T`` taking ``vec(rho)`` of a Hermitian rho to real coordinates.

    Rows: the populations rho_ii, then ``sqrt(2) Re rho_ij`` and
    ``sqrt(2) Im rho_ij`` for i < j, with ``vec`` column-major as above.
    """
    t = np.zeros((16, 16), dtype=complex)
    t[range(4), [0, 5, 10, 15]] = 1.0
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for k, (i, j) in enumerate(pairs):
        t[4 + 2 * k, [i + 4 * j, j + 4 * i]] = math.sqrt(0.5)
        t[5 + 2 * k, [i + 4 * j, j + 4 * i]] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    return t


_FIELDS = tuple(f.name for f in fields(LadderSystem))
_T = _real_coordinates()
# T B T^dagger maps real coordinates to real coordinates. Summed by einsum,
# not BLAS (whose fused multiply-adds leave ~1e-16), its imaginary part is
# exactly zero.
_BASIS = np.einsum(
    "rk,fks->frs", _T, np.einsum("fkc,sc->fks", _liouvillian_basis(), _T.conj())
).real
_MW_BASIS = _BASIS[_FIELDS.index("mw_rabi")]
# Row 4 of T^dagger: its product with real coordinates is rho_ge = rho[0, 1].
_RHO_GE = _T.conj()[:, 4]
# Row 0 (d rho_gg / dt) is minus the sum of rows 1, 2 and 3 because the
# Liouvillian preserves the trace, so the unit-trace row replaces it.
_TRACE_ROW = np.zeros(16)
_TRACE_ROW[:4] = 1.0
# Systems per LAPACK call; bounds the memory of a long sweep.
_BLOCK = 64


def _norm1(a: np.ndarray) -> np.ndarray:
    """Induced 1-norm (maximum absolute column sum) of each matrix in a stack."""
    return np.einsum("nij->nj", np.abs(a)).max(axis=-1)


def _solve(
    system: LadderSystem, probe_detuning: ArrayLike | None, mw_rabi: ArrayLike | None, read: Callable
) -> np.ndarray:
    """``read(x, inverse, residual, scale)`` of each block of systems, joined and
    shaped as the sweep: the real steady states, the inverses of the trace-replaced
    matrices (each system scaled by its largest rate), residuals and scales (a column)."""
    sweep = {
        name: np.asarray(values, dtype=float)
        for name, values in (("probe_detuning", probe_detuning), ("mw_rabi", mw_rabi))
        if values is not None
    }
    for name, values in sweep.items():
        require(np.isfinite(values), DomainError, f"swept {name} must be finite")
    require(sweep.get("mw_rabi", 0.0) >= 0, DomainError, "swept mw_rabi must be >= 0")
    try:
        columns = np.broadcast_arrays(*(sweep.get(name, getattr(system, name)) for name in _FIELDS))
    except ValueError:
        shapes = " and ".join(f"{name} of shape {values.shape}" for name, values in sweep.items())
        raise DomainError(f"swept {shapes} do not broadcast together") from None
    rates = np.stack(columns, axis=-1, dtype=float).reshape(-1, len(_FIELDS))
    parts = []
    # An empty sweep is one empty block, so that there is a part to join.
    for lo in range(0, len(rates) or 1, _BLOCK):
        block = rates[lo : lo + _BLOCK]
        scale = np.abs(block).max(axis=1, keepdims=True)
        liouv = np.tensordot(block / scale, _BASIS, axes=1)
        matrix = liouv.copy()
        matrix[:, 0, :] = _TRACE_ROW
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(
                "steady state is not unique (singular Liouvillian); the level "
                "structure is disconnected or undamped"
            ) from exc
        cond = _norm1(matrix) * _norm1(inverse)
        require(
            cond <= _CONDITION_LIMIT,
            DegenerateSystemError,
            f"steady state is not unique (condition number {{:.3e}} exceeds {_CONDITION_LIMIT:.3e}); "
            "the level structure is disconnected or undamped",
            cond,
        )
        solution = inverse[:, :, 0]
        residual = np.linalg.norm(np.einsum("nij,nj->ni", liouv, solution), axis=1)
        message = f"steady-state residual {{:.3e}} exceeds {_RESIDUAL_LIMIT:g}"
        require(residual <= _RESIDUAL_LIMIT, SolverError, message, residual)
        parts.append(read(solution, inverse, residual, scale))
    table = np.concatenate(parts)
    return table.reshape(columns[0].shape + table.shape[1:])


def steady_state(
    system: LadderSystem,
    *,
    probe_detuning: ArrayLike | None = None,
    mw_rabi: ArrayLike | None = None,
) -> DensityMatrixSolution:
    """Solve the Lindblad steady state of the ladder, or of a sweep of it.

    ``probe_detuning`` and ``mw_rabi`` (rad/s) optionally replace the
    corresponding field of ``system`` by an array; the arrays broadcast
    together and the solution carries their shape, followed by ``(4, 4)``
    for ``rho``. Without them the result is a single ``(4, 4)`` matrix.

    Each system is rescaled by its largest rate, its real Liouvillian is
    summed from a fixed basis of superoperators, the ground-population row
    is replaced by the unit-trace row, and the square systems are inverted in
    blocks. Raises :class:`DomainError` for a non-finite or negative swept
    value, :class:`DegenerateSystemError` when a steady state is not unique
    (singular or numerically singular system, e.g. an undriven, undamped
    level) and :class:`SolverError` when a residual exceeds ``1e-9``.
    """
    read = lambda x, inverse, residual, scale: np.column_stack([x, residual])
    table = _solve(system, probe_detuning, mw_rabi, read)
    residual = table[..., 16]
    return DensityMatrixSolution(
        rho=(table[..., :16] @ _T.conj()).reshape(table.shape[:-1] + (4, 4)).swapaxes(-1, -2),
        residual_norm=float(residual) if residual.ndim == 0 else residual,
    )


def _require_probe(system: LadderSystem) -> None:
    message = "probe_rabi must be > 0 to define probe absorption"
    require(system.probe_rabi > 0, DomainError, message)


def _absorption(system: LadderSystem, imag_ge: np.ndarray) -> float | np.ndarray:
    absorption = imag_ge * system.decay_e / system.probe_rabi
    return float(absorption) if absorption.ndim == 0 else absorption


def probe_absorption(
    system: LadderSystem,
    *,
    probe_detuning: ArrayLike | None = None,
    mw_rabi: ArrayLike | None = None,
) -> float | np.ndarray:
    """Probe absorption, normalized to the resonant two-level value.

    Returns ``Im(rho_ge) * decay_e / probe_rabi``, which is 1 for a weak
    resonant probe with no coupling or microwave field and 0 under ideal
    transparency. ``probe_detuning`` and ``mw_rabi`` sweep the system as in
    :func:`steady_state`; with a sweep the result is an array of its shape.
    """
    _require_probe(system)
    read = lambda x, inverse, residual, scale: (x @ _RHO_GE).imag
    return _absorption(system, _solve(system, probe_detuning, mw_rabi, read))


def at_splitting(system: LadderSystem, probe_sweep: np.ndarray) -> float:
    """Transmission-peak separation under a strong resonant microwave field.

    Sweeps the probe detuning over ``probe_sweep`` (rad/s), locates the two
    deepest transparency windows by local-minimum detection with quadratic
    peak interpolation, and returns their separation in Hz. In the
    strong-field regime the separation equals the microwave Rabi frequency.

    Raises :class:`RegimeError` below the strong-field regime
    (``mw_rabi < 5 * decay_e``) or when fewer than two windows are found.
    """
    strong = 5.0 * system.decay_e
    message = "mw_rabi = {:.3e} rad/s is below the strong-field regime "
    message += f"(5 * decay_e = {strong:.3e} rad/s)"
    require(system.mw_rabi >= strong, RegimeError, message, system.mw_rabi)
    detunings = np.asarray(probe_sweep, dtype=float)
    message = "probe_sweep must be a 1-D array of at least 5 detunings"
    require(detunings.ndim == 1 and detunings.size >= 5, DomainError, message)

    a = probe_absorption(system, probe_detuning=detunings)

    i = np.flatnonzero((a[1:-1] < a[:-2]) & (a[1:-1] < a[2:])) + 1
    # Quadratic interpolation through the three points around each dip.
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    step = detunings[i + 1] - detunings[i]
    shift = np.zeros(i.size)
    np.divide(0.5 * step * (a[i - 1] - a[i + 1]), denom, out=shift, where=denom != 0.0)

    message = "found {} transparency window(s); need two to measure a splitting "
    message += "(widen or refine the probe sweep)"
    require(i.size >= 2, RegimeError, message, i.size)
    d1, d2 = (detunings[i] + shift)[np.argsort(a[i], kind="stable")[:2]]
    return abs(d2 - d1) / _TWO_PI


def heterodyne_gain(
    system: LadderSystem, *, mw_rabi: ArrayLike | None = None
) -> float | np.ndarray:
    """Derivative of probe absorption with respect to the microwave Rabi rate.

    Exact: the Liouvillian is affine in ``mw_rabi``, so the inverse that
    gives the steady state ``x`` also gives ``dx = -M^-1 [0; (B_mw x)[1:]] / s``
    for the trace-replaced, rescaled system ``M``, its scale ``s`` and the
    real microwave superoperator ``B_mw``. The derivative is taken at the LO operating point
    ``system.mw_rabi``, or at each value of an optional ``mw_rabi`` array
    (rad/s), in which case the result is an array of its shape, as in
    :func:`probe_absorption`. The beat-note amplitude produced by a weak
    signal of Rabi frequency ``omega_sig`` is
    ``heterodyne_gain(system) * omega_sig`` for ``omega_sig << mw_rabi``.
    """
    lo = system.mw_rabi if mw_rabi is None else mw_rabi
    message = "mw_rabi must be > 0 to define the heterodyne gain"
    require(np.asarray(lo, dtype=float) > 0, DomainError, message)
    _require_probe(system)

    def read(x, inverse, residual, scale):
        drive = x @ _MW_BASIS.T
        drive[:, 0] = 0.0
        slope = -(inverse @ drive[:, :, None])[:, :, 0] / scale
        return (slope @ _RHO_GE).imag

    return _absorption(system, _solve(system, None, mw_rabi, read))
