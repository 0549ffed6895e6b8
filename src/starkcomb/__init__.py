"""Channelized Rydberg vapor-cell microwave receiver simulator."""

__version__ = "0.1.0"

from .bloch import (
    DensityMatrixSolution,
    LadderSystem,
    at_splitting,
    heterodyne_gain,
    probe_absorption,
    steady_state,
)
from .comb import (
    CellArrayPlan,
    FrequencyComb,
    PlanRow,
    assign_channel,
    comb_lines,
    coverage_union,
    place_cells,
)
from .config import (
    ChannelDefaults,
    ReceiverConfig,
    build_channels,
    default_config,
    load_config,
)
from .errors import (
    ConfigError,
    CoverageError,
    DegenerateSystemError,
    DegenerateTransitionError,
    DomainError,
    InfeasiblePlanError,
    InfeasibleProfileError,
    PlannerError,
    ProfileRangeError,
    RegimeError,
    SolverError,
    StarkCombError,
    UnderdeterminedError,
    UnreachableFrequencyError,
)
from .field_map import FieldProfile, field_at, fit_profile, position_at, transition_frequency_at
from .receiver import (
    BeatRow,
    ChannelRow,
    beat_power,
    beat_signal_power,
    calibrate_noise_floor,
    channel_table,
    evaluate_channels,
    far_field_strength,
    min_detectable_field,
    rolloff,
    sensitivity,
    stitched_response,
)
from .scenarios import SCENARIO_NAMES, run_scenario
from .stark import RydbergTransition, field_for_frequency, stark_shifted_frequency
