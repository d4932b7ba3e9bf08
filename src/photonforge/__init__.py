"""Simulation toolkit for on-demand photon sources built from a single
emitter coupled to a phase-tunable reflected channel.

The package is organised in layers:

- :mod:`photonforge.core` -- operators, density matrices, and
  superoperator algebra on a column-stacked Liouville space.
- :mod:`photonforge.slh` -- composable input-output network triplets
  (scattering matrix, coupling vector, Hamiltonian) with series,
  concatenation, and feedback products.
- :mod:`photonforge.dynamics` -- piecewise-constant drive and phase
  schedules compiled into exact matrix-exponential propagators.
- :mod:`photonforge.statistics` -- photon counting moments, click
  probabilities, multi-time correlations, and cross-channel pair
  integrals from stored trajectories.
- :mod:`photonforge.scenarios` -- ready-made experiment runners:
  beam-splitter counting statistics, shaped wave-packet release,
  cascaded pair generation, decay sweeps, flying-qubit encoding, and
  interference cancellation budgets.
- :mod:`photonforge.cli` -- the ``photonforge`` command-line entry
  point that drives the scenario registry from plain config files.
"""

from .core import (
    DensityMatrix,
    Operator,
    Superoperator,
    dissipator,
    liouvillian,
    lowering_op,
    sup_exp,
    unvec,
    vec,
)
from .dynamics import (
    DriveSchedule,
    MirrorQubitParams,
    PhaseSchedule,
    ScenarioRun,
    build_liouvillian,
    channel_couplings,
    effective_coupling,
    expectation_series,
    flux_series,
    output_coupling,
    pi_pulse_width,
    propagator,
    simulate,
)
from .scenarios import (
    BeamSplitterConfig,
    CancellationInputs,
    CancellationOutcome,
    EncodeResult,
    FlyingQubitTarget,
    ShapedReleaseResult,
    WavePacket,
    cancellation_budget,
    encode_flying_qubit,
    minimal_sufficient_gamma,
    run_beam_splitter,
    run_cascade,
    run_shaped_release,
    shape_to_schedule,
    sweep_cascade,
    sweep_nonradiative,
    sweep_wait_time,
)
from .slh import (
    SlhTriplet,
    concatenate,
    drive_triplet,
    emitter_triplet,
    feedback,
    mirror_network,
    mirror_triplet,
    series,
    to_master_equation,
)
from .statistics import (
    CrossPairResult,
    PhotonStatistics,
    correlator_gm,
    counting_statistics,
    cross_pair_integral,
    csi_metric,
    invert_to_probabilities,
    ordered_pair_count,
    photon_mtiples,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "DensityMatrix", "Operator", "Superoperator", "dissipator",
    "liouvillian", "lowering_op", "sup_exp", "unvec", "vec",
    # slh
    "SlhTriplet", "concatenate", "drive_triplet", "emitter_triplet",
    "feedback", "mirror_network", "mirror_triplet", "series",
    "to_master_equation",
    # dynamics
    "DriveSchedule", "MirrorQubitParams", "PhaseSchedule", "ScenarioRun",
    "build_liouvillian", "channel_couplings", "effective_coupling",
    "expectation_series", "pi_pulse_width",
    "flux_series", "output_coupling", "propagator", "simulate",
    # statistics
    "CrossPairResult", "PhotonStatistics", "correlator_gm",
    "counting_statistics", "cross_pair_integral", "csi_metric",
    "invert_to_probabilities", "ordered_pair_count", "photon_mtiples",
    # scenarios
    "BeamSplitterConfig", "CancellationInputs", "CancellationOutcome",
    "EncodeResult", "FlyingQubitTarget", "ShapedReleaseResult",
    "WavePacket", "cancellation_budget", "encode_flying_qubit",
    "minimal_sufficient_gamma", "run_beam_splitter", "run_cascade",
    "run_shaped_release", "shape_to_schedule", "sweep_cascade",
    "sweep_nonradiative", "sweep_wait_time",
]
