"""The package namespace: every public name of the library modules."""

import photonforge as pf
from photonforge import core, dynamics, scenarios, slh, statistics

# the package's names before they were gathered from the modules' __all__
EARLIER_NAMES = (
    "__version__",
    "DensityMatrix", "Operator", "Superoperator", "dissipator",
    "liouvillian", "lowering_op", "sup_exp", "unvec", "vec",
    "SlhTriplet", "concatenate", "drive_triplet", "emitter_triplet",
    "feedback", "mirror_network", "mirror_triplet", "series",
    "to_master_equation",
    "DriveSchedule", "MirrorQubitParams", "PhaseSchedule", "ScenarioRun",
    "build_liouvillian", "channel_couplings", "effective_coupling",
    "expectation_series", "pi_pulse_width",
    "flux_series", "output_coupling", "propagator", "simulate",
    "CrossPairResult", "PhotonStatistics", "correlator_gm",
    "counting_statistics", "cross_pair_integral", "csi_metric",
    "invert_to_probabilities", "ordered_pair_count", "photon_mtiples",
    "BeamSplitterConfig", "CancellationInputs", "CancellationOutcome",
    "EncodeResult", "FlyingQubitTarget", "ShapedReleaseResult",
    "WavePacket", "cancellation_budget", "encode_flying_qubit",
    "minimal_sufficient_gamma", "run_beam_splitter", "run_cascade",
    "run_shaped_release", "shape_to_schedule", "sweep_cascade",
    "sweep_nonradiative", "sweep_wait_time",
)


def test_earlier_names_kept_and_resolve():
    assert len(EARLIER_NAMES) == 58
    assert set(EARLIER_NAMES) <= set(pf.__all__)
    for name in EARLIER_NAMES:
        assert getattr(pf, name) is not None, name


def test_all_is_the_modules_all():
    modules = (core, slh, dynamics, statistics, scenarios)
    want = ["__version__"] + [n for m in modules for n in m.__all__]
    assert sorted(pf.__all__) == sorted(want)
    assert len(set(pf.__all__)) == len(pf.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(pf, name) is getattr(m, name), name
