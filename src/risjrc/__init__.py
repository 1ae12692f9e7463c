"""RIS-assisted joint radar-communication link-level simulator.

Submodules
----------
geometry      steering vectors and direction-cosine transforms
channels      LoS channel synthesis and received-signal models
codebook      hierarchical unit-modulus phase-shift codebook design
localization  multi-stage target search and snapshot budgeting
comms         user-link precoding and spectral efficiency
harness       experiment orchestration, config files, CSV output
"""

from .channels import (
    ChannelSet,
    FadingDraw,
    PhaseProfile,
    ScenarioConfig,
    TransmitBlock,
    build_channels,
    draw_fading,
    make_transmit_block,
    pathloss,
    radar_receive,
    squared_spatial_response,
    target_response,
    ue_receive,
)
from .codebook import (
    Codebook,
    PartitionSpec,
    SolverParams,
    StageBook,
    assemble_stage,
    build_codebook,
    build_matched_codebook,
    design_comm_phases,
    design_sensing_phases,
    load_codebook,
    mask_fidelity,
    partition_indices,
    save_codebook,
)
from .comms import (
    LinkMatrices,
    average_se,
    build_link_matrices,
    comm_phase_profile,
    effective_channel,
    spectral_efficiency,
    stage_phase_profile,
)
from .geometry import (
    DirectionCosine,
    FieldError,
    direction_cosines,
    direction_grid,
    ris_axis_steering,
    ris_full_steering,
    ula_steering,
)
from .harness import (
    ExperimentPlan,
    ResultTable,
    emit_csv,
    load_config,
    run_experiment,
    write_default_config,
)
from .localization import (
    CalibrationResult,
    SnapshotSchedule,
    StageDecision,
    StageEnsemble,
    TrialRecord,
    beam_statistic,
    calibrate_snapshots,
    exhaustive_localize,
    hierarchical_localize,
    make_scene,
    overall_error_bound,
    snapshot_rule_literal,
    stage_error,
)

__version__ = "0.1.0"
