"""RIS-assisted joint radar-communication link-level simulator.

Submodules
----------
geometry      steering vectors, direction cosines and the search grid
channels      scenario config, pathloss, fading draws and link matrices
codebook      hierarchical unit-modulus phase-shift codebook design
localization  multi-stage target search and snapshot budgeting
comms         user-link RIS profiles and spectral efficiency
harness       experiment orchestration, config files, CSV output

The search and the user link run on exact rank-1 scalar laws.  The dense
matrix model of both links, which the tests check those laws against, is
in ``tests/reference.py`` and is not part of the package.
"""

from .channels import (
    FadingDraw,
    LinkMatrices,
    PhaseProfile,
    ScenarioConfig,
    build_link_matrices,
    draw_fading,
    pathloss,
)
from .codebook import (
    Codebook,
    PartitionSpec,
    SolverParams,
    StageBook,
    build_codebook,
    design_comm_phases,
    design_sensing_phases,
    load_codebook,
    mask_fidelity,
    partition_indices,
    save_codebook,
)
from .comms import average_se, comm_phase_profile, spectral_efficiency, stage_phase_profile
from .geometry import (
    DirectionCosine,
    FieldError,
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
    StageEnsemble,
    calibrate_snapshots,
    exhaustive_localize,
    hierarchical_localize,
    make_scene,
    snapshot_rule_literal,
    stage_error,
)

__version__ = "0.1.0"
