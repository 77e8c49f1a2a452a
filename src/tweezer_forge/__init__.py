"""Holographic optical-tweezer arrays: 3D trap layout synthesis, phase-mask
computation, assembly planning and Monte Carlo experiment simulation."""

from .geometry import (
    LayoutError,
    PlaneDecomposition,
    SafetyReport,
    TrapLayout,
    TrapSite,
    Vec3,
    decompose_planes,
    generate_preset,
    load_layout,
    rotate_layout,
    save_layout,
    suggest_rotation,
    validate_mt_safety,
)
from .hologram import (
    Box,
    Image2D,
    IntensityVolume,
    PhaseMask,
    SlmConfig,
    UniformityReport,
    WgsConfig,
    closed_loop_refine,
    compute_phase_mask,
    export_phase_pgm,
    max_intensity_projection,
    sample_intensity_volume,
    trap_amplitudes,
    uniformity_rms,
)
from .physics import (
    LossModel,
    MtParams,
    TrapPhysics,
    calibrate_crosstalk,
    default_loss_model,
    default_mt_params,
    lossless_model,
    mt_pass_loss,
    rayleigh_length,
    survival,
    trap_depth,
    trap_frequencies,
)
from .assembler import (
    AssemblyPlan,
    Move,
    MovePlan,
    PlanInfeasibleError,
    PlannerPolicy,
    apply_plan_lossless,
    assignment_min_cost,
    plan_assembly,
    plan_plane,
)
from .simulator import (
    CameraModel,
    ExperimentConfig,
    SafetyParams,
    ShotResult,
    Statistics,
    TimingModel,
    analytic_fill_estimate,
    detect_occupancy,
    make_config,
    run_experiment,
    run_shot,
    simulate_initial_load,
    synthesize_fluorescence_stack,
)

__version__ = "0.1.0"
