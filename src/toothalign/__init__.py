"""Tooth alignment toolkit: rigid-transform geometry, dental arch
fitting, point-cloud serialization, constrained augmentation,
alignment losses, a forward-only attention network reference, and
evaluation metrics."""

from .arch import (
    ArchLine,
    fit_arch_line,
    fit_case_arches,
    move_along_arch,
    serialize_points,
)
from .augment import (
    AugmentConfig,
    CollisionReport,
    adjacent_gaps,
    check_constraints,
    constrained_augment_case,
    constrained_augment_case_report,
    detect_collisions,
    jaw_regularize,
    ordinary_augment,
    penetration_distance,
    perturb_tooth,
    resolve_collisions,
)
from .bvh import AabbTree, interlock_masks
from .case import (
    ANTERIOR_IDS,
    NORM_SCALE_MM,
    POINT_COUNT,
    Case,
    Jaw,
    Tooth,
    ToothPointImage,
    build_tooth_point_image,
    case_from_dict,
    case_to_dict,
    dumps_json,
    jaw_of_id,
    load_case,
    midline_offset,
    save_case,
    tooth_assembler,
    tooth_centers,
    validate_case,
)
from .config import Config, config_from_dict, load_config
from .errors import (
    ComputationError,
    ConfigError,
    ToothAlignError,
    ValidationError,
)
from .geometry import (
    RigidTransform,
    apply_transform,
    fps_sample,
    kabsch_recover,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    rotation_angle_between,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    anterior_uniformity_loss,
    enhancement_weights,
    grad_check,
    occlusal_overlap_mask,
    opposing_region,
    overlap_consistency_loss,
    posterior_uniformity_loss,
    recon_loss,
    rot_trans_loss,
    total_loss,
    uniformity_loss,
)
from .metrics import (
    AddCurve,
    add_curve,
    add_error,
    auc,
    evaluate_cases,
    iterate_predict,
    iteration_metrics,
    me_rotate,
    me_translate,
)
from .seeding import derive_seed
from .swin import (
    WindowSpec,
    center_encoder,
    column_merge,
    cyclic_shift,
    init_weights,
    predict_case,
    predict_transforms,
    swin_block,
    swtbs_forward,
    swtp_forward,
    window_attention,
    window_partition,
    window_reverse,
    zero_biases,
)
from .synthetic import SynthParams, generate_synthetic_case

__version__ = "0.1.0"
