"""Cross-spectral spatial-temporal feature fusion on a small autodiff engine.

The library fuses per-stage RGB and thermal feature maps with stacks of
selective state-space blocks over order-aware token sequences, carrying a
per-head summary token between frames for temporal context. It ships with
its own numpy-backed tensor engine, serialization, detection metrics, an
analytic profiler, and a synthetic-data training harness.
"""

from .tensor import (
    Graph,
    GradCheckReport,
    GraphError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    register_op,
)
from .tensorio import (
    TensorFormatError,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
)
from .ssm import (
    MambaBlockParams,
    SSMParams,
    SSMState,
    block_forward,
    init_block,
    init_ssm,
    scan_sequence,
    scan_step,
    stack_forward,
)
from .interleave import OcfLayout, build_layout, ocf_flatten, ocf_unflatten
from .fusion import (
    StageConfig,
    StageParams,
    StageResult,
    init_stage,
    patch,
    stage_forward,
    unpatch,
)
from .temporal import (
    FeaturePair,
    FusionModel,
    NonFiniteFrameError,
    StreamState,
    build_model,
    fuse_clip,
    fuse_next,
    init_stream,
    load_stream_state,
    save_stream_state,
)
from .metrics import (
    SETTING_ALL,
    SETTING_REASONABLE,
    SETTING_REASONABLE_SMALL,
    Box,
    EvalSetting,
    collect_matches,
    lamr,
    match_frame,
    mr_fppi_curve,
    recall,
)
from .profiler import (
    ProfileReport,
    count_flops,
    count_params,
    full_scale_configs,
    profile,
)
from .config import default_config, load_config

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Graph",
    "backward",
    "grad_check",
    "register_op",
    "GradCheckReport",
    "ShapeError",
    "GraphError",
    "TensorFormatError",
    "save_tensor",
    "load_tensor",
    "save_checkpoint",
    "load_checkpoint",
    "SSMParams",
    "SSMState",
    "MambaBlockParams",
    "scan_sequence",
    "scan_step",
    "block_forward",
    "stack_forward",
    "init_ssm",
    "init_block",
    "OcfLayout",
    "build_layout",
    "ocf_flatten",
    "ocf_unflatten",
    "StageConfig",
    "StageParams",
    "StageResult",
    "init_stage",
    "stage_forward",
    "patch",
    "unpatch",
    "FeaturePair",
    "FusionModel",
    "NonFiniteFrameError",
    "StreamState",
    "build_model",
    "init_stream",
    "fuse_next",
    "fuse_clip",
    "save_stream_state",
    "load_stream_state",
    "Box",
    "EvalSetting",
    "SETTING_ALL",
    "SETTING_REASONABLE",
    "SETTING_REASONABLE_SMALL",
    "match_frame",
    "collect_matches",
    "mr_fppi_curve",
    "lamr",
    "recall",
    "ProfileReport",
    "count_params",
    "count_flops",
    "profile",
    "full_scale_configs",
    "default_config",
    "load_config",
    "__version__",
]
