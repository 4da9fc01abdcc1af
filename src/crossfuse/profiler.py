"""Parameter and FLOP counts for fusion stages.

Counts are exact integers from closed forms that mirror the forward pass,
under a pinned convention:

  * one multiply-accumulate = 2 FLOPs (so a matmul of (m, k) @ (k, n) costs
    2*m*k*n);
  * elementwise add/mul/exp = 1 FLOP per element;
  * a reduction counts 1 add per reduced element;
  * silu = 4, softplus = 3, layer norm = 8 FLOPs per element;
  * pure data movement (patching, interleaving, reshapes) is free.

FLOPs are for a single frame-pair forward through a stage, without a carry
token. Time is measured by the benchmark (``bench/run.py``), not here.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .config import SCHEMA_VERSION, normalize_config, stage_configs_from
from .fusion import StageConfig
from .ssm import default_dt_rank

__all__ = [
    "StageProfile",
    "ProfileReport",
    "block_param_count",
    "head_param_count",
    "stage_param_count",
    "stage_flop_count",
    "count_params",
    "count_flops",
    "profile",
    "render_table",
    "full_scale_configs",
    "REFERENCE_FULL_SCALE",
]

CONVENTIONS = (
    "MAC=2 FLOPs; elementwise=1/elem; reduction=1 add/elem; "
    "silu=4, softplus=3, layer_norm=8 FLOPs/elem; reshapes and permutations free; "
    "single frame pair, no carry token"
)

# Published totals for the full-scale configuration of this architecture.
# Its SSM internals are not public, so these are context, not a target.
REFERENCE_FULL_SCALE = {"params_m": 22.52, "gflops": 5.43}


def _rank(cfg: StageConfig) -> int:
    return cfg.dt_rank if cfg.dt_rank is not None else default_dt_rank(cfg.head_dim)


def block_param_count(dim: int, state_size: int, conv_kernel: int, expand: int, dt_rank: int) -> int:
    e = expand * dim
    norm = 2 * dim
    in_proj = dim * e
    gate = dim * e
    conv = conv_kernel * e + e
    ssm = (e * state_size) * 3 + e * dt_rank + dt_rank * e + e  # A_log, w_b, w_out; dt down/up/bias
    out = e * dim + dim
    return norm + in_proj + gate + conv + ssm + out


def head_param_count(cfg: StageConfig, head: int) -> int:
    s = cfg.patch_sizes[head]
    packed = cfg.channels * s * s
    d = cfg.head_dim
    w_in = packed * d
    blocks = cfg.layers * block_param_count(d, cfg.state_size, cfg.conv_kernel, cfg.expand, _rank(cfg))
    out_linear = d * packed + packed
    return w_in + blocks + out_linear


def stage_param_count(cfg: StageConfig) -> int:
    emb = cfg.height * cfg.width * cfg.channels + 2 * cfg.channels
    heads = sum(head_param_count(cfg, k) for k in range(cfg.heads))
    agg = cfg.heads * cfg.channels * cfg.channels + cfg.channels
    return emb + heads + agg


def _block_flop_count(length: int, dim: int, state_size: int, conv_kernel: int, expand: int, dt_rank: int) -> int:
    L, d, e, n, r, kc = length, dim, expand * dim, state_size, dt_rank, conv_kernel
    norm = 8 * L * d
    in_proj = 2 * L * d * e
    conv = 2 * L * e * kc + L * e
    silu_conv = 4 * L * e
    # scan_sequence: b projection, low-rank delta, softplus, A from a_log,
    # the scan recurrence, and the output contraction
    b_proj = 2 * L * e * n
    dt_proj = 2 * L * e * r + 2 * L * r * e + L * e
    softplus = 3 * L * e
    a_from_log = 2 * e * n
    scan = 2 * L * e * n + (L * e + L * e * n) + 2 * L * e * n  # d_a, d_bx, recurrence
    y_out = 2 * L * e * n
    gate = 2 * L * d * e + 4 * L * e
    mix = L * e
    out_proj = 2 * L * e * d + L * d
    residual = L * d
    return (norm + in_proj + conv + silu_conv + b_proj + dt_proj + softplus
            + a_from_log + scan + y_out + gate + mix + out_proj + residual)


def stage_flop_count(cfg: StageConfig) -> int:
    c = cfg.channels
    hw_full = cfg.height * cfg.width
    total = 4 * hw_full * c  # embeddings: two adds per modality
    for k in range(cfg.heads):
        s = cfg.patch_sizes[k]
        hw = (cfg.height // s) * (cfg.width // s)
        length = 2 * hw
        packed = c * s * s
        d = cfg.head_dim
        total += 2 * length * packed * d  # w_in
        total += cfg.layers * _block_flop_count(length, d, cfg.state_size, cfg.conv_kernel, cfg.expand, _rank(cfg))
        total += 2 * length * d * packed + length * packed  # out_linear
        total += length * packed  # residual adds on both patched maps
    # aggregation: pointwise (K*C -> C) plus bias and residual, per modality
    total += 2 * (2 * hw_full * (cfg.heads * c) * c + 2 * hw_full * c)
    return total


def count_params(configs: Sequence[StageConfig]) -> dict[str, int]:
    return {cfg.name: stage_param_count(cfg) for cfg in configs}


def count_flops(configs: Sequence[StageConfig]) -> dict[str, int]:
    return {cfg.name: stage_flop_count(cfg) for cfg in configs}


@dataclass
class StageProfile:
    name: str
    params: int
    flops: int


@dataclass
class ProfileReport:
    stages: list[StageProfile]
    total_params: int
    total_flops: int
    conventions: str
    machine: str
    reference: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _machine_descriptor() -> str:
    """Platform and python, plus the kernel OpenBLAS picked for this CPU and
    numpy's SIMD level, on which float32 bits depend (``unknown`` if absent)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        blas = corename().decode()
    except (IndexError, OSError, AttributeError):
        blas = "unknown"
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found") or ["unknown"]
    return (f"{platform.platform()} / {platform.machine()} / python {platform.python_version()}"
            f" / blas {blas} / simd {','.join(simd)}")


def profile(configs: Sequence[StageConfig], reference: Optional[dict] = None) -> ProfileReport:
    stages = [StageProfile(name=cfg.name, params=stage_param_count(cfg), flops=stage_flop_count(cfg))
              for cfg in configs]
    return ProfileReport(
        stages=stages,
        total_params=sum(s.params for s in stages),
        total_flops=sum(s.flops for s in stages),
        conventions=CONVENTIONS,
        machine=_machine_descriptor(),
        reference=reference,
    )


def render_table(report: ProfileReport) -> str:
    lines = []
    header = f"{'stage':<8} {'params':>14} {'MFLOPs':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for s in report.stages:
        lines.append(f"{s.name:<8} {s.params:>14,} {s.flops / 1e6:>12.2f}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<8} {report.total_params:>14,} {report.total_flops / 1e6:>12.2f}")
    if report.reference:
        ref_p = report.reference.get("params_m")
        ref_g = report.reference.get("gflops")
        ours_p = report.total_params / 1e6
        ours_g = report.total_flops / 1e9
        lines.append("")
        lines.append(
            f"reference totals: {ref_p:.2f}M params / {ref_g:.2f} GFLOPs; "
            f"this config: {ours_p:.2f}M / {ours_g:.2f}"
        )
        if ref_p:
            ratio_p = ours_p / ref_p
            ratio_g = ours_g / ref_g if ref_g else float("nan")
            within_p = "within" if abs(ratio_p - 1.0) <= 0.25 else "outside"
            within_g = "within" if abs(ratio_g - 1.0) <= 0.25 else "outside"
            lines.append(
                f"params ratio {ratio_p:.2f} ({within_p} +/-25%), "
                f"flops ratio {ratio_g:.2f} ({within_g} +/-25%); informational only, "
                "the reference counts leave the scan internals unstated"
            )
    lines.append("")
    lines.append(f"conventions: {report.conventions}")
    lines.append(f"machine: {report.machine}")
    return "\n".join(lines)


def full_scale_configs(layers: int = 8) -> list[StageConfig]:
    """Full-scale stage geometry: a 640x640 input with ``d_factor`` 64, four
    heads of patch sizes 1, 2, 4 and 8 on f1, one of size 1 on f2 and f3."""
    stages = [{"stage": "f1", "heads": 4, "patch_sizes": [1, 2, 4, 8], "layers": layers}]
    stages += [{"stage": name, "heads": 1, "patch_sizes": [1], "layers": layers} for name in ("f2", "f3")]
    return stage_configs_from(normalize_config({
        "schema_version": SCHEMA_VERSION,
        "data": {"height": 640, "width": 640},
        "model": {"d_factor": 64, "stages": stages},
    }))
