"""Run configuration: a single JSON document drives gen/train/eval/profile.

The file must carry ``schema_version: 1``. Unknown top-level keys are
rejected so typos fail loudly rather than silently falling back to
defaults. ``CROSSFUSE_DETERMINISTIC=0`` in the environment replaces the
configured seed with a fresh one (the default is fully deterministic runs).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import secrets
from pathlib import Path

from .fusion import StageConfig

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "default_config",
    "config_model_hash",
    "stage_configs_from",
    "backbone_widths",
]

SCHEMA_VERSION = 1

# Stage widths scale as (4, 8, 16) * d_factor at strides (8, 16, 32),
# mirroring the usual three-level detection pyramid.
STAGE_NAMES = ("f1", "f2", "f3")
STAGE_WIDTH_FACTORS = {"f1": 4, "f2": 8, "f3": 16}
STAGE_STRIDES = {"f1": 8, "f2": 16, "f3": 32}

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "fuser": "mambast",
    "data": {
        "frames": 3,
        "height": 64,
        "width": 64,
        "blob_count_min": 1,
        "blob_count_max": 2,
        "blob_size_min": 10,
        "blob_size_max": 22,
        "blob_speed_max": 1.5,
        "illumination": "day",
        "stride": 3,
        "occlusion": "none",
        "clips": 24,
    },
    "model": {
        "d_factor": 4,
        "stages": [
            {"stage": "f1", "heads": 2, "patch_sizes": [1, 2], "layers": 1},
            {"stage": "f2", "heads": 1, "patch_sizes": [1], "layers": 1},
            {"stage": "f3", "heads": 1, "patch_sizes": [1], "layers": 1},
        ],
        "state_size": 16,
        "conv_kernel": 4,
        "expand": 2,
        "anchors": {"f1": 12.0, "f2": 20.0, "f3": 32.0},
    },
    "train": {
        "steps": 500,
        "lr": 0.01,
        "momentum": 0.9,
        "box_weight": 1.0,
        "huber_beta": 0.1,
    },
    "eval": {
        "confidence_floor": 0.25,
        "iou_threshold": 0.5,
    },
}

_TOP_KEYS = set(DEFAULT_CONFIG)


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path) -> dict:
    """Read a config file, fill defaults, validate, and apply env overrides."""
    with open(path) as fp:
        raw = json.load(fp)
    return normalize_config(raw, source=str(path))


def normalize_config(raw: dict, source: str = "<dict>") -> dict:
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{source}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"{source}: unknown config keys {sorted(unknown)}")
    cfg = _merge(DEFAULT_CONFIG, raw)
    if cfg["fuser"] not in ("none-rgb", "none-thermal", "feature-add", "mambast"):
        raise ValueError(f"{source}: unknown fuser {cfg['fuser']!r}")
    if os.environ.get("CROSSFUSE_DETERMINISTIC", "1") == "0":
        cfg["seed"] = secrets.randbits(31)
    # Fail early on inconsistent fusion geometry.
    stage_configs_from(cfg)
    return cfg


def backbone_widths(cfg: dict) -> dict[str, int]:
    d = cfg["model"]["d_factor"]
    return {name: STAGE_WIDTH_FACTORS[name] * d for name in STAGE_NAMES}


def stage_configs_from(cfg: dict) -> list[StageConfig]:
    """Fusion stage geometry implied by the image size and model section."""
    height = cfg["data"]["height"]
    width = cfg["data"]["width"]
    model = cfg["model"]
    widths = backbone_widths(cfg)
    out = []
    for entry in model["stages"]:
        name = entry["stage"]
        if name not in STAGE_NAMES:
            raise ValueError(f"unknown stage {name!r}, expected one of {STAGE_NAMES}")
        stride = STAGE_STRIDES[name]
        if height % stride or width % stride:
            raise ValueError(f"image {height}x{width} is not divisible by stage stride {stride}")
        out.append(
            StageConfig(
                name=name,
                height=height // stride,
                width=width // stride,
                channels=widths[name],
                heads=entry["heads"],
                patch_sizes=tuple(entry["patch_sizes"]),
                layers=entry["layers"],
                state_size=model["state_size"],
                conv_kernel=model["conv_kernel"],
                expand=model["expand"],
                dt_rank=model.get("dt_rank"),
            )
        )
    if [c.name for c in out] != list(STAGE_NAMES):
        raise ValueError(f"model.stages must list exactly {STAGE_NAMES} in order")
    return out


def config_model_hash(cfg: dict) -> str:
    """Hash of everything that determines parameter shapes and meaning."""
    payload = {
        "data": {"height": cfg["data"]["height"], "width": cfg["data"]["width"]},
        "model": cfg["model"],
        "fuser": cfg["fuser"],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
