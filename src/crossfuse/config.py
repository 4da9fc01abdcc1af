"""Run configuration: a single JSON document drives gen/train/eval/profile.

The file must carry ``schema_version: 1``. A key the defaults do not have,
at any level and in any ``model.stages`` entry, is rejected so typos fail
loudly, as are a value of another JSON kind than its default's, a
non-integer where the default is an integer, and a stage entry missing a
key. Runs are seeded by the config's ``seed``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers

from .fusion import StageConfig

__all__ = [
    "DEFAULT_CONFIG",
    "FUSER_NAMES",
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
FUSER_NAMES = ("none-rgb", "none-thermal", "feature-add", "mambast")

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

def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


# JSON kinds in match order: bool before number, as True is an int.
_JSON_KINDS = (("a boolean", bool), ("a number", numbers.Real), ("a string", str),
               ("an array", (list, tuple)), ("an object", dict))


def _json_kind(value) -> str:
    return next((kind for kind, types in _JSON_KINDS if isinstance(value, types)), type(value).__name__)


def _check_kind(default, value, source: str, key: str) -> None:
    """Raise unless ``value`` is of ``default``'s JSON kind, and an integer where
    it is; an array's items are checked against the default's first item."""
    want = _json_kind(default)
    if _json_kind(value) != want:
        raise ValueError(f"{source}: config key '{key}' must be {want}, got {type(value).__name__}")
    if isinstance(default, int) and not isinstance(value, int):
        raise ValueError(f"{source}: config key '{key}' must be an integer, got {value!r}")
    if isinstance(default, list):
        for j, item in enumerate(value):
            _check_kind(default[0], item, source, f"{key}[{j}]")


def _merge(base: dict, override: dict, source: str, path: str = "") -> dict:
    unknown = [f"{path}{key}" for key in override if key not in base]
    if unknown:
        raise ValueError(f"{source}: unknown config keys {unknown}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        _check_kind(out[key], value, source, f"{path}{key}")
        if isinstance(value, dict):  # and so is the default, by the kind check above
            out[key] = _merge(out[key], value, source, f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check_stages(stages: list, source: str) -> None:
    """Each ``model.stages`` entry has exactly the default entry's keys, each of its kind."""
    default = DEFAULT_CONFIG["model"]["stages"][0]
    for i, entry in enumerate(stages):
        for problem, keys in (("unknown", set(entry) - set(default)), ("missing", set(default) - set(entry))):
            if keys:
                raise ValueError(f"model.stages[{i}]: {problem} keys {sorted(keys)}")
        for key, want in default.items():
            _check_kind(want, entry[key], source, f"model.stages[{i}].{key}")


def load_config(path) -> dict:
    """Read a config file, fill defaults and validate."""
    with open(path) as fp:
        raw = json.load(fp)
    return normalize_config(raw, source=str(path))


def normalize_config(raw: dict, source: str = "<dict>") -> dict:
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{source}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")
    cfg = _merge(DEFAULT_CONFIG, raw, source)
    _check_stages(cfg["model"]["stages"], source)
    if cfg["fuser"] not in FUSER_NAMES:
        raise ValueError(f"{source}: unknown fuser {cfg['fuser']!r}")
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
