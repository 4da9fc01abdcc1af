"""Run configuration: a single JSON document drives gen/train/eval/profile.

The file must be a JSON object with ``schema_version: 1``. One walk,
``checked_copy``, copies it over ``DEFAULT_CONFIG`` and checks it: see its
docstring. A key the defaults lack is rejected at any level, so typos fail
loudly. ``SyntheticClipSpec`` then checks the ``data`` section and
``StageConfig`` each stage. Runs are seeded by the config's ``seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

from .fusion import StageConfig

__all__ = [
    "DEFAULT_CONFIG",
    "FUSER_NAMES",
    "SyntheticClipSpec",
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


@dataclass(frozen=True)
class SyntheticClipSpec:
    """The clips that a config's ``data`` section, less ``clips``, and its ``seed`` describe."""

    seed: int = 0
    frames: int = 3
    height: int = 64
    width: int = 64
    blob_count_min: int = 1
    blob_count_max: int = 2
    blob_size_min: int = 10
    blob_size_max: int = 22
    blob_speed_max: float = 1.5
    illumination: str = "day"
    stride: int = 3
    occlusion: str = "none"

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.height < 16 or self.width < 16:
            raise ValueError(f"image {self.height}x{self.width} too small for blob targets: "
                             "height and width must be >= 16")
        if self.illumination not in ("day", "night"):
            raise ValueError(f"illumination must be day or night, got {self.illumination!r}")
        if self.occlusion not in ("none", "last_frame"):
            raise ValueError(f"occlusion must be none or last_frame, got {self.occlusion!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not 0 < self.blob_size_min <= self.blob_size_max < min(self.height, self.width):
            raise ValueError("blob size range must fit inside the image: need 0 < blob_size_min <= "
                             f"blob_size_max < {min(self.height, self.width)}, "
                             f"got {self.blob_size_min} and {self.blob_size_max}")
        if not 0 < self.blob_count_min <= self.blob_count_max:
            raise ValueError("blob count range is empty: need 0 < blob_count_min <= blob_count_max, "
                             f"got {self.blob_count_min} and {self.blob_count_max}")
        if not 0 <= self.blob_speed_max < math.inf:
            raise ValueError(f"blob_speed_max must be finite and >= 0, got {self.blob_speed_max!r}")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "fuser": "mambast",
    "data": {**{f.name: f.default for f in fields(SyntheticClipSpec) if f.name != "seed"}, "clips": 24},
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

# Allowed interval of each key that no later check covers when a stored config
# loads, as its consumer needs it: the seed as numpy's generators take it,
# counts and widths at least 1, the anchors positive as build_targets divides
# by them and takes their log, the loss weights finite with a positive huber
# width, lr finite and momentum below 1 as SGD needs, iou_threshold as
# match_frame does and confidence_floor as a probability. SyntheticClipSpec
# checks the rest of data and StageConfig the rest of model.
RANGES = {
    "seed": "[0, inf)",
    "data.clips": "[1, inf)",
    "model.d_factor": "[1, inf)",
    "model.anchors.f1": "(0, inf)",
    "model.anchors.f2": "(0, inf)",
    "model.anchors.f3": "(0, inf)",
    "train.steps": "[1, inf)",
    "train.lr": "[0, inf)",
    "train.momentum": "[0, 1)",
    "train.box_weight": "[0, inf)",
    "train.huber_beta": "(0, inf)",
    "eval.confidence_floor": "[0, 1]",
    "eval.iou_threshold": "(0, 1]",
}


def default_config() -> dict:
    return normalize_config({"schema_version": SCHEMA_VERSION})


# JSON kinds in match order: bool before number, as True is an int.
_JSON_KINDS = (("a boolean", bool), ("a number", numbers.Real), ("a string", str),
               ("an array", (list, tuple)), ("an object", dict))
# The same words for the exact types that JSON and the defaults hold.
_EXACT_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
                list: "an array", tuple: "an array", dict: "an object"}


def json_kind(value) -> str:
    """The JSON kind of ``value`` in the words errors use, such as ``an array``.
    Exact types are looked up; anything else, such as a numpy scalar, is
    matched through ``_JSON_KINDS``."""
    kind = _EXACT_KINDS.get(type(value))
    if kind is not None:
        return kind
    return next((kind for kind, types in _JSON_KINDS if isinstance(value, types)), type(value).__name__)


def _key_error(source: str | None, key: str, problem: str) -> ValueError:
    return ValueError(f"{source}: config key '{key}' {problem}" if source is not None else f"{key}: {problem}")


def checked_copy(default, value, source: str | None, key: str = ""):
    """Check the JSON ``value`` against ``default`` and return a fresh copy of it.

    Kinds must match, an integer default takes only an integer, an array's
    items are checked against its first item and a number at a ``RANGES`` key
    against its interval. An object refuses unknown keys and fills a missing
    one from its default, but a ``model.stages`` entry, or any object when
    ``source`` is None, must have exactly its default's keys. Errors read
    ``<source>: config key '<key>' ...``, or ``<key>: ...`` when ``source`` is
    None, as for a manifest's ``spec``."""
    want = json_kind(default)
    if json_kind(value) != want:
        raise _key_error(source, key, f"must be {want}, got {type(value).__name__}")
    if isinstance(default, dict):
        prefix = f"{key}." if key else ""
        unknown = [name for name in value if name not in default]
        if source is None or key.endswith("]"):  # a spec or a stage entry: exactly the default's keys
            missing = [name for name in default if name not in value]
            for problem, names in (("unknown", unknown), ("missing", missing)):
                if names:
                    raise ValueError(f"{key}: {problem} keys {sorted(names)}")
        elif unknown:
            raise ValueError(f"{source}: unknown config keys {[prefix + name for name in unknown]}")
        return {name: checked_copy(item, value.get(name, item), source, prefix + name)
                for name, item in default.items()}
    if isinstance(default, list):
        return [checked_copy(default[0], item, source, f"{key}[{j}]") for j, item in enumerate(value)]
    if isinstance(default, int) and not isinstance(value, int):
        raise _key_error(source, key, f"must be an integer, got {value!r}")
    interval = RANGES.get(key)
    if interval is not None:
        low, high = (float(end) for end in interval[1:-1].split(","))
        above = low <= value if interval[0] == "[" else low < value
        below = value <= high if interval[-1] == "]" else value < high
        if not (above and below):
            raise _key_error(source, key, f"must be in {interval}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read a config file, fill defaults and validate."""
    try:
        with open(path) as fp:
            raw = json.load(fp)
    except ValueError as e:
        raise ValueError(f"{path}: bad JSON ({e})") from None
    return normalize_config(raw, source=str(path))


def normalize_config(raw: dict, source: str = "<dict>") -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: a config must be a JSON object, got {type(raw).__name__}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{source}: schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}")
    cfg = checked_copy(DEFAULT_CONFIG, raw, source)
    if cfg["fuser"] not in FUSER_NAMES:
        raise ValueError(f"{source}: unknown fuser {cfg['fuser']!r}")
    # Fail early on an invalid data section and on inconsistent fusion geometry.
    try:
        SyntheticClipSpec(seed=cfg["seed"], **{key: value for key, value in cfg["data"].items() if key != "clips"})
    except ValueError as e:
        raise ValueError(f"{source}: config section 'data': {e}") from None
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
