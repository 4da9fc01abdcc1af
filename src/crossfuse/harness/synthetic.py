"""Synthetic RGB+thermal clips with moving blob targets.

Each clip tracks a handful of rectangular blobs under constant velocity.
Frames are sampled from the underlying motion at a fixed temporal stride
(frame i shows motion step i * stride). Ground truth follows blob positions
exactly, whether or not the blob is visible in that frame.

Illumination modes change only the RGB channel statistics:

  * day:   blobs render into RGB well above the noise floor;
  * night: RGB blob contrast drops below the noise floor, so the RGB
    channel alone carries almost no signal.

Thermal rendering is identical in both modes. Occlusion mode "last_frame"
skips rendering blobs (in both spectra) on a clip's final frame while
keeping their ground-truth boxes, which is the case a temporal model can
solve and a single-frame model cannot.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..config import SyntheticClipSpec
from ..tensor import Tensor
from ..tensorio import load_tensor, save_tensor
from ..metrics import Box

__all__ = ["SyntheticClipSpec", "RenderParams", "gen_clips", "load_dataset", "Clip", "Dataset"]

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = 2
_BOX_KEYS = frozenset(("x", "y", "w", "h"))
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


@dataclass(frozen=True)
class RenderParams:
    """Channel statistics per illumination mode. Night RGB contrast sits
    below the night noise sigma by construction; thermal never changes."""

    rgb_contrast_day: float = 0.55
    rgb_noise_day: float = 0.02
    rgb_contrast_night: float = 0.03
    rgb_noise_night: float = 0.15
    rgb_background: float = 0.45
    thermal_contrast: float = 0.75
    thermal_noise: float = 0.02
    thermal_background: float = 0.10


def _spec_from_dict(d: dict) -> SyntheticClipSpec:
    """Inverse of ``SyntheticClipSpec.to_dict``: exactly the fields, each of its default's
    JSON kind (a float field also takes an integer); ``__post_init__`` then
    checks the ranges. Errors name the key as ``spec.<field>``."""
    if type(d) is not dict:
        raise ValueError(f"spec: must be an object, got {type(d).__name__}")
    defaults = {f.name: f.default for f in fields(SyntheticClipSpec)}
    for problem, keys in (("unknown", d.keys() - defaults.keys()), ("missing", defaults.keys() - d.keys())):
        if keys:
            raise ValueError(f"spec: {problem} keys {sorted(keys)}")
    for name, default in defaults.items():
        kinds = (int, float) if type(default) is float else (type(default),)
        if type(d[name]) not in kinds:
            raise ValueError(f"spec.{name}: must be {_KIND_NAMES[kinds[0]]}, got {d[name]!r}")
    try:
        return SyntheticClipSpec(**d)
    except ValueError as e:
        raise ValueError(f"spec: {e}") from None


@dataclass
class _Blob:
    x: float  # top-left corner at motion step 0
    y: float
    w: float
    h: float
    vx: float
    vy: float

    def at(self, step: int, bounds: tuple[int, int]) -> tuple[float, float]:
        """Top-left corner at a motion step, clamped inside the image."""
        height, width = bounds
        x = min(max(self.x + self.vx * step, 0.0), width - self.w)
        y = min(max(self.y + self.vy * step, 0.0), height - self.h)
        return x, y


def _render_frame(
    spec: SyntheticClipSpec,
    render: RenderParams,
    blobs: list[_Blob],
    motion_step: int,
    rng: np.random.Generator,
    occluded: bool,
) -> tuple[np.ndarray, np.ndarray, list[Box]]:
    h, w = spec.height, spec.width
    night = spec.illumination == "night"
    rgb_noise = render.rgb_noise_night if night else render.rgb_noise_day
    rgb_contrast = render.rgb_contrast_night if night else render.rgb_contrast_day

    rgb = np.full((h, w, 3), render.rgb_background, dtype=np.float32)
    rgb += rng.normal(0.0, rgb_noise, size=(h, w, 3)).astype(np.float32)
    thm = np.full((h, w, 1), render.thermal_background, dtype=np.float32)
    thm += rng.normal(0.0, render.thermal_noise, size=(h, w, 1)).astype(np.float32)

    boxes = []
    for blob in blobs:
        x, y = blob.at(motion_step, (h, w))
        boxes.append(Box(x=x, y=y, w=blob.w, h=blob.h))
        if occluded:
            continue
        r0, r1 = int(round(y)), int(round(y + blob.h))
        c0, c1 = int(round(x)), int(round(x + blob.w))
        rgb[r0:r1, c0:c1, :] += rgb_contrast
        thm[r0:r1, c0:c1, :] += render.thermal_contrast
    return rgb, thm, boxes


@dataclass
class Clip:
    clip_id: str
    tag: str
    frames: list[dict]  # {"frame_id", "rgb", "thermal"} with paths relative to root
    gt: dict[str, list[Box]]


@dataclass
class Dataset:
    root: Path
    spec: SyntheticClipSpec
    clips: list[Clip]

    def load_frame(self, frame: dict) -> tuple[Tensor, Tensor]:
        return (
            load_tensor(self.root / frame["rgb"]),
            load_tensor(self.root / frame["thermal"]),
        )


def gen_clips(spec: SyntheticClipSpec, count: int, out_dir) -> dict:
    """Write ``count`` clips plus a manifest; fully determined by spec.seed.

    Returns the manifest dict. Layout:

        out_dir/manifest.json
        out_dir/clips/<clip_id>/f<i>.rgb.tnsr
        out_dir/clips/<clip_id>/f<i>.thm.tnsr

    Each frame's ground-truth boxes sit in its manifest entry.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    render = RenderParams()
    manifest_clips = []
    for ci in range(count):
        clip_id = f"clip{ci:04d}"
        clip_dir = root / "clips" / clip_id
        clip_dir.mkdir(parents=True, exist_ok=True)
        n_blobs = int(rng.integers(spec.blob_count_min, spec.blob_count_max + 1))
        blobs = []
        for _ in range(n_blobs):
            bw = float(rng.uniform(spec.blob_size_min, spec.blob_size_max))
            bh = float(rng.uniform(spec.blob_size_min, spec.blob_size_max))
            # Leave motion headroom so clamping rarely engages.
            x = float(rng.uniform(0, spec.width - bw))
            y = float(rng.uniform(0, spec.height - bh))
            angle = rng.uniform(0, 2 * np.pi)
            speed = rng.uniform(0, spec.blob_speed_max)
            blobs.append(_Blob(x=x, y=y, w=bw, h=bh, vx=speed * np.cos(angle), vy=speed * np.sin(angle)))
        frames = []
        for fi in range(spec.frames):
            occluded = spec.occlusion == "last_frame" and fi == spec.frames - 1
            rgb, thm, boxes = _render_frame(spec, render, blobs, fi * spec.stride, rng, occluded)
            rgb_rel = f"clips/{clip_id}/f{fi}.rgb.tnsr"
            thm_rel = f"clips/{clip_id}/f{fi}.thm.tnsr"
            save_tensor(root / rgb_rel, Tensor(rgb))
            save_tensor(root / thm_rel, Tensor(thm))
            frames.append({"frame_id": f"{clip_id}/f{fi}", "rgb": rgb_rel, "thermal": thm_rel,
                           "boxes": [b.to_dict() for b in boxes]})
        manifest_clips.append({"id": clip_id, "tag": spec.illumination, "frames": frames})
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "spec": spec.to_dict(),
        "render": asdict(render),
        "clips": manifest_clips,
    }
    with open(root / MANIFEST_NAME, "w") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return manifest


def _manifest_error(at: str, problem: str) -> ValueError:
    return ValueError(f"{MANIFEST_NAME}: {at}: {problem}")


def _row_error(row, at: str, kinds: tuple) -> ValueError:
    """The error for a manifest row that failed its check: not an object, or a
    key of ``kinds`` ((key, type), ...) missing or of another type."""
    if type(row) is not dict:
        return _manifest_error(at, f"must be an object, got {type(row).__name__}")
    for key, kind in kinds:
        if key not in row:
            return _manifest_error(f"{at}.{key}", "missing")
        if type(row[key]) is not kind:
            return _manifest_error(f"{at}.{key}", f"must be {_KIND_NAMES[kind]}, got {type(row[key]).__name__}")
    raise AssertionError(f"{at} passes its check")


_CLIP_KINDS = (("id", str), ("tag", str), ("frames", list))
_FRAME_KINDS = (("frame_id", str), ("rgb", str), ("thermal", str), ("boxes", list))
_NUMBER = frozenset((int, float))


def _box_error(b, at: str) -> ValueError:
    if type(b) is not dict or b.keys() != _BOX_KEYS:
        return _manifest_error(at, "must be an object with exactly the keys x, y, w, h")
    for key in ("x", "y", "w", "h"):
        v = b[key]
        if type(v) not in _NUMBER or not -math.inf < v < math.inf:
            return _manifest_error(f"{at}.{key}", f"must be a finite number, got {v!r}")
        if key in ("w", "h") and v <= 0:
            return _manifest_error(f"{at}.{key}", f"must be > 0, got {v!r}")
    raise AssertionError(f"{at} passes its check")


def _read_clips(rows) -> list[Clip]:
    """Check the manifest's clip rows and build each clip's ground truth.

    The checks are written inline and build their error only on failure,
    because this loop runs once per frame and once per box.
    """
    if type(rows) is not list or not rows:
        raise _manifest_error("clips", "must be a non-empty list")
    clips, seen, inf = [], set(), math.inf
    for ci, row in enumerate(rows):
        if not (type(row) is dict and type(row.get("id")) is str and type(row.get("tag")) is str
                and type(row.get("frames")) is list):
            raise _row_error(row, f"clips[{ci}]", _CLIP_KINDS)
        if not row["frames"]:
            raise _manifest_error(f"clips[{ci}].frames", "must not be empty")
        gt = {}
        for fi, frame in enumerate(row["frames"]):
            if not (type(frame) is dict and type(frame.get("frame_id")) is str and type(frame.get("rgb")) is str
                    and type(frame.get("thermal")) is str and type(frame.get("boxes")) is list):
                raise _row_error(frame, f"clips[{ci}].frames[{fi}]", _FRAME_KINDS)
            frame_id = frame["frame_id"]
            if frame_id in seen:
                raise _manifest_error(f"clips[{ci}].frames[{fi}].frame_id", f"repeats {frame_id!r}")
            seen.add(frame_id)
            boxes = gt[frame_id] = frame.pop("boxes")  # each row is replaced by its Box
            for bi, b in enumerate(boxes):
                if type(b) is dict and b.keys() == _BOX_KEYS:
                    x, y, w, h = b["x"], b["y"], b["w"], b["h"]
                    if (type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER and type(h) in _NUMBER
                            and -inf < x < inf and -inf < y < inf and 0 < w < inf and 0 < h < inf):
                        boxes[bi] = Box(x, y, w, h)
                        continue
                raise _box_error(b, f"clips[{ci}].frames[{fi}].boxes[{bi}]")
        clips.append(Clip(clip_id=row["id"], tag=row["tag"], frames=row["frames"], gt=gt))
    return clips


def load_dataset(root) -> Dataset:
    """Read ``manifest.json``, the one file opened here, and check it whole.

    A problem raises ``ValueError`` naming the file and the key path, such as
    ``clips[3].frames[1].boxes[0].w``. Frame files are not opened until
    ``load_frame``.
    """
    root = Path(root)
    try:
        with open(root / MANIFEST_NAME) as fp:
            manifest = json.load(fp)
    except FileNotFoundError:
        raise FileNotFoundError(f"{root} has no {MANIFEST_NAME}") from None
    except ValueError as e:
        raise ValueError(f"{MANIFEST_NAME}: bad JSON ({e})") from None
    if type(manifest) is not dict:
        raise _manifest_error("<root>", f"must be an object, got {type(manifest).__name__}")
    if manifest.get("schema_version") != MANIFEST_SCHEMA:
        raise ValueError(f"{MANIFEST_NAME}: unsupported dataset schema {manifest.get('schema_version')!r}, "
                         f"expected {MANIFEST_SCHEMA}; regenerate the dataset with `crossfuse gen`")
    try:
        spec = _spec_from_dict(manifest.get("spec"))
    except ValueError as e:
        raise ValueError(f"{MANIFEST_NAME}: {e}") from None
    return Dataset(root=root, spec=spec, clips=_read_clips(manifest.get("clips")))
