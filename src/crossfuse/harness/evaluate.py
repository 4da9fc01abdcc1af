"""Evaluation: decode dense predictions to boxes, score with LAMR and recall.

Decoding inverts the training targets. For a cell (i, j) at stage stride s
with per-stage anchor a:

    cx = (j + sigmoid(tx)) * s      w = a * exp(tw)
    cy = (i + sigmoid(ty)) * s      h = a * exp(th)
    conf = sigmoid(objectness)

Cells below the confidence floor are dropped before matching. Temporal
context is controlled by ``reset_every``: None streams each full clip,
1 scores every frame independently.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import STAGE_NAMES, STAGE_STRIDES, config_model_hash, normalize_config
from ..metrics import (
    SETTING_ALL,
    SETTING_REASONABLE,
    SETTING_REASONABLE_SMALL,
    Box,
    EvalSetting,
    collect_matches,
    lamr,
    mr_fppi_curve,
    recall,
    write_boxes_jsonl,
)
from ..tensor import Tensor, _sigmoid_np
from ..tensorio import load_checkpoint
from .model import DetectionModel
from .synthetic import Dataset

__all__ = ["evaluate", "decode_frame", "load_detector", "DEFAULT_SETTINGS"]

DEFAULT_SETTINGS = (SETTING_ALL, SETTING_REASONABLE, SETTING_REASONABLE_SMALL)


def decode_frame(preds: dict[str, Tensor], cfg: dict, confidence_floor: float) -> list[Box]:
    """Turn one frame's per-stage prediction maps into detection boxes."""
    anchors = cfg["model"]["anchors"]
    boxes: list[Box] = []
    for stage in STAGE_NAMES:
        p = preds[stage].data
        stride = STAGE_STRIDES[stage]
        anchor = float(anchors[stage])
        conf = _sigmoid_np(p[:, :, 4])
        keep = np.argwhere(conf >= confidence_floor)
        if keep.size == 0:
            continue
        txy = _sigmoid_np(p[:, :, 0:2])
        wh = anchor * np.exp(np.clip(p[:, :, 2:4], -10.0, 10.0))
        for i, j in keep:
            cx = (j + txy[i, j, 0]) * stride
            cy = (i + txy[i, j, 1]) * stride
            w = float(wh[i, j, 0])
            h = float(wh[i, j, 1])
            boxes.append(Box(x=float(cx - w / 2), y=float(cy - h / 2), w=w, h=h,
                             confidence=float(conf[i, j])))
    return boxes


def load_detector(checkpoint_dir, cfg: Optional[dict] = None) -> tuple[DetectionModel, dict]:
    """Rebuild a model from a training checkpoint.

    The stored config must pass ``normalize_config`` and hash to the stored
    ``config_hash``. When ``cfg`` is given it must hash to the same model
    geometry and is used in place of the stored config.
    """
    tensors, meta = load_checkpoint(checkpoint_dir)
    if meta.get("kind") != "detection_checkpoint":
        raise ValueError(f"{checkpoint_dir} is not a detection checkpoint "
                         f"(kind={meta.get('kind')!r})")
    for key, kind in (("config", dict), ("config_hash", str)):
        if not isinstance(meta.get(key), kind):
            raise ValueError(f"{checkpoint_dir}: detection checkpoint key {key!r} must be a {kind.__name__}, "
                             f"got {meta.get(key)!r:.100}")
    try:
        stored_cfg = normalize_config(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{checkpoint_dir}: detection checkpoint key 'config' is not a valid config: "
                         f"{type(exc).__name__}: {exc}") from exc
    if config_model_hash(stored_cfg) != meta["config_hash"]:
        raise ValueError(f"{checkpoint_dir}: detection checkpoint key 'config' does not hash to its "
                         "'config_hash'; the stored config changed after training")
    if cfg is not None:
        want, got = config_model_hash(cfg), meta["config_hash"]
        if want != got:
            raise ValueError(f"config hash {want[:12]} does not match checkpoint {got[:12]}; "
                             "the checkpoint was trained with different model geometry")
        stored_cfg = cfg
    model = DetectionModel(stored_cfg)
    known = model.named_parameters()
    missing = set(known) - set(tensors)
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {sorted(missing)[:5]}")
    unknown = set(tensors) - set(known)
    if unknown:
        raise ValueError(f"checkpoint holds tensors the model does not have: {sorted(unknown)[:5]}")
    model.replace_parameters({k: tensors[k] for k in known})
    return model, meta


def _summarize(frames: list, settings: Sequence[EvalSetting], iou_threshold: float,
               with_curve: bool) -> dict:
    out = {}
    for setting in settings:
        summary = collect_matches(frames, setting, iou_threshold)
        if summary.n_gt == 0:
            out[setting.name] = {"lamr": None, "recall": None, "n_gt": 0,
                                 "n_frames": summary.n_frames}
            continue
        curve = mr_fppi_curve(summary.records, summary.n_gt, summary.n_frames)
        row = {
            "lamr": lamr(curve),
            "recall": recall(summary.records, summary.n_gt),
            "n_gt": summary.n_gt,
            "n_frames": summary.n_frames,
        }
        if with_curve:
            row["curve"] = [[fppi, mr] for fppi, mr in curve]
        out[setting.name] = row
    return out


def evaluate(
    model: DetectionModel,
    dataset: Dataset,
    reset_every: Optional[int] = None,
    detections_path=None,
) -> dict:
    """Score a model on a dataset; returns the report dict.

    The report carries overall numbers per ``DEFAULT_SETTINGS`` entry plus the same
    breakdown per clip tag (day/night). ``detections_path`` optionally dumps
    every decoded box as JSONL for offline rescoring.
    """
    floor = model.cfg["eval"]["confidence_floor"]
    iou_threshold = model.cfg["eval"]["iou_threshold"]
    frames_all: list[tuple[list[Box], list[Box]]] = []
    frames_by_tag: dict[str, list] = {}
    dets_by_frame: dict[str, list[Box]] = {}

    for clip in dataset.clips:
        inputs = [dataset.load_frame(f) for f in clip.frames]
        preds = model.forward_frames(inputs, reset_every=reset_every)
        for frame, pred in zip(clip.frames, preds):
            frame_id = frame["frame_id"]
            dets = decode_frame(pred, model.cfg, floor)
            gts = clip.gt[frame_id]
            frames_all.append((dets, gts))
            frames_by_tag.setdefault(clip.tag, []).append((dets, gts))
            dets_by_frame[frame_id] = dets

    if detections_path is not None:
        write_boxes_jsonl(detections_path, dets_by_frame)

    report = {
        "reset_every": reset_every,
        "confidence_floor": floor,
        "iou_threshold": iou_threshold,
        "n_clips": len(dataset.clips),
        "n_frames": len(frames_all),
        "settings": _summarize(frames_all, DEFAULT_SETTINGS, iou_threshold, with_curve=True),
        "by_tag": {
            tag: _summarize(rows, DEFAULT_SETTINGS, iou_threshold, with_curve=False)
            for tag, rows in sorted(frames_by_tag.items())
        },
    }
    return report
