"""Toy detection model: strided patch backbone, plug-in fuser, dense heads.

Every fuser runs through the same pipeline; swapping the fuser changes only
the step between backbone pyramids and detection heads:

    none-rgb     keep RGB features, zero the thermal branch
    none-thermal keep thermal features, zero the RGB branch
    feature-add  broadcast the elementwise sum to both branches
    mambast      the spatial-temporal fusion stack with carry tokens

Each backbone stage is a non-overlapping strided conv written as
space-to-depth plus a pointwise linear, followed by silu. Heads are
pointwise linear maps producing (H_s, W_s, 5) per stage: box offsets
(tx, ty, tw, th) and an objectness logit.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Optional, Sequence

import numpy as np

from .. import tensor as T
from ..config import backbone_widths, stage_configs_from, FUSER_NAMES, STAGE_NAMES, STAGE_STRIDES
from ..interleave import patch
from ..temporal import FeaturePair, FusionModel, build_model, fuse_clip, swap_parameters, walk_parameters
from ..tensor import ShapeError, Tensor, parameter

__all__ = ["DetectionModel", "FUSER_NAMES", "PRED_CHANNELS"]

PRED_CHANNELS = 5  # tx, ty, tw, th, objectness

# Backbone reduction per stage: each stage patches the one before it (f1 the
# image, at stride 1) by the ratio of their strides.
_STAGE_PATCH = {name: stride // prev for name, (prev, stride) in
                zip(STAGE_NAMES, pairwise([1] + [STAGE_STRIDES[s] for s in STAGE_NAMES]))}
_MODALITY_CHANNELS = {"rgb": 3, "thermal": 1}


class DetectionModel:
    """Backbone + optional fusion stack + per-stage detection heads."""

    def __init__(self, cfg: dict):
        if cfg["fuser"] not in FUSER_NAMES:
            raise ValueError(f"unknown fuser {cfg['fuser']!r}, expected one of {FUSER_NAMES}")
        self.cfg = cfg
        self.fuser = cfg["fuser"]
        self.widths = backbone_widths(cfg)
        rng = np.random.default_rng(cfg["seed"])

        self.backbone: dict[tuple[str, str], dict[str, Tensor]] = {}
        for modality in ("rgb", "thermal"):
            in_ch = _MODALITY_CHANNELS[modality]
            for stage in STAGE_NAMES:
                s = _STAGE_PATCH[stage]
                out_ch = self.widths[stage]
                fan_in = in_ch * s * s
                w = rng.normal(0.0, fan_in ** -0.5, size=(fan_in, out_ch)).astype(np.float32)
                b = np.zeros(out_ch, dtype=np.float32)
                prefix = f"backbone.{modality}.{stage}"
                self.backbone[(modality, stage)] = {"w": parameter(w, f"{prefix}.w"), "b": parameter(b, f"{prefix}.b")}
                in_ch = out_ch

        self.fusion: Optional[FusionModel] = None
        if self.fuser == "mambast":
            self.fusion = build_model(stage_configs_from(cfg), seed=cfg["seed"])

        self.heads: dict[str, dict[str, Tensor]] = {}
        for stage in STAGE_NAMES:
            c = self.widths[stage]
            w = rng.normal(0.0, c ** -0.5, size=(c, PRED_CHANNELS)).astype(np.float32)
            b = np.zeros(PRED_CHANNELS, dtype=np.float32)
            self.heads[stage] = {"w": parameter(w, f"head.{stage}.w"), "b": parameter(b, f"head.{stage}.b")}

    # -- parameters -----------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        return {t.name: t for _, _, t in walk_parameters([self.backbone, self.fusion, self.heads])}

    def replace_parameters(self, updated: dict[str, Tensor]) -> None:
        """Swap parameter tensors by name; see ``temporal.swap_parameters``."""
        swap_parameters([self.backbone, self.fusion, self.heads], updated)

    # -- forward --------------------------------------------------------

    def backbone_forward(self, rgb_img: Tensor, thm_img: Tensor) -> dict[str, FeaturePair]:
        h = self.cfg["data"]["height"]
        w = self.cfg["data"]["width"]
        if rgb_img.shape != (h, w, 3):
            raise ShapeError(f"rgb frame shape {rgb_img.shape} != {(h, w, 3)}")
        if thm_img.shape != (h, w, 1):
            raise ShapeError(f"thermal frame shape {thm_img.shape} != {(h, w, 1)}")
        feats = {}
        for modality, img in (("rgb", rgb_img), ("thermal", thm_img)):
            x = img
            for stage in STAGE_NAMES:
                p = self.backbone[(modality, stage)]
                x = T.silu(T.linear(patch(x, _STAGE_PATCH[stage]), p["w"], p["b"]))
                feats[(modality, stage)] = x
        return {
            stage: FeaturePair(stage=stage, rgb=feats[("rgb", stage)], thermal=feats[("thermal", stage)])
            for stage in STAGE_NAMES
        }

    def _plain_fuse(self, pyramid: dict[str, FeaturePair]) -> dict[str, FeaturePair]:
        out = {}
        for stage, pair in pyramid.items():
            if self.fuser == "feature-add":
                s = T.add(pair.rgb, pair.thermal)
                out[stage] = FeaturePair(stage=stage, rgb=s, thermal=s)
            elif self.fuser == "none-rgb":
                blank = Tensor(np.zeros(pair.thermal.shape, np.float32))
                out[stage] = FeaturePair(stage=stage, rgb=pair.rgb, thermal=blank)
            elif self.fuser == "none-thermal":
                blank = Tensor(np.zeros(pair.rgb.shape, np.float32))
                out[stage] = FeaturePair(stage=stage, rgb=blank, thermal=pair.thermal)
            else:
                raise ValueError(f"_plain_fuse called with fuser {self.fuser!r}")
        return out

    def fuse(self, pyramids: list[dict[str, FeaturePair]], reset_every: Optional[int] = None) -> list[dict[str, FeaturePair]]:
        """Apply the configured fuser to a clip's pyramids.

        ``reset_every=n`` chops the clip into independent windows of n
        frames before temporal fusion (n=1 disables temporal context);
        None fuses the whole clip as one stream. Stateless fusers ignore it.
        """
        if self.fuser != "mambast":
            return [self._plain_fuse(p) for p in pyramids]
        assert self.fusion is not None
        if reset_every is None or reset_every >= len(pyramids):
            return fuse_clip(self.fusion, pyramids)
        if reset_every < 1:
            raise ValueError(f"reset_every must be >= 1, got {reset_every}")
        fused: list[dict[str, FeaturePair]] = []
        for start in range(0, len(pyramids), reset_every):
            fused.extend(fuse_clip(self.fusion, pyramids[start:start + reset_every]))
        return fused

    def head_forward(self, pyramid: dict[str, FeaturePair]) -> dict[str, Tensor]:
        preds = {}
        for stage in STAGE_NAMES:
            pair = pyramid[stage]
            merged = T.add(pair.rgb, pair.thermal)
            p = self.heads[stage]
            preds[stage] = T.linear(merged, p["w"], p["b"])
        return preds

    def forward_frames(
        self,
        frames: Sequence[tuple[Tensor, Tensor]],
        reset_every: Optional[int] = None,
    ) -> list[dict[str, Tensor]]:
        """Full pipeline over a clip: backbone, fuser, heads, per frame."""
        pyramids = [self.backbone_forward(r, t) for r, t in frames]
        fused = self.fuse(pyramids, reset_every=reset_every)
        return [self.head_forward(p) for p in fused]

    def stage_shape(self, stage: str) -> tuple[int, int]:
        stride = STAGE_STRIDES[stage]
        return self.cfg["data"]["height"] // stride, self.cfg["data"]["width"] // stride
