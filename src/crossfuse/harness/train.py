"""Training loop: BCE objectness + smooth-L1 box regression, SGD + momentum.

Each step consumes one clip. For the temporal fuser the whole clip is one
recorded graph, so gradients flow through the carry tokens across frames.
A non-finite loss aborts immediately and dumps diagnostics next to the
checkpoint instead of silently training on garbage.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .. import tensor as T
from ..config import STAGE_NAMES, STAGE_STRIDES, config_model_hash
from ..metrics import Box
from ..tensor import Graph, Tensor, backward, register_op
from ..temporal import NonFiniteFrameError
from ..tensorio import save_checkpoint
from .model import DetectionModel
from .synthetic import Dataset

__all__ = ["train", "TrainAbort", "SGD", "clip_loss", "build_targets", "huber"]


class TrainAbort(RuntimeError):
    """Raised when the loss stops being finite; diagnostics on disk."""


# Smooth-L1 as one fused elementwise op: quadratic inside |x| < beta,
# linear outside, with the matching clipped-slope gradient.
def _huber_fwd(x, beta=1.0):
    if beta <= 0:
        raise ValueError(f"huber beta must be positive, got {beta}")
    ax = np.abs(x)
    out = np.where(ax < beta, 0.5 * x * x / beta, ax - 0.5 * beta)
    return out.astype(x.dtype), {"x": x, "beta": beta}


def _huber_bwd(ctx, g):
    x, beta = ctx["x"], ctx["beta"]
    return (g * np.clip(x / beta, -1.0, 1.0),)


register_op("huber", _huber_fwd, _huber_bwd)


def huber(x: Tensor, beta: float = 1.0) -> Tensor:
    return T.op_forward("huber", (x,), beta=beta)


def build_targets(
    boxes: list[Box],
    stage_shape: tuple[int, int],
    stride: int,
    anchor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense targets for one stage: objectness map, box map, positive mask.

    A ground-truth box is assigned to the cell containing its center. Box
    targets are (frac_x, frac_y, log(w/anchor), log(h/anchor)).
    """
    hs, ws = stage_shape
    obj = np.zeros((hs, ws, 1), dtype=np.float32)
    box = np.zeros((hs, ws, 4), dtype=np.float32)
    mask = np.zeros((hs, ws, 1), dtype=np.float32)
    for b in boxes:
        cx = b.x + b.w / 2.0
        cy = b.y + b.h / 2.0
        j = min(max(int(cx // stride), 0), ws - 1)
        i = min(max(int(cy // stride), 0), hs - 1)
        obj[i, j, 0] = 1.0
        mask[i, j, 0] = 1.0
        box[i, j, 0] = cx / stride - j
        box[i, j, 1] = cy / stride - i
        box[i, j, 2] = math.log(max(b.w, 1e-3) / anchor)
        box[i, j, 3] = math.log(max(b.h, 1e-3) / anchor)
    return obj, box, mask


def _bce_with_logits_mean(logits: Tensor, target: Tensor) -> Tensor:
    # softplus(z) - t*z == -[t*log(sig(z)) + (1-t)*log(1-sig(z))]
    return T.reduce_mean(T.add(T.softplus(logits), T.scale(T.mul(target, logits), -1.0)))


def frame_loss(
    preds: dict[str, Tensor],
    gts: list[Box],
    model: DetectionModel,
    box_weight: float,
    huber_beta: float,
) -> Tensor:
    anchors = model.cfg["model"]["anchors"]
    terms = []
    for stage in STAGE_NAMES:
        p = preds[stage]
        hs, ws = model.stage_shape(stage)
        obj_t, box_t, mask = build_targets(gts, (hs, ws), STAGE_STRIDES[stage], anchors[stage])
        n_pos = float(mask.sum())

        txy = T.narrow(p, 2, 0, 2)
        twh = T.narrow(p, 2, 2, 2)
        obj = T.narrow(p, 2, 4, 1)

        obj_loss = _bce_with_logits_mean(obj, Tensor(obj_t))
        terms.append(obj_loss)
        if n_pos > 0:
            mask2 = Tensor(np.repeat(mask, 2, axis=2))
            d_xy = T.add(T.sigmoid(txy), Tensor(-box_t[:, :, 0:2]))
            d_wh = T.add(twh, Tensor(-box_t[:, :, 2:4]))
            box_sum = T.add(
                T.reduce_sum(T.mul(huber(d_xy, huber_beta), mask2)),
                T.reduce_sum(T.mul(huber(d_wh, huber_beta), mask2)),
            )
            terms.append(T.scale(box_sum, box_weight / n_pos))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


def clip_loss(model: DetectionModel, frames, gts_per_frame, reset_every=None) -> Tensor:
    """Mean per-frame loss over one clip (one recorded graph)."""
    preds = model.forward_frames(frames, reset_every=reset_every)
    total = None
    for pred, gts in zip(preds, gts_per_frame):
        fl = frame_loss(pred, gts, model, model.cfg["train"]["box_weight"], model.cfg["train"]["huber_beta"])
        total = fl if total is None else T.add(total, fl)
    return T.scale(total, 1.0 / len(preds))


class SGD:
    """Plain momentum SGD over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, params: dict[str, Tensor], grads: dict[str, Tensor]) -> dict[str, Tensor]:
        out = {}
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            v = self.momentum * self.velocity[name] + g.data
            self.velocity[name] = v
            out[name] = Tensor(p.data - self.lr * v, name=name, trainable=True)
        return out


def train(
    cfg: dict,
    dataset: Dataset,
    out_dir,
    log_every: int = 50,
    quiet: bool = True,
) -> dict:
    """Train one model per the config; returns a summary dict.

    Writes ``out_dir/`` as a checkpoint directory (tensors + index) plus
    ``loss_log.jsonl``. The clip visit order and all initialization derive
    from ``cfg['seed']``, so identical inputs give identical checkpoints.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = DetectionModel(cfg)
    steps = cfg["train"]["steps"]
    order_rng = np.random.default_rng(cfg["seed"] + 1)

    opt = SGD(model.named_parameters(), lr=cfg["train"]["lr"], momentum=cfg["train"]["momentum"])
    log: list[dict] = []
    clip_ids = [c.clip_id for c in dataset.clips]
    order: list[int] = []

    for step in range(1, steps + 1):
        if not order:
            order = list(order_rng.permutation(len(dataset.clips)))
        clip = dataset.clips[order.pop(0)]
        frames = [dataset.load_frame(f) for f in clip.frames]
        gts = [clip.gt[f["frame_id"]] for f in clip.frames]

        params = model.named_parameters()
        try:
            with Graph() as graph:
                loss = clip_loss(model, frames, gts)
            loss_value = loss.item()
        except NonFiniteFrameError:
            loss_value = math.nan  # the features diverged before the loss did
        if not math.isfinite(loss_value):
            diag = {
                "step": step,
                "clip": clip.clip_id,
                "loss": repr(loss_value),
                "param_norms": {k: float(np.linalg.norm(v.data)) for k, v in params.items()},
            }
            with open(out / "diagnostics.json", "w") as fp:
                json.dump(diag, fp, indent=2, sort_keys=True)
            raise TrainAbort(f"non-finite loss {loss_value!r} at step {step} (clip {clip.clip_id}); "
                             f"diagnostics written to {out / 'diagnostics.json'}")
        grads = backward(graph, loss, parameters=params.values())
        model.replace_parameters(opt.step(params, grads))

        log.append({"step": step, "loss": loss_value, "clip": clip.clip_id})
        if not quiet and (step == 1 or step % log_every == 0):
            print(f"step {step:5d}  loss {loss_value:.5f}")

    with open(out / "loss_log.jsonl", "w") as fp:
        for row in log:
            fp.write(json.dumps(row, sort_keys=True) + "\n")
    meta = {
        "kind": "detection_checkpoint",
        "config": cfg,
        "config_hash": config_model_hash(cfg),
        "steps": steps,
        "final_loss": log[-1]["loss"] if log else None,
        "clips": clip_ids,
    }
    save_checkpoint(out, model.named_parameters(), metadata=meta)
    return {
        "checkpoint": str(out),
        "steps": steps,
        "first_loss": log[0]["loss"] if log else None,
        "final_loss": log[-1]["loss"] if log else None,
    }
