"""Training loop: BCE objectness + smooth-L1 box regression, SGD + momentum.

Each step consumes one clip. For the temporal fuser the whole clip is one
recorded graph, so gradients flow through the carry tokens across frames.
The clip's loss is one ``detection_loss`` op on its prediction maps.
A non-finite loss aborts immediately and dumps diagnostics next to the
checkpoint instead of silently training on garbage.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .. import tensor as T
from ..config import STAGE_NAMES, STAGE_STRIDES, config_model_hash
from ..metrics import Box
from ..tensor import Graph, ShapeError, Tensor, backward, register_op
from ..temporal import NonFiniteFrameError
from ..tensorio import save_checkpoint
from .model import PRED_CHANNELS, DetectionModel
from .synthetic import Dataset

__all__ = ["train", "TrainAbort", "SGD", "clip_loss", "build_targets"]


LOSS_OP = "detection_loss"


class TrainAbort(RuntimeError):
    """Raised when the loss stops being finite; diagnostics on disk."""


# Smooth-L1 kernel: quadratic inside |x| < beta, linear outside, with the
# matching clipped-slope gradient.
def _huber_fwd(x, beta=1.0):
    if beta <= 0:
        raise ValueError(f"huber beta must be positive, got {beta}")
    ax = np.abs(x)
    out = np.where(ax < beta, 0.5 * x * x / beta, ax - 0.5 * beta)
    return out.astype(x.dtype), {"x": x, "beta": beta}


def _huber_bwd(ctx, g):
    x, beta = ctx["x"], ctx["beta"]
    return (g * np.clip(x / beta, -1.0, 1.0),)


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


def _map_loss_fwd(p, obj_t, box_t, mask, box_weight, beta):
    """One prediction map's loss terms: objectness, then boxes if it has any.

    The objectness term is mean(softplus(obj) - obj_t * obj); with n_pos
    boxes the box term is box_weight / n_pos times the masked huber sums of
    sigmoid(txy) - xy targets and twh - wh targets.
    """
    txy, twh, obj = (np.ascontiguousarray(p[:, :, a:b]) for a, b in ((0, 2), (2, 4), (4, 5)))
    sp_obj, _ = T._softplus_fwd(obj)
    obj_loss = (sp_obj - obj_t * obj).mean()
    n_pos = float(mask.sum())
    ctx = {"shape": p.shape, "obj": obj, "obj_t": obj_t, "n": obj.size, "n_pos": n_pos}
    if n_pos == 0:
        return [obj_loss], ctx
    sig = T._sigmoid_np(txy)
    h_xy, ctx["h_xy"] = _huber_fwd(sig - box_t[:, :, 0:2], beta)
    h_wh, ctx["h_wh"] = _huber_fwd(twh - box_t[:, :, 2:4], beta)
    mask2 = np.repeat(mask, 2, axis=2)
    box_sum = (h_xy * mask2).sum() + (h_wh * mask2).sum()
    ctx.update(sig=sig, mask2=mask2, scale=np.asarray(box_weight / n_pos, dtype=box_sum.dtype))
    return [obj_loss, box_sum * ctx["scale"]], ctx


def _map_loss_bwd(ctx, g):
    """Gradient of one map, from the gradient g of each of its terms."""
    g_s = g / ctx["n"]                                   # the mean's adjoint, one value
    g_obj = -g_s * ctx["obj_t"] + g_s * T._sigmoid_np(ctx["obj"])
    g_p = np.zeros(ctx["shape"], dtype=g_obj.dtype)
    g_p[:, :, 4:5] = g_obj
    if ctx["n_pos"] == 0:
        return g_p
    g_masked = (g * ctx["scale"]) * ctx["mask2"]         # both huber sums' adjoint
    g_p[:, :, 2:4], = _huber_bwd(ctx["h_wh"], g_masked)
    g_z = _huber_bwd(ctx["h_xy"], g_masked)[0] * ctx["sig"]
    g_p[:, :, 0:2] = g_z - g_z * ctx["sig"]
    return g_p


def _loss_fwd(*maps, targets=(), box_weight=1.0, huber_beta=1.0):
    """Mean over the frames of the per-frame detection loss, as one op.

    ``maps`` are the prediction maps frame by frame, each frame's stages in
    ``STAGE_NAMES`` order, and ``targets`` their (objectness, box, mask)
    target maps. A frame's loss is its terms summed in order, and the frame
    losses are summed in order before the mean.
    """
    if not maps or len(maps) != len(targets) or len(maps) % len(STAGE_NAMES):
        raise ShapeError(f"detection_loss: {len(maps)} maps for {len(targets)} targets "
                         f"and {len(STAGE_NAMES)} stages per frame")
    ctxs, frame_losses = [], []
    for i, (p, (obj_t, box_t, mask)) in enumerate(zip(maps, targets)):
        if p.shape != obj_t.shape[:2] + (PRED_CHANNELS,):
            raise ShapeError(f"detection_loss: map shape {p.shape}, targets need "
                             f"{obj_t.shape[:2] + (PRED_CHANNELS,)}")
        terms, ctx = _map_loss_fwd(p, obj_t, box_t, mask, box_weight, huber_beta)
        ctxs.append(ctx)
        if i % len(STAGE_NAMES) == 0:  # a frame's first map starts its sum
            frame_losses.append(terms.pop(0))
        for term in terms:
            frame_losses[-1] = frame_losses[-1] + term
    total = frame_losses[0]
    for fl in frame_losses[1:]:
        total = total + fl
    mean = np.asarray(1.0 / len(frame_losses), dtype=total.dtype)
    return total * mean, {"maps": ctxs, "mean": mean}


def _loss_bwd(ctx, g):
    g_term = g * ctx["mean"]
    return tuple(_map_loss_bwd(c, g_term) for c in ctx["maps"])


register_op(LOSS_OP, _loss_fwd, _loss_bwd)


def _loss(model: DetectionModel, preds, gts_per_frame, box_weight: float, huber_beta: float) -> Tensor:
    """The loss op on the prediction maps of ``preds`` and the targets of their boxes."""
    anchors = model.cfg["model"]["anchors"]
    maps, targets = [], []
    for pred, gts in zip(preds, gts_per_frame):
        for stage in STAGE_NAMES:
            maps.append(pred[stage])
            targets.append(build_targets(gts, model.stage_shape(stage), STAGE_STRIDES[stage], anchors[stage]))
    return T.op_forward(LOSS_OP, maps, targets=tuple(targets),
                        box_weight=box_weight, huber_beta=huber_beta)


def clip_loss(model: DetectionModel, frames, gts_per_frame) -> Tensor:
    """Mean per-frame loss over one clip, one op on the clip's prediction maps."""
    preds = model.forward_frames(frames)
    train_cfg = model.cfg["train"]
    return _loss(model, preds, gts_per_frame, train_cfg["box_weight"], train_cfg["huber_beta"])


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
    quiet: bool = True,
) -> dict:
    """Train one model per the config; returns a summary dict.

    Writes ``out_dir/`` as a checkpoint directory (tensors + index) plus
    ``loss_log.jsonl``. The clip visit order and all initialization derive
    from ``cfg['seed']``, so identical inputs give identical checkpoints.
    Unless ``quiet``, the loss is printed at step 1 and every 50th step.
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
        if not quiet and (step == 1 or step % 50 == 0):
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
