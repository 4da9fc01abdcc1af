"""The chains of core ops that the fused ``mamba_block`` and ``detection_loss``
ops replace, kept as bit-for-bit oracles for ``test_ssm`` and ``test_harness``.

Each function records one tape node per core op, exactly as the program did
before the ops were fused, so the fused forwards and adjoints can be checked
against it bit for bit.
"""

import numpy as np

from crossfuse import ssm as ssm_mod
from crossfuse import tensor as T
from crossfuse.config import STAGE_NAMES, STAGE_STRIDES
from crossfuse.harness.train import build_targets, huber
from crossfuse.tensor import Tensor


def composed_block(block: ssm_mod.MambaBlockParams, tokens: Tensor) -> Tensor:
    """``ssm.block_forward`` as ten taped ops."""
    n = T.layer_norm(tokens, block.norm_gamma, block.norm_beta)
    a = T.linear(n, block.in_w)
    c = T.conv1d_causal(a, block.conv_k, block.conv_b)
    s = T.silu(c)
    y = ssm_mod._scan(block.ssm, s, None, final_state=False)
    g = T.silu(T.linear(n, block.gate_w))
    mixed = T.mul(y, g)
    out = T.linear(mixed, block.out_w, block.out_b)
    return T.add(tokens, out)


def _bce_with_logits_mean(logits: Tensor, target: Tensor) -> Tensor:
    # softplus(z) - t*z == -[t*log(sig(z)) + (1-t)*log(1-sig(z))]
    return T.reduce_mean(T.add(T.softplus(logits), T.scale(T.mul(target, logits), -1.0)))


def composed_frame_loss(preds, gts, model, box_weight: float, huber_beta: float) -> Tensor:
    """``train.frame_loss`` as its chain of narrows, elementwise ops and sums."""
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


def composed_loss(model, preds, gts_per_frame) -> Tensor:
    """The mean of ``composed_frame_loss`` over a clip's prediction maps."""
    train_cfg = model.cfg["train"]
    total = None
    for pred, gts in zip(preds, gts_per_frame):
        fl = composed_frame_loss(pred, gts, model, train_cfg["box_weight"], train_cfg["huber_beta"])
        total = fl if total is None else T.add(total, fl)
    return T.scale(total, 1.0 / len(preds))
