"""Float64 numpy re-implementation of the fusion stack, one frame at a time.

Written from the equations documented in ``crossfuse.fusion``,
``crossfuse.ssm``, ``crossfuse.interleave`` and ``crossfuse.temporal``, not
from their code: no autodiff engine, no op registry, no cached layouts. It
reads parameters only through ``FusionModel.named_parameters()`` and the
stage geometry through ``FusionModel.configs``, so the benchmark can check the
program's fused pyramids against it.

Per stage and frame, for maps (H, W, C) and each head k with patch size S:

    e_m   = x_m + pos + emb_m                         (m = rgb, thermal)
    p_m   = space_to_depth(e_m, S)                    channel (si*S + sj)*C + c
    z     = serpentine interleave of (p_rgb, p_thm)   rows top to bottom; even
            columns left to right, then odd columns right to left; RGB token
            then thermal token per pixel
    x     = [carry_k ; z @ w_in]                      carry prepended
    x     = block(x) per layer                        pre-norm gated SSM block
    carry_k' = x[-1]                                  next frame's carry
    d     = x[1:] @ out_w + out_b, split back to (d_rgb, d_thm)
    u_m,k = depth_to_space(p_m + d_m, S)
    out_m = x_m + concat_k(u_m,k) @ agg_w + agg_b
"""

from __future__ import annotations

import numpy as np


def _silu(x):
    return x * 0.5 * (1.0 + np.tanh(0.5 * x))  # x * sigmoid(x), overflow-free


def _softplus(x):
    return np.logaddexp(0.0, x)


def _layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _causal_conv(a, kernel, bias):
    """out[t] = bias + sum over lag of kernel[K-1-lag] * a[t-lag], a[<0] = 0."""
    length = a.shape[0]
    width = kernel.shape[0]
    out = np.repeat(bias[None, :], length, axis=0)
    for lag in range(min(width, length)):
        out[lag:] += kernel[width - 1 - lag] * a[:length - lag]
    return out


def _selective_scan(s, P, pre):
    """Zero-order hold on A, Euler step on B, state starting at zero:

    h_t = exp(delta_t A) * h_{t-1} + (delta_t * s_t) B_t,   y_t = sum_n w_out * h_t
    """
    a = -np.exp(P[f"{pre}.A_log"])                                        # (E, N)
    b_seq = s @ P[f"{pre}.w_b"]                                           # (L, N)
    delta = _softplus(s @ P[f"{pre}.dt_down"] @ P[f"{pre}.dt_up"] + P[f"{pre}.dt_bias"])  # (L, E)
    w_out = P[f"{pre}.w_out"]
    h = np.zeros_like(a)
    y = np.empty_like(s)
    for t in range(s.shape[0]):
        h = np.exp(delta[t][:, None] * a) * h + (delta[t] * s[t])[:, None] * b_seq[t][None, :]
        y[t] = (h * w_out).sum(axis=-1)
    return y


def _block(u, P, pre):
    n = _layer_norm(u, P[f"{pre}.norm.gamma"], P[f"{pre}.norm.beta"])
    c = _causal_conv(n @ P[f"{pre}.in_proj.w"], P[f"{pre}.conv.w"], P[f"{pre}.conv.b"])
    y = _selective_scan(_silu(c), P, f"{pre}.ssm")
    g = _silu(n @ P[f"{pre}.gate.w"])
    return u + (y * g) @ P[f"{pre}.out_proj.w"] + P[f"{pre}.out_proj.b"]


def _space_to_depth(x, s):
    h, w, c = x.shape
    out = np.empty((h // s, w // s, s * s * c))
    for si in range(s):
        for sj in range(s):
            q = si * s + sj
            out[:, :, q * c:(q + 1) * c] = x[si::s, sj::s, :]
    return out


def _depth_to_space(x, s):
    hb, wb, packed = x.shape
    c = packed // (s * s)
    out = np.empty((hb * s, wb * s, c))
    for si in range(s):
        for sj in range(s):
            q = si * s + sj
            out[si::s, sj::s, :] = x[:, :, q * c:(q + 1) * c]
    return out


def _serpentine(rows, cols):
    """Visited (row, col) index arrays, one entry per pixel."""
    col_order = list(range(0, cols, 2)) + sorted(range(1, cols, 2), reverse=True)
    rr = np.repeat(np.arange(rows), cols)
    cc = np.tile(np.array(col_order), rows)
    return rr, cc


def _stage(P, cfg, rgb, thm, carries):
    name = cfg.name
    e_rgb = rgb + P[f"{name}.emb.pos"] + P[f"{name}.emb.rgb"]
    e_thm = thm + P[f"{name}.emb.pos"] + P[f"{name}.emb.thermal"]
    up_rgb, up_thm, new_carries = [], [], []
    for k, s in enumerate(cfg.patch_sizes):
        head = f"{name}.head{k}"
        p_rgb, p_thm = _space_to_depth(e_rgb, s), _space_to_depth(e_thm, s)
        rr, cc = _serpentine(p_rgb.shape[0], p_rgb.shape[1])
        z = np.empty((2 * rr.size, p_rgb.shape[2]))
        z[0::2] = p_rgb[rr, cc]
        z[1::2] = p_thm[rr, cc]
        x = np.concatenate([carries[k], z @ P[f"{head}.w_in"]], axis=0)
        for layer in range(cfg.layers):
            x = _block(x, P, f"{head}.layer{layer}")
        new_carries.append(x[-1:])
        d = x[1:] @ P[f"{head}.out_linear.w"] + P[f"{head}.out_linear.b"]
        d_rgb, d_thm = np.empty_like(p_rgb), np.empty_like(p_thm)
        d_rgb[rr, cc] = d[0::2]
        d_thm[rr, cc] = d[1::2]
        up_rgb.append(_depth_to_space(p_rgb + d_rgb, s))
        up_thm.append(_depth_to_space(p_thm + d_thm, s))
    agg_w, agg_b = P[f"{name}.agg.w"], P[f"{name}.agg.b"]
    out_rgb = rgb + np.concatenate(up_rgb, axis=2) @ agg_w + agg_b
    out_thm = thm + np.concatenate(up_thm, axis=2) @ agg_w + agg_b
    return out_rgb, out_thm, new_carries


def fuse_stream(fusion_model, pyramids):
    """Fuse a clip of feature pyramids, carries threaded from zero.

    ``pyramids`` is a list of {stage: (rgb, thermal)} numpy maps; returns the
    same structure per frame, in float64.
    """
    P = {k: np.asarray(v.data, dtype=np.float64) for k, v in fusion_model.named_parameters().items()}
    configs = fusion_model.configs
    carries = {cfg.name: [np.zeros((1, cfg.channels // cfg.heads))] * cfg.heads for cfg in configs}
    out = []
    for pyramid in pyramids:
        fused = {}
        for cfg in configs:
            rgb, thm = (np.asarray(a, dtype=np.float64) for a in pyramid[cfg.name])
            o_rgb, o_thm, carries[cfg.name] = _stage(P, cfg, rgb, thm, carries[cfg.name])
            fused[cfg.name] = (o_rgb, o_thm)
        out.append(fused)
    return out


def max_scaled_error(program, reference):
    """Largest |program - reference| over all maps, divided by max(1, max |reference|)."""
    worst = 0.0
    for frame_p, frame_r in zip(program, reference):
        for stage, (r_rgb, r_thm) in frame_r.items():
            for got, want in zip(frame_p[stage], (r_rgb, r_thm)):
                scale = max(1.0, float(np.abs(want).max()))
                worst = max(worst, float(np.abs(np.asarray(got, dtype=np.float64) - want).max()) / scale)
    return worst
