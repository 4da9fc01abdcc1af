"""Selective state-space scan and the gated residual blocks built on it.

The continuous system per channel is h'(t) = A h(t) + B x(t), y = W h'(t)
with a diagonal A. Discretization is zero-order hold on A and an Euler step
on B:

    A_bar = exp(delta * A)        (elementwise)
    B_bar = delta * B

Selectivity: B and delta are linear functions of the current token, A and
the output map W are input-independent. A is parameterized as -exp(a_log)
so it stays strictly negative, and delta goes through a softplus so it
stays strictly positive; together these keep |A_bar| < 1 and the recurrence
stable regardless of parameter values.

The whole sequence runs as one kernel, ``_scan_fwd``: the B and delta
projections, the softplus, A = -exp(a_log), the recurrence and the readout
y = sum_n w_out * h in one call, with its adjoint ``_scan_bwd`` written out
by hand. The pair is the whole scan: no helper sits below it, and the
forward hands the adjoint one flat context, the states ``h_all`` among its
entries. Only ``mamba_block`` differentiates the scan. ``scan_sequence`` and
``scan_step`` (the same kernel on a one-token sequence, for streaming
inference) are plain forward calls of it that record nothing, so they refuse
to run while a ``Graph`` records.

A gated residual block is likewise one op, ``mamba_block``: layer norm, the
in-projection, the causal conv, silu, the scan, the silu gate and the
residual output projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import GraphError, ShapeError, Tensor, register_op

__all__ = [
    "SSMParams",
    "SSMState",
    "MambaBlockParams",
    "scan_step",
    "scan_sequence",
    "init_ssm",
    "init_block",
    "block_forward",
    "stack_forward",
    "default_dt_rank",
]

BLOCK_OP = "mamba_block"


def default_dt_rank(dim: int) -> int:
    """Low-rank width of the delta projection, ceil(dim / 16) with a floor of 1."""
    return max(1, math.ceil(dim / 16))


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class SSMParams:
    """Per-channel diagonal SSM with input-dependent B and delta.

    Shapes, for ``channels`` C, ``state_size`` N and delta rank R:

        a_log    (C, N)   A = -exp(a_log)
        w_b      (C, N)   B_t = x_t @ w_b
        dt_down  (C, R)   delta_t = softplus(x_t @ dt_down @ dt_up + dt_bias)
        dt_up    (R, C)
        dt_bias  (C,)
        w_out    (C, N)   y_t[c] = sum_n w_out[c, n] * h_t[c, n]
    """

    a_log: Tensor
    w_b: Tensor
    dt_down: Tensor
    dt_up: Tensor
    dt_bias: Tensor
    w_out: Tensor

    def __post_init__(self):
        c, n = self.a_log.shape
        r = self.dt_down.shape[1] if self.dt_down.ndim == 2 else -1
        checks = {
            "a_log": (self.a_log.shape, (c, n)),
            "w_b": (self.w_b.shape, (c, n)),
            "dt_down": (self.dt_down.shape, (c, r)),
            "dt_up": (self.dt_up.shape, (r, c)),
            "dt_bias": (self.dt_bias.shape, (c,)),
            "w_out": (self.w_out.shape, (c, n)),
        }
        for field, (got, want) in checks.items():
            if got != want:
                raise ShapeError(f"SSMParams.{field}: shape {got}, expected {want}")

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]

    @property
    def state_size(self) -> int:
        return self.a_log.shape[1]


@dataclass
class SSMState:
    """Hidden state h, one (channels, state_size) matrix."""

    h: Tensor

    @classmethod
    def zeros(cls, channels: int, state_size: int) -> "SSMState":
        return cls(Tensor(np.zeros((channels, state_size), dtype=np.float32)))


# ---------------------------------------------------------------------------
# The scan kernels
# ---------------------------------------------------------------------------

def _scan_fwd(x, w_b, dt_down, dt_up, dt_bias, a_log, w_out, state0=None):
    """The whole selective scan as one kernel, y (L, C) from tokens x (L, C).

    Projects B and delta from the tokens, takes A = -exp(a_log), runs the
    recurrence h_t = exp(delta_t A) h_{t-1} + delta_t B_t x_t and reads out
    y = sum_n w_out * h. The states h (L, C, N) are in the context as
    ``ctx["h_all"]``.
    """
    length, channels = x.shape
    if state0 is None:
        state0 = np.zeros((channels, a_log.shape[1]), dtype=x.dtype)
    b_seq, c_b = T._linear_fwd(x, w_b)                  # (L, N)
    low, c_low = T._linear_fwd(x, dt_down)              # (L, R)
    up, c_up = T._linear_fwd(low, dt_up)                # (L, C)
    delta, c_softplus = T._softplus_fwd(up + dt_bias)
    e_a = np.exp(a_log)                                 # A = -e_a, (C, N)
    a = -e_a
    d_a = np.exp(delta[:, :, None] * a[None])              # (L, C, N)
    d_bx = (delta * x)[:, :, None] * b_seq[:, None, :]     # (L, C, N)
    h_all = np.empty((length, channels, a.shape[1]), dtype=x.dtype)
    h = state0
    for d_a_t, d_bx_t, h_t in zip(d_a, d_bx, h_all):
        np.multiply(d_a_t, h, out=h_t)
        np.add(h_t, d_bx_t, out=h_t)
        h = h_t
    y = np.einsum("lcn,cn->lc", h_all, w_out)
    ctx = {"x": x, "b": c_b, "low": c_low, "up": c_up, "softplus": c_softplus, "delta": delta,
           "b_seq": b_seq, "a": a, "e_a": e_a, "state0": state0, "d_a": d_a, "h_all": h_all,
           "w_out": w_out}
    return y, ctx


def _scan_bwd(ctx, g):
    x, delta, b_seq, a = ctx["x"], ctx["delta"], ctx["b_seq"], ctx["a"]
    state0, d_a, h_all = ctx["state0"], ctx["d_a"], ctx["h_all"]
    g_w_out = np.einsum("lc,lcn->cn", g, h_all)
    g_h = g[:, :, None] * ctx["w_out"]
    g_dbx = np.empty_like(d_a)
    acc = np.zeros_like(state0)
    for t in range(x.shape[0] - 1, 0, -1):
        acc = d_a[t] * np.add(acc, g_h[t], out=g_dbx[t])
    np.add(acc, g_h[0], out=g_dbx[0])
    g_da = np.empty_like(d_a)                              # g_dbx times the previous state
    np.multiply(g_dbx[0], state0, out=g_da[0])
    np.multiply(g_dbx[1:], h_all[:-1], out=g_da[1:])
    g_da_da = g_da * d_a
    g_dbx_b = (g_dbx * b_seq[:, None, :]).sum(axis=-1)
    g_delta = (g_da_da * a[None]).sum(axis=-1) + g_dbx_b * x
    g_x = g_dbx_b * delta
    g_b = (g_dbx * (delta * x)[:, :, None]).sum(axis=1)
    g_a = (g_da_da * delta[:, :, None]).sum(axis=0)
    g_pre, = T._softplus_bwd(ctx["softplus"], g_delta)
    g_low, g_dt_up = T._linear_bwd(ctx["up"], g_pre)
    g_x_delta, g_dt_down = T._linear_bwd(ctx["low"], g_low)
    g_x_b, g_w_b = T._linear_bwd(ctx["b"], g_b)
    return ((g_x + g_x_delta) + g_x_b, g_w_b, g_dt_down, g_dt_up, g_pre.sum(axis=0),
            -g_a * ctx["e_a"], g_w_out)


def scan_sequence(params: SSMParams, tokens: Tensor, state0: Optional[SSMState] = None) -> tuple[Tensor, SSMState]:
    """Run the selective scan over a whole token sequence.

    Returns per-token outputs (L, C) and the final hidden state. Identical
    (to float32 roundoff) to folding ``scan_step`` over the sequence. The
    scan runs unrecorded, so calling it while a ``Graph`` records raises
    ``GraphError`` rather than leaving the graph without its gradients.
    """
    if T._tls.stack:
        raise GraphError("scan_sequence: the scan is never recorded; call it outside a Graph")
    if tokens.ndim != 2:
        raise ShapeError(f"scan_sequence: tokens must be rank-2, got shape {tokens.shape}")
    length, channels = tokens.shape
    if length < 1:
        raise ShapeError("scan_sequence: empty sequence")
    if channels != params.channels:
        raise ShapeError(f"scan_sequence: tokens have {channels} channels, params expect {params.channels}")
    if state0 is not None and state0.h.shape != (channels, params.state_size):
        raise ShapeError(f"scan_sequence: state shape {state0.h.shape} != {(channels, params.state_size)}")
    y, ctx = _scan_fwd(tokens.data, params.w_b.data, params.dt_down.data, params.dt_up.data,
                       params.dt_bias.data, params.a_log.data, params.w_out.data,
                       state0=None if state0 is None else state0.h.data)
    # A copy, so the state does not keep the whole (L, C, N) h_all alive.
    return Tensor(y), SSMState(Tensor(ctx["h_all"][-1].copy()))


def scan_step(params: SSMParams, x_t: Tensor, state: SSMState) -> tuple[Tensor, SSMState]:
    """Advance the scan by a single token: ``scan_sequence`` on a one-token
    sequence.

    Args:
        x_t:   (C,) one token.
        state: current hidden state.

    Returns:
        (y_t, new_state) with y_t of shape (C,).
    """
    if x_t.shape != (params.channels,):
        raise ShapeError(f"scan_step: token shape {x_t.shape} != ({params.channels},)")
    y, new_state = scan_sequence(params, Tensor(x_t.data[None]), state)
    return Tensor(y.data[0]), new_state


# ---------------------------------------------------------------------------
# Gated residual block
# ---------------------------------------------------------------------------

@dataclass
class MambaBlockParams:
    """Pre-norm gated SSM block.

    Forward, for tokens u of width d and inner width e = expand * d:

        n   = layer_norm(u)
        a   = n @ in_w                    (d -> e, no bias)
        c   = causal depthwise conv(a) + conv_b
        s   = silu(c)
        y   = SSM(s)                      (selective scan at width e)
        g   = silu(n @ gate_w)            (d -> e, no bias)
        out = u + (y * g) @ out_w + out_b  (e -> d)

    ``out_w``/``out_b`` start at zero, so a fresh block is the identity.
    """

    # Field order is the order ``walk_parameters`` lists the parameters in.
    norm_gamma: Tensor
    norm_beta: Tensor
    in_w: Tensor
    conv_k: Tensor
    conv_b: Tensor
    gate_w: Tensor
    out_w: Tensor
    out_b: Tensor
    ssm: SSMParams

    def __post_init__(self):
        d, e = self.in_w.shape
        if self.norm_gamma.shape != (d,) or self.norm_beta.shape != (d,):
            raise ShapeError(f"block norm params must be ({d},)")
        if self.gate_w.shape != (d, e):
            raise ShapeError(f"block gate_w shape {self.gate_w.shape} != {(d, e)}")
        if self.conv_k.ndim != 2 or self.conv_k.shape[1] != e:
            raise ShapeError(f"block conv kernel shape {self.conv_k.shape} incompatible with inner width {e}")
        if self.conv_b.shape != (e,):
            raise ShapeError(f"block conv bias shape {self.conv_b.shape} != ({e},)")
        if self.ssm.channels != e:
            raise ShapeError(f"block ssm channels {self.ssm.channels} != inner width {e}")
        if self.out_w.shape != (e, d) or self.out_b.shape != (d,):
            raise ShapeError(f"block out projection must map {e} -> {d}")

    @property
    def dim(self) -> int:
        return self.in_w.shape[0]


def init_ssm(
    rng: np.random.Generator,
    channels: int,
    state_size: int = 16,
    dt_rank: Optional[int] = None,
    prefix: str = "ssm",
) -> SSMParams:
    """Seeded init. -A spans 1..state_size per channel so decay rates are
    spread, and softplus(dt_bias) lands log-uniform in [1e-3, 1e-1]."""
    if channels < 1 or state_size < 1:
        raise ValueError(f"channels={channels} and state_size={state_size} must be >= 1")
    r = dt_rank if dt_rank is not None else default_dt_rank(channels)
    a_log = np.tile(np.log(np.arange(1, state_size + 1, dtype=np.float32)), (channels, 1))
    w_b = rng.normal(0.0, channels ** -0.5, size=(channels, state_size)).astype(np.float32)
    dt_down = rng.normal(0.0, channels ** -0.5, size=(channels, r)).astype(np.float32)
    bound = r ** -0.5
    dt_up = rng.uniform(-bound, bound, size=(r, channels)).astype(np.float32)
    dt = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=channels))
    dt_bias = np.log(np.expm1(dt)).astype(np.float32)  # softplus inverse
    w_out = rng.normal(0.0, state_size ** -0.5, size=(channels, state_size)).astype(np.float32)

    def p(name, arr):
        return Tensor(arr, name=f"{prefix}.{name}", trainable=True)

    return SSMParams(
        a_log=p("A_log", a_log),
        w_b=p("w_b", w_b),
        dt_down=p("dt_down", dt_down),
        dt_up=p("dt_up", dt_up),
        dt_bias=p("dt_bias", dt_bias),
        w_out=p("w_out", w_out),
    )


def init_block(
    rng: np.random.Generator,
    dim: int,
    state_size: int = 16,
    conv_kernel: int = 4,
    expand: int = 2,
    dt_rank: Optional[int] = None,
    prefix: str = "block",
) -> MambaBlockParams:
    if dim < 1:
        raise ValueError(f"block dim must be >= 1, got {dim}")
    inner = expand * dim
    rank = dt_rank if dt_rank is not None else default_dt_rank(dim)

    def p(name, arr):
        return Tensor(arr, name=f"{prefix}.{name}", trainable=True)

    in_w = rng.normal(0.0, dim ** -0.5, size=(dim, inner)).astype(np.float32)
    gate_w = rng.normal(0.0, dim ** -0.5, size=(dim, inner)).astype(np.float32)
    kb = conv_kernel ** -0.5
    conv_k = rng.uniform(-kb, kb, size=(conv_kernel, inner)).astype(np.float32)
    ssm = init_ssm(rng, inner, state_size=state_size, dt_rank=rank, prefix=f"{prefix}.ssm")
    return MambaBlockParams(
        norm_gamma=p("norm.gamma", np.ones(dim, dtype=np.float32)),
        norm_beta=p("norm.beta", np.zeros(dim, dtype=np.float32)),
        in_w=p("in_proj.w", in_w),
        conv_k=p("conv.w", conv_k),
        conv_b=p("conv.b", np.zeros(inner, dtype=np.float32)),
        gate_w=p("gate.w", gate_w),
        out_w=p("out_proj.w", np.zeros((inner, dim), dtype=np.float32)),
        out_b=p("out_proj.b", np.zeros(dim, dtype=np.float32)),
        ssm=ssm,
    )


def _block_fwd(tokens, norm_gamma, norm_beta, in_w, conv_k, conv_b, gate_w, out_w, out_b,
               w_b, dt_down, dt_up, dt_bias, a_log, w_out):
    """One gated block as one op.

    n = layer_norm(tokens); s = silu(conv(n @ in_w)); y = scan(s);
    out = tokens + (y * silu(n @ gate_w)) @ out_w + out_b.
    """
    n, c_n = T._layer_norm_fwd(tokens, norm_gamma, norm_beta)
    a, c_a = T._linear_fwd(n, in_w)
    c, c_c = T._conv1d_fwd(a, conv_k, conv_b)
    s, c_s = T._silu_fwd(c)
    y, c_y = _scan_fwd(s, w_b, dt_down, dt_up, dt_bias, a_log, w_out)
    gm, c_gm = T._linear_fwd(n, gate_w)
    gs, c_gs = T._silu_fwd(gm)
    o, c_o = T._linear_fwd(y * gs, out_w, out_b)
    return tokens + o, (c_n, c_a, c_c, c_s, c_y, y, c_gm, c_gs, gs, c_o)


def _block_bwd(ctx, g):
    """n sums the gate and in-projection gradients, then tokens sums the
    residual and norm gradients, in the order a tape accumulates them."""
    c_n, c_a, c_c, c_s, c_y, y, c_gm, c_gs, gs, c_o = ctx
    g_mixed, g_out_w, g_out_b = T._linear_bwd(c_o, g)
    g_gm, = T._silu_bwd(c_gs, g_mixed * y)
    g_n_gate, g_gate_w = T._linear_bwd(c_gm, g_gm)
    g_s, g_w_b, g_dt_down, g_dt_up, g_dt_bias, g_a_log, g_w_out = _scan_bwd(c_y, g_mixed * gs)
    g_c, = T._silu_bwd(c_s, g_s)
    g_a, g_conv_k, g_conv_b = T._conv1d_bwd(c_c, g_c)
    g_n_in, g_in_w = T._linear_bwd(c_a, g_a)
    g_norm, g_gamma, g_beta = T._layer_norm_bwd(c_n, g_n_gate + g_n_in)
    return (g + g_norm, g_gamma, g_beta, g_in_w, g_conv_k, g_conv_b, g_gate_w, g_out_w, g_out_b,
            g_w_b, g_dt_down, g_dt_up, g_dt_bias, g_a_log, g_w_out)


register_op(BLOCK_OP, _block_fwd, _block_bwd)


def block_forward(block: MambaBlockParams, tokens: Tensor) -> Tensor:
    """Apply one gated SSM block; shape-preserving (L, d) -> (L, d), one op."""
    if tokens.ndim != 2 or tokens.shape[1] != block.dim:
        raise ShapeError(f"block_forward: tokens shape {tokens.shape} incompatible with block dim {block.dim}")
    if tokens.shape[0] < 1:
        raise ShapeError("block_forward: empty sequence")
    ssm = block.ssm
    return T.op_forward(BLOCK_OP, (
        tokens, block.norm_gamma, block.norm_beta, block.in_w, block.conv_k, block.conv_b, block.gate_w,
        block.out_w, block.out_b, ssm.w_b, ssm.dt_down, ssm.dt_up, ssm.dt_bias, ssm.a_log, ssm.w_out))


def stack_forward(blocks: Sequence[MambaBlockParams], tokens: Tensor) -> Tensor:
    """Compose blocks in order; returns the last block's output tokens."""
    if not blocks:
        raise ValueError("stack_forward: need at least one block")
    x = tokens
    for block in blocks:
        x = block_forward(block, x)
    return x
