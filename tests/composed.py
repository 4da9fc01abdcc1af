"""The chain of core ops that the fused ``mamba_block`` op replaces, kept as a
bit-for-bit oracle for ``test_ssm`` and ``test_harness``, and the core ops
that tests build their probes from.

``composed_block`` records one tape node per core op, as the program did
before the block was fused. The block does the same arithmetic in the same
order inline, and both call the one scan kernel, so its forward and adjoint
can be checked against the chain bit for bit.

The program records none of the chains' elementwise, normalisation and
reduction ops, so the engine's registry does not hold them. This module
registers them on import with their wrappers: ``mul``, ``exp``,
``reduce_sum`` and ``reduce_mean`` over kernels defined here, the rest over
the engine's kernels. It also registers ``ssm_scan`` over the scan kernel
``mamba_block`` runs, so the scan can be recorded and differentiated on its
own, and ``reshape`` and ``transpose``, which only the tests' own chains
record.
Import it under the one name ``composed``: a second import under another name
would register every kind twice, which ``register_op`` rejects.
"""

import math
from typing import Optional

import numpy as np

from crossfuse import ssm as ssm_mod
from crossfuse import tensor as T
from crossfuse.harness.train import _huber_bwd, _huber_fwd
from crossfuse.tensor import Tensor, op_forward, register_op


# What a fresh ``import crossfuse, crossfuse.harness`` registers, sorted.
PROGRAM_KINDS = ["add", "concat", "detection_loss", "linear", "mamba_block", "silu", "slice",
                 "take_rows"]


def _mul_fwd(a, b):
    T._check_suffix_broadcast("mul", a.shape, b.shape)
    return a * b, {"a": a, "b": b}


def _mul_bwd(ctx, g):
    a, b = ctx["a"], ctx["b"]
    return T._reduce_to_shape(g * b, a.shape), T._reduce_to_shape(g * a, b.shape)


def _exp_fwd(x):
    y = np.exp(x)
    return y, {"y": y}


def _exp_bwd(ctx, g):
    return (g * ctx["y"],)


def _normalize_axis(x, axis):
    if axis is None:
        return tuple(range(x.ndim))
    if isinstance(axis, int):
        axis = (axis,)
    out = []
    for a in axis:
        if not -x.ndim <= a < x.ndim:
            raise T.ShapeError(f"reduction axis {a} out of range for shape {x.shape}")
        out.append(a % x.ndim)
    if len(set(out)) != len(out):
        raise T.ShapeError(f"duplicate reduction axes {axis}")
    return tuple(sorted(out))


def _expand_reduced(g, shape, axes):
    full = list(g.shape)
    for a in axes:
        full.insert(a, 1)
    return np.broadcast_to(g.reshape(full), shape)


def _sum_fwd(x, axis=None):
    axes = _normalize_axis(x, axis)
    return x.sum(axis=axes), {"shape": x.shape, "axes": axes}


def _sum_bwd(ctx, g):
    return (np.ascontiguousarray(_expand_reduced(g, ctx["shape"], ctx["axes"])),)


def _mean_fwd(x, axis=None):
    axes = _normalize_axis(x, axis)
    return x.mean(axis=axes), {"shape": x.shape, "axes": axes}


def _mean_bwd(ctx, g):
    n = 1
    for a in ctx["axes"]:
        n *= ctx["shape"][a]
    return (np.ascontiguousarray(_expand_reduced(g, ctx["shape"], ctx["axes"]) / n),)


def _reshape_fwd(x, shape=()):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise T.ShapeError(f"reshape: cannot view {x.shape} ({x.size} elements) as {shape}")
    return x.reshape(shape), {"shape": x.shape}


def _reshape_bwd(ctx, g):
    return (g.reshape(ctx["shape"]),)


def _transpose_fwd(x, axes=()):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise T.ShapeError(f"transpose: axes {axes} are not a permutation of rank {x.ndim}")
    return np.ascontiguousarray(x.transpose(axes)), {"axes": axes}


def _transpose_bwd(ctx, g):
    inverse = np.argsort(ctx["axes"])
    return (np.ascontiguousarray(g.transpose(tuple(inverse))),)


register_op("mul", _mul_fwd, _mul_bwd)
register_op("conv1d_causal", T._conv1d_fwd, T._conv1d_bwd)
register_op("layer_norm", T._layer_norm_fwd, T._layer_norm_bwd)
register_op("softplus", T._softplus_fwd, T._softplus_bwd)
register_op("exp", _exp_fwd, _exp_bwd)
register_op("reduce_sum", _sum_fwd, _sum_bwd)
register_op("reduce_mean", _mean_fwd, _mean_bwd)
register_op("huber", _huber_fwd, _huber_bwd)
register_op("reshape", _reshape_fwd, _reshape_bwd)
register_op("transpose", _transpose_fwd, _transpose_bwd)
register_op("ssm_scan", ssm_mod._scan_fwd, ssm_mod._scan_bwd)


def _const_like(t: Tensor, value) -> Tensor:
    return Tensor(np.asarray(value, dtype=t.dtype))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return op_forward("mul", (a, b))


def scale(x: Tensor, value: float) -> Tensor:
    """Multiply by a python scalar (wrapped as a constant of matching dtype)."""
    return op_forward("mul", (x, _const_like(x, value)))


def conv1d_causal(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return op_forward("conv1d_causal", inputs)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return op_forward("layer_norm", (x, gamma, beta), eps=eps)


def softplus(x: Tensor) -> Tensor:
    return op_forward("softplus", (x,))


def exp(x: Tensor) -> Tensor:
    return op_forward("exp", (x,))


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    return op_forward("reduce_sum", (x,), axis=axis)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    return op_forward("reduce_mean", (x,), axis=axis)


def huber(x: Tensor, beta: float = 1.0) -> Tensor:
    return op_forward("huber", (x,), beta=beta)


def reshape(x: Tensor, shape) -> Tensor:
    return op_forward("reshape", (x,), shape=tuple(shape))


def transpose(x: Tensor, axes) -> Tensor:
    return op_forward("transpose", (x,), axes=tuple(axes))


def scan(params: ssm_mod.SSMParams, tokens: Tensor) -> Tensor:
    """The scan's per-token outputs (L, C) from a zero state, as one taped op."""
    return op_forward("ssm_scan", (tokens, params.w_b, params.dt_down, params.dt_up, params.dt_bias,
                                   params.a_log, params.w_out))


def composed_block(block: ssm_mod.MambaBlockParams, tokens: Tensor) -> Tensor:
    """``ssm.block_forward`` as ten taped ops."""
    n = layer_norm(tokens, block.norm_gamma, block.norm_beta)
    a = T.linear(n, block.in_w)
    c = conv1d_causal(a, block.conv_k, block.conv_b)
    s = T.silu(c)
    y = scan(block.ssm, s)
    g = T.silu(T.linear(n, block.gate_w))
    mixed = mul(y, g)
    out = T.linear(mixed, block.out_w, block.out_b)
    return T.add(tokens, out)
