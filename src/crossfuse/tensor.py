"""Dense float tensors with taped reverse-mode differentiation.

The registry holds the kinds the program records: suffix-broadcast add, a
linear map ``x @ w`` with an optional bias and silu. Domain modules register
their fused ops (``take_rows``, which makes every row move, ``mamba_block``
and ``detection_loss``) through ``register_op``. The kernels
those fused ops call besides (layer norm, causal depthwise convolution,
softplus) live here as plain forward/adjoint pairs; the fused ops write the
rest of their arithmetic inline.

Values are immutable: every op returns a fresh ``Tensor`` and the backing
numpy buffers are marked read-only. Recording is explicit; ops executed
outside a ``Graph`` context run eagerly with no tape, which is the inference
path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "GraphError",
    "ShapeError",
    "NondeterministicFunctionError",
    "GradCheckReport",
    "register_op",
    "op_forward",
    "backward",
    "grad_check",
    "parameter",
    "add",
    "linear",
    "silu",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class GraphError(RuntimeError):
    """Raised on misuse of the recording tape (empty graph, non-scalar loss)."""


class NondeterministicFunctionError(RuntimeError):
    """Raised by grad_check when two evaluations of f disagree bitwise."""


class Tensor:
    """An immutable dense float array (float32 by default).

    ``trainable`` tensors must carry a ``name``; gradient maps are keyed by
    that name. Data is stored C-contiguous and marked read-only, so a Tensor
    can be shared freely between graphs and threads.
    """

    __slots__ = ("data", "name", "trainable")

    def __init__(self, data, name: Optional[str] = None, trainable: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.flags.writeable:
            # Copy-free lock; callers hand over ownership of freshly built
            # arrays, and asarray above did not copy read-only inputs.
            arr.flags.writeable = False
        if trainable and not name:
            raise ValueError("trainable tensors must be named")
        self.data = arr
        self.name = name
        self.trainable = trainable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{tag})"


def parameter(value, name: str) -> Tensor:
    return Tensor(np.asarray(value), name=name, trainable=True)


# ---------------------------------------------------------------------------
# Op registry and tape
# ---------------------------------------------------------------------------

# forward: (*arrays, **attrs) -> (out_array, ctx)
# backward: (ctx, grad_out) -> tuple of per-input gradients (None = no grad)
@dataclass(frozen=True)
class OpDef:
    kind: str
    forward: Callable
    backward: Callable


_OP_REGISTRY: dict[str, OpDef] = {}


def register_op(kind: str, forward: Callable, backward: Callable) -> None:
    """Add an op to the dispatch table. Re-registering a kind is an error."""
    if kind in _OP_REGISTRY:
        raise ValueError(f"op kind {kind!r} is already registered")
    _OP_REGISTRY[kind] = OpDef(kind, forward, backward)


@dataclass(slots=True)
class Node:
    """One recorded op. ``backward`` is the adjoint the registry held for the
    kind when the op ran, so ``backward()`` needs no registry lookup."""

    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    ctx: object
    backward: Callable


class Graph:
    """Recording tape: a list of op records in execution order.

    Use as a context manager; ops executed inside the ``with`` block are
    appended. A graph expects a single recording thread, but independent
    graphs on different threads do not interfere (the active-graph stack is
    thread-local).
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _tls.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tls.stack
        if not stack or stack[-1] is not self:
            raise GraphError("graph context exited out of order")
        stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Graph] = []


_tls = _ThreadState()


def op_forward(kind: str, inputs: Sequence[Tensor], **attrs) -> Tensor:
    """Execute one op, recording it on the active graph if there is one."""
    opdef = _OP_REGISTRY.get(kind)
    if opdef is None:
        raise KeyError(f"unknown op kind {kind!r}")
    arrays = [t.data for t in inputs if isinstance(t, Tensor)]
    if len(arrays) != len(inputs):
        i, t = next((i, t) for i, t in enumerate(inputs) if not isinstance(t, Tensor))
        raise TypeError(f"{kind}: input {i} is {type(t).__name__}, expected Tensor")
    out_arr, ctx = opdef.forward(*arrays, **attrs)
    out = Tensor(out_arr)
    stack = _tls.stack
    if stack:
        stack[-1].nodes.append(Node(kind, tuple(inputs), out, ctx, opdef.backward))
    return out


def backward(graph: Graph, loss: Tensor, parameters: Iterable[Tensor]) -> dict[str, Tensor]:
    """d(loss)/d(p) for each tensor p in ``parameters``, keyed by its name.

    Walks the tape once in reverse. A parameter is matched by identity, so
    pass the very tensors the recorded ops consumed; one that never touched
    the loss gets an explicit zero gradient.
    """
    if not graph.nodes:
        raise GraphError("cannot run backward on an empty graph")
    if loss.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue
        in_grads = node.backward(node.ctx, g_out)
        if len(in_grads) != len(node.inputs):
            raise GraphError(f"{node.kind}: backward returned {len(in_grads)} grads for {len(node.inputs)} inputs")
        for t, g in zip(node.inputs, in_grads):
            if g is None:
                continue
            if g.shape != t.shape:
                raise GraphError(f"{node.kind}: gradient shape {g.shape} != input shape {t.shape}")
            key = id(t)
            prev = grads.get(key)
            grads[key] = g if prev is None else prev + g
    out: dict[str, Tensor] = {}
    for p in parameters:
        g = grads.get(id(p))
        out[p.name] = Tensor(g) if g is not None else Tensor(np.zeros_like(p.data))
    return out


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    per_param: dict[str, float] = field(default_factory=dict)


def grad_check(f: Callable[[dict[str, Tensor]], Tensor], params: dict[str, Tensor], eps: float = 1e-5) -> GradCheckReport:
    """Compare taped gradients of a scalar function against central differences.

    The whole check runs in float64; ``f`` receives a dict of named trainable
    tensors and must return a scalar Tensor. ``f`` is evaluated twice up front
    and must reproduce its output bit for bit, otherwise the finite-difference
    baseline is meaningless and ``NondeterministicFunctionError`` is raised.

    Relative error per entry is |ga - gn| / max(|ga|, |gn|, 1e-8).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not params:
        raise ValueError("grad_check needs at least one parameter")
    p64 = {
        k: Tensor(v.data.astype(np.float64), name=k, trainable=True)
        for k, v in params.items()
    }

    y1 = f(dict(p64))
    y2 = f(dict(p64))
    if y1.size != 1:
        raise ShapeError(f"f must return a scalar, got shape {y1.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise NondeterministicFunctionError(
            "two evaluations of f produced different outputs; "
            "finite differences require a deterministic function"
        )

    with Graph() as graph:
        y = f(dict(p64))
    analytic = backward(graph, y, parameters=p64.values())

    report = GradCheckReport(max_rel_error=0.0, worst_param="", worst_index=())
    for name, p in p64.items():
        ga = analytic[name].data
        gn = np.zeros_like(ga)
        base = np.array(p.data)
        for idx in np.ndindex(p.shape or (1,)):
            key = idx if p.shape else ()
            plus = base.copy()
            plus[key] += eps
            minus = base.copy()
            minus[key] -= eps
            trial = dict(p64)
            trial[name] = Tensor(plus, name=name, trainable=True)
            y_plus = f(trial).item()
            trial[name] = Tensor(minus, name=name, trainable=True)
            y_minus = f(trial).item()
            gn[key] = (y_plus - y_minus) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        rel = np.abs(ga - gn) / denom
        worst = float(rel.max()) if rel.size else 0.0
        report.per_param[name] = worst
        if worst > report.max_rel_error:
            flat = int(np.argmax(rel))
            report.max_rel_error = worst
            report.worst_param = name
            report.worst_index = np.unravel_index(flat, rel.shape) if rel.shape else ()
    return report


# ---------------------------------------------------------------------------
# Broadcasting helpers (leading-dimension expansion only)
# ---------------------------------------------------------------------------

def _check_suffix_broadcast(kind: str, sa: tuple, sb: tuple) -> tuple:
    """Allow equal shapes or one shape being a trailing suffix of the other."""
    if sa == sb:
        return sa
    if len(sa) > len(sb):
        big, small = sa, sb
    elif len(sb) > len(sa):
        big, small = sb, sa
    else:
        raise ShapeError(f"{kind}: shapes {sa} and {sb} do not match")
    if small != big[len(big) - len(small):]:
        raise ShapeError(
            f"{kind}: shape {small} is not a trailing suffix of {big}; "
            "only leading-dimension broadcasting is supported"
        )
    return big


def _reduce_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra)))


# ---------------------------------------------------------------------------
# Kernels: the core ops and the pieces the fused ops call
# ---------------------------------------------------------------------------

def _add_fwd(a, b):
    _check_suffix_broadcast("add", a.shape, b.shape)
    return a + b, {"sa": a.shape, "sb": b.shape}


def _add_bwd(ctx, g):
    return _reduce_to_shape(g, ctx["sa"]), _reduce_to_shape(g, ctx["sb"])


def _linear_fwd(x, w, b=None):
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be rank-2, got {w.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input shape {x.shape} incompatible with weight {w.shape}")
    y = x @ w
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
        y = y + b
    return y, {"x": x, "w": w, "has_bias": b is not None}


def _linear_bwd(ctx, g):
    x, w = ctx["x"], ctx["w"]
    gx = g @ w.T
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    gw = x2.T @ g2
    grads = [gx, gw]
    if ctx["has_bias"]:
        grads.append(g2.sum(axis=0))
    return tuple(grads)


def _conv1d_fwd(x, k, b=None):
    if x.ndim != 2:
        raise ShapeError(f"conv1d_causal: input must be (length, channels), got {x.shape}")
    if k.ndim != 2 or k.shape[1] != x.shape[1]:
        raise ShapeError(f"conv1d_causal: kernel {k.shape} incompatible with input {x.shape}")
    length, channels = x.shape
    width = k.shape[0]
    xp = np.concatenate([np.zeros((width - 1, channels), dtype=x.dtype), x], axis=0)
    out = np.zeros((length, channels), dtype=x.dtype)
    # k[width-1] multiplies the current position; earlier taps reach back.
    for j in range(width):
        out += k[j] * xp[j:j + length]
    if b is not None:
        if b.shape != (channels,):
            raise ShapeError(f"conv1d_causal: bias shape {b.shape} != ({channels},)")
        out = out + b
    return out, {"xp": xp, "k": k, "length": length, "has_bias": b is not None}


def _conv1d_bwd(ctx, g):
    xp, k, length = ctx["xp"], ctx["k"], ctx["length"]
    width, channels = k.shape
    gk = np.empty_like(k)
    gxp = np.zeros_like(xp)
    for j in range(width):
        gk[j] = (g * xp[j:j + length]).sum(axis=0)
        gxp[j:j + length] += k[j] * g
    grads = [gxp[width - 1:], gk]
    if ctx["has_bias"]:
        grads.append(g.sum(axis=0))
    return tuple(grads)


def _layer_norm_fwd(x, gamma, beta, eps=1e-5):
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must be ({d},) for input {x.shape}"
        )
    # The ufunc calls that ndarray.mean and ndarray.var(mean=) make, without
    # their dispatch: a sum over the last axis, divided by its length.
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    y = xhat * gamma + beta
    return y, {"xhat": xhat, "inv": inv, "gamma": gamma}


def _layer_norm_bwd(ctx, g):
    xhat, inv, gamma = ctx["xhat"], ctx["inv"], ctx["gamma"]
    gg = g * gamma
    axes = tuple(range(g.ndim - 1))
    d = g.shape[-1]
    dgamma = np.add.reduce(g * xhat, axis=axes)
    dbeta = np.add.reduce(g, axis=axes)
    m1 = np.add.reduce(gg, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(gg * xhat, axis=-1, keepdims=True) / d
    dx = inv * (gg - m1 - xhat * m2)
    return dx, dgamma, dbeta


def _sigmoid_np(x):
    """Logistic function of an array, overflow-free: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _silu_fwd(x):
    s = _sigmoid_np(x)
    return x * s, {"x": x, "s": s}


def _silu_bwd(ctx, g):
    x, s = ctx["x"], ctx["s"]
    return (g * (s + x * s * (1.0 - s)),)


def _softplus_fwd(x):
    return np.logaddexp(np.array(0.0, dtype=x.dtype), x), {"x": x}


def _softplus_bwd(ctx, g):
    return (g * _sigmoid_np(ctx["x"]),)


register_op("add", _add_fwd, _add_bwd)
register_op("linear", _linear_fwd, _linear_bwd)
register_op("silu", _silu_fwd, _silu_bwd)


# ---------------------------------------------------------------------------
# Functional wrappers
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return op_forward("add", (a, b))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    inputs = (x, w) if b is None else (x, w, b)
    return op_forward("linear", inputs)


def silu(x: Tensor) -> Tensor:
    return op_forward("silu", (x,))
