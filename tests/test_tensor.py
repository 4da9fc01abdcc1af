"""Engine tests: op goldens, broadcasting rules, taped gradients vs central
differences, and tape bookkeeping."""

import gc
import os
import subprocess
import sys
import weakref

import composed as C
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossfuse
from crossfuse import tensor as T
from crossfuse.tensor import (
    Graph,
    GraphError,
    NondeterministicFunctionError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    register_op,
)


def t32(values):
    return Tensor(np.asarray(values, dtype=np.float32))


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------

def test_tensor_defaults_to_float32():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float32
    assert t.shape == (3,)


def test_tensor_preserves_float64():
    t = Tensor(np.zeros(4, dtype=np.float64))
    assert t.dtype == np.float64


def test_tensor_data_is_read_only():
    t = t32([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_trainable_requires_name():
    with pytest.raises(ValueError, match="named"):
        Tensor(np.ones(2, dtype=np.float32), trainable=True)


def test_item_rejects_non_scalar():
    with pytest.raises(ShapeError, match="single-element"):
        t32([1.0, 2.0]).item()


def test_item_on_scalar_and_singleton():
    assert t32(3.5).item() == 3.5
    assert t32([[4.0]]).item() == 4.0


# ---------------------------------------------------------------------------
# Forward goldens
# ---------------------------------------------------------------------------

def test_add_golden():
    y = T.add(t32([[1.0, 2.0], [3.0, 4.0]]), t32([10.0, 20.0]))
    np.testing.assert_array_equal(y.data, [[11.0, 22.0], [13.0, 24.0]])


def test_mul_scale_golden():
    y = C.scale(t32([1.0, -2.0, 3.0]), -2.0)
    np.testing.assert_array_equal(y.data, [-2.0, 4.0, -6.0])


def test_linear_golden():
    a = t32([[1.0, 2.0], [3.0, 4.0]])
    b = t32([[5.0, 6.0], [7.0, 8.0]])
    with Graph() as g:
        y = T.linear(a, b)
    np.testing.assert_array_equal(y.data, [[19.0, 22.0], [43.0, 50.0]])
    assert [n.kind for n in g.nodes] == ["linear"]


def test_linear_with_bias_golden():
    x = t32([[1.0, 2.0]])
    w = t32([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
    b = t32([0.5, -0.5, 0.0])
    np.testing.assert_array_equal(T.linear(x, w, b).data, [[1.5, 1.5, 1.0]])


def test_conv1d_causal_golden():
    # Width-2 kernel of ones over [1, 2, 3]: current + previous, left-padded.
    x = t32([[1.0], [2.0], [3.0]])
    k = t32([[1.0], [1.0]])
    np.testing.assert_array_equal(C.conv1d_causal(x, k).data, [[1.0], [3.0], [5.0]])


def test_conv1d_causal_last_tap_is_current_position():
    x = t32([[1.0], [2.0], [3.0]])
    k = t32([[0.0], [1.0]])  # pure passthrough
    np.testing.assert_array_equal(C.conv1d_causal(x, k).data, x.data)
    k_prev = t32([[1.0], [0.0]])  # pure one-step delay
    np.testing.assert_array_equal(C.conv1d_causal(x, k_prev).data, [[0.0], [1.0], [2.0]])


def test_layer_norm_golden():
    y = C.layer_norm(t32([[1.0, 2.0, 3.0]]), t32([1.0, 1.0, 1.0]), t32([0.0, 0.0, 0.0]))
    # (3 - 2) / sqrt(2/3 + 1e-5) = 1.2247356859
    np.testing.assert_allclose(y.data, [[-1.2247357, 0.0, 1.2247357]], rtol=0, atol=1e-6)


def _layer_norm_by_ndarray_methods(x, gamma, beta, eps=1e-5):
    """The layer norm as ndarray.mean and ndarray.var(mean=) compute it."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True, mean=mean)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_adjoint_by_ndarray_methods(xhat, inv, gamma, g):
    gg = g * gamma
    axes = tuple(range(g.ndim - 1))
    m1 = gg.mean(axis=-1, keepdims=True)
    m2 = (gg * xhat).mean(axis=-1, keepdims=True)
    return inv * (gg - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _bits(a):
    """The raw bits of a float array, so that -0.0 and +0.0 differ."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]),
       st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_layer_norm_kernels_equal_the_ndarray_methods_bit_for_bit(dtype, shape, seed, zero_share):
    rng = np.random.default_rng(seed)

    def draw(*dims):
        a = (rng.standard_normal(dims) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        a[rng.random(dims) < zero_share] = 0.0
        return a

    x, g = draw(*shape), draw(*shape)
    gamma, beta = draw(shape[-1]), draw(shape[-1])
    y, ctx = T._layer_norm_fwd(x, gamma, beta)
    want_y, want_xhat, want_inv = _layer_norm_by_ndarray_methods(x, gamma, beta)
    for got, want in ((y, want_y), (ctx["xhat"], want_xhat), (ctx["inv"], want_inv)):
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))
    got = T._layer_norm_bwd(ctx, g)
    want = _layer_norm_adjoint_by_ndarray_methods(ctx["xhat"], ctx["inv"], gamma, g)
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == want_part.dtype and np.array_equal(_bits(got_part), _bits(want_part))


def test_silu_golden():
    y = T.silu(t32([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(y.data, [-0.26894143, 0.0, 0.7310586], rtol=0, atol=1e-6)


def test_softplus_golden_and_stability():
    y = C.softplus(t32([0.0, 100.0, -100.0]))
    np.testing.assert_allclose(y.data, [0.6931472, 100.0, 0.0], rtol=0, atol=1e-6)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        y = T._sigmoid_np(np.array([-500.0, 0.0, 500.0], np.float32))
    assert y.dtype == np.float32
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], rtol=0, atol=1e-7)


def test_reductions_golden():
    x = t32([[1.0, 2.0], [3.0, 4.0]])
    assert C.reduce_sum(x).item() == 10.0
    np.testing.assert_array_equal(C.reduce_sum(x, axis=0).data, [4.0, 6.0])


# ---------------------------------------------------------------------------
# Shape and usage errors
# ---------------------------------------------------------------------------

def test_linear_rejects_rank_and_inner_mismatch():
    with pytest.raises(ShapeError, match="weight must be rank-2"):
        T.linear(t32([[1.0, 2.0]]), t32([1.0, 2.0]))
    with pytest.raises(ShapeError, match="incompatible with weight"):
        T.linear(t32([[1.0, 2.0]]), t32([[1.0, 2.0]]))


def test_add_rejects_non_suffix_broadcast():
    with pytest.raises(ShapeError, match="trailing suffix"):
        T.add(Tensor(np.zeros((3, 2), np.float32)), Tensor(np.zeros(3, np.float32)))


def test_mul_rejects_same_rank_mismatch():
    with pytest.raises(ShapeError, match="mul"):
        C.mul(Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((2, 4), np.float32)))


def test_linear_rejects_bad_bias():
    x, w = t32([[1.0, 2.0]]), t32([[1.0], [1.0]])
    with pytest.raises(ShapeError, match="bias"):
        T.linear(x, w, t32([1.0, 2.0]))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ShapeError, match="conv1d_causal"):
        C.conv1d_causal(t32([[1.0, 2.0]]), t32([[1.0], [1.0]]))


def test_reduce_rejects_duplicate_axes():
    with pytest.raises(ShapeError, match="duplicate"):
        C.reduce_sum(t32([[1.0]]), axis=(0, 0))


def test_register_op_rejects_duplicate_kind():
    with pytest.raises(ValueError, match="already registered"):
        register_op("add", lambda x: (x, {}), lambda ctx, g: (g,))


def test_a_fresh_import_registers_only_the_kinds_the_program_records():
    code = ("import crossfuse, crossfuse.harness\n"
            "from crossfuse import tensor\n"
            "print(' '.join(sorted(tensor._OP_REGISTRY)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crossfuse.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == C.PROGRAM_KINDS


def test_op_forward_rejects_unknown_kind_and_non_tensor():
    with pytest.raises(KeyError, match="unknown op"):
        T.op_forward("no_such_op", ())
    with pytest.raises(TypeError, match="expected Tensor"):
        T.op_forward("add", (t32([1.0]), np.ones(1)))


# ---------------------------------------------------------------------------
# Tape behaviour
# ---------------------------------------------------------------------------

def test_ops_outside_graph_are_not_recorded():
    with Graph() as g:
        pass
    T.add(t32([1.0]), t32([2.0]))
    assert len(g) == 0


def test_graph_records_and_collects_parameters():
    w = T.parameter(np.ones((2, 2), np.float32), "w")
    with Graph() as g:
        y = C.reduce_sum(T.linear(t32([[1.0, 2.0]]), w))
    assert len(g) == 2
    assert y.item() == 6.0


def test_backward_requires_recorded_scalar():
    with Graph() as g:
        pass
    with pytest.raises(GraphError, match="empty graph"):
        backward(g, t32(1.0), [])
    w = T.parameter(np.ones(2, np.float32), "w")
    with Graph() as g:
        y = T.add(w, t32([1.0, 1.0]))
    with pytest.raises(GraphError, match="scalar"):
        backward(g, y, [w])


def test_backward_accumulates_reused_parameter():
    w = T.parameter(np.array([1.0, 2.0], np.float32), "w")
    with Graph() as g:
        y = C.reduce_sum(C.mul(w, w))
    grads = backward(g, y, [w])
    np.testing.assert_allclose(grads["w"].data, [2.0, 4.0], rtol=1e-6)


def test_backward_zero_grad_for_untouched_parameter():
    w = T.parameter(np.ones(3, np.float32), "w")
    unused = T.parameter(np.ones(2, np.float32), "unused")
    with Graph() as g:
        y = C.reduce_sum(w)
    grads = backward(g, y, parameters=[w, unused])
    np.testing.assert_array_equal(grads["unused"].data, [0.0, 0.0])
    np.testing.assert_array_equal(grads["w"].data, [1.0, 1.0, 1.0])


def test_backward_serves_only_the_parameters_it_is_given():
    w = T.parameter(np.array([1.0, 2.0], np.float32), "w")
    v = T.parameter(np.array([3.0, 4.0], np.float32), "v")
    with Graph() as g:
        y = C.reduce_sum(C.mul(w, v))
    grads = backward(g, y, [w])
    assert set(grads) == {"w"}  # v is trainable and on the tape, but not asked for
    np.testing.assert_array_equal(grads["w"].data, [3.0, 4.0])
    with pytest.raises(TypeError):
        backward(g, y)  # the parameters are named by the caller, always


def test_backward_frees_every_context_keeps_the_nodes_and_runs_once():
    w = T.parameter(np.array([[1.0, -2.0], [0.5, 3.0]], np.float32), "w")
    x = t32([[1.0, 2.0]])
    with Graph() as g:
        h = T.linear(x, w)
        T.silu(h)  # recorded, but off the loss's path
        y = C.reduce_sum(T.silu(T.add(h, t32([1.0, 1.0]))))
    kinds = [n.kind for n in g.nodes]
    assert len(kinds) == 5 and all(n.ctx is not None for n in g.nodes)
    grads = backward(g, y, [w])
    assert len(g) == 5 and [n.kind for n in g.nodes] == kinds
    assert all(n.ctx is None for n in g.nodes)
    with pytest.raises(GraphError, match="already ran"):
        backward(g, y, [w])
    with Graph() as again:
        y2 = C.reduce_sum(T.silu(T.add(T.linear(x, w), t32([1.0, 1.0]))))
    np.testing.assert_array_equal(backward(again, y2, [w])["w"].data, grads["w"].data)


def _reachable(root):
    """Every object reachable from ``root`` through the references the
    garbage collector sees."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return list(seen.values())


def test_the_tape_keeps_no_op_output_and_an_output_reaches_no_node():
    w = T.parameter(np.array([[1.0, -2.0], [0.5, 3.0]], np.float32), "w")
    with Graph() as g:
        h = T.add(T.linear(t32([[1.0, 2.0]]), w), t32([1.0, 1.0]))  # no adjoint reads add's output
        y = C.reduce_sum(h)
    assert h.producer == (g.serial, 1) and y.producer == (g.serial, 2)
    assert g.nodes[1].inputs[0] == 0 and g.nodes[1].shape == (1, 2)
    freed = weakref.ref(h.data)
    del h
    assert freed() is None  # while the graph still records it
    grads = backward(g, y, [w])
    del g
    gc.collect()
    assert not any(isinstance(obj, T.Node) for obj in _reachable(y))
    assert grads["w"].producer is None
    with Graph() as later:
        C.reduce_sum(y)
    assert later.nodes[0].inputs == (y,)  # another graph's output is a leaf here


# The emitter hands back an adjoint for its constant input and keeps a weak
# reference to it; the check, which the backward walk reaches two nodes later,
# reads whether anything still holds that adjoint.
_constant_adjoints: list = []
_freed_when_checked: list = []


def _emit_constant_adjoint_bwd(ctx, g):
    g_c = g.copy()
    _constant_adjoints.append(weakref.ref(g_c))
    return g, g_c


def _check_constant_adjoint_bwd(ctx, g):
    _freed_when_checked.append(_constant_adjoints[-1]() is None)
    return (g,)


register_op("test_emit_constant_adjoint", lambda x, c: (x + c, None), _emit_constant_adjoint_bwd)
register_op("test_check_constant_adjoint", lambda x: (x.copy(), None), _check_constant_adjoint_bwd)


def test_backward_keeps_no_adjoint_for_a_constant():
    _constant_adjoints.clear()
    _freed_when_checked.clear()
    w = T.parameter(np.array([1.0, 2.0], np.float32), "w")
    with Graph() as g:
        h = T.silu(T.op_forward("test_check_constant_adjoint", (w,)))
        y = C.reduce_sum(T.op_forward("test_emit_constant_adjoint", (h, t32([3.0, 4.0]))))
    grads = backward(g, y, [w])
    assert _freed_when_checked == [True]
    s = 1.0 / (1.0 + np.exp(-np.array([1.0, 2.0])))
    np.testing.assert_allclose(grads["w"].data, s + np.array([1.0, 2.0]) * s * (1 - s), rtol=1e-6)


register_op("test_wrong_constant_adjoint", lambda x, c: (x + c, None), lambda ctx, g: (g, g[:1]))


def test_backward_checks_the_shape_of_a_constants_adjoint():
    w = T.parameter(np.ones(2, np.float32), "w")
    with Graph() as g:
        y = C.reduce_sum(T.op_forward("test_wrong_constant_adjoint", (w, t32([1.0, 1.0]))))
    with pytest.raises(GraphError, match="gradient shape"):
        backward(g, y, [w])


def test_linear_bias_gradient_golden():
    # d/db of sum(x @ w + b) is the row count of x.
    w = T.parameter(np.ones((2, 3), np.float32), "w")
    b = T.parameter(np.zeros(3, np.float32), "b")
    x = t32(np.arange(8, dtype=np.float32).reshape(4, 2))
    with Graph() as g:
        y = C.reduce_sum(T.linear(x, w, b))
    grads = backward(g, y, [w, b])
    np.testing.assert_array_equal(grads["b"].data, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(grads["w"].data, [[12.0, 12.0, 12.0], [16.0, 16.0, 16.0]])


# ---------------------------------------------------------------------------
# Gradients vs central differences, one case per differentiable op kind
# ---------------------------------------------------------------------------

def _rng(seed):
    return np.random.default_rng(seed)


def _param(rng, shape, name, scale=0.5):
    return T.parameter(rng.normal(0.0, scale, size=shape).astype(np.float32), name)


def _assert_grads_ok(f, params, tol=1e-3):
    report = grad_check(f, params)
    assert report.max_rel_error < tol, (
        f"worst {report.worst_param}[{report.worst_index}] rel err {report.max_rel_error:.3e}"
    )


def test_grad_add_with_broadcast():
    rng = _rng(0)
    params = {"a": _param(rng, (3, 4), "a"), "b": _param(rng, (4,), "b")}
    _assert_grads_ok(lambda p: C.reduce_sum(T.add(p["a"], p["b"])), params)


def test_grad_mul_with_broadcast():
    rng = _rng(1)
    params = {"a": _param(rng, (2, 3), "a"), "b": _param(rng, (3,), "b")}
    _assert_grads_ok(lambda p: C.reduce_sum(C.mul(p["a"], p["b"])), params)


def test_grad_linear():
    rng = _rng(2)
    params = {"a": _param(rng, (3, 4), "a"), "b": _param(rng, (4, 2), "b")}
    _assert_grads_ok(lambda p: C.reduce_sum(T.linear(p["a"], p["b"])), params)


def test_grad_linear_rank3_input():
    rng = _rng(3)
    params = {
        "x": _param(rng, (2, 3, 4), "x"),
        "w": _param(rng, (4, 5), "w"),
        "b": _param(rng, (5,), "b"),
    }
    _assert_grads_ok(
        lambda p: C.reduce_sum(T.silu(T.linear(p["x"], p["w"], p["b"]))), params
    )


def test_grad_conv1d_causal():
    rng = _rng(4)
    params = {
        "x": _param(rng, (6, 3), "x"),
        "k": _param(rng, (4, 3), "k"),
        "b": _param(rng, (3,), "b"),
    }
    _assert_grads_ok(
        lambda p: C.reduce_sum(T.silu(C.conv1d_causal(p["x"], p["k"], p["b"]))), params
    )


def test_grad_layer_norm():
    rng = _rng(5)
    params = {
        "x": _param(rng, (4, 6), "x", scale=1.0),
        "g": _param(rng, (6,), "g", scale=1.0),
        "b": _param(rng, (6,), "b"),
    }
    _assert_grads_ok(
        lambda p: C.reduce_sum(C.mul(C.layer_norm(p["x"], p["g"], p["b"]), p["x"])), params
    )


def test_grad_silu_softplus_exp():
    rng = _rng(6)
    params = {"x": _param(rng, (5, 3), "x")}

    def f(p):
        return C.reduce_sum(T.add(T.silu(p["x"]), C.mul(C.softplus(p["x"]), C.exp(p["x"]))))

    _assert_grads_ok(f, params)


def test_grad_reductions():
    rng = _rng(8)
    params = {"x": _param(rng, (3, 4, 2), "x")}

    def f(p):
        partial = C.reduce_sum(p["x"], axis=(0, 2))  # (4,)
        return C.reduce_sum(C.mul(partial, partial))

    _assert_grads_ok(f, params)


def test_grad_check_flags_nondeterministic_function():
    state = {"n": 0}
    w = T.parameter(np.ones(2, np.float32), "w")

    def f(p):
        state["n"] += 1
        return C.reduce_sum(C.scale(p["w"], float(state["n"])))

    with pytest.raises(NondeterministicFunctionError):
        grad_check(f, {"w": w})


def test_grad_check_reports_worst_parameter():
    rng = _rng(9)
    params = {"a": _param(rng, (2, 2), "a"), "b": _param(rng, (2,), "b")}
    report = grad_check(lambda p: C.reduce_sum(C.mul(T.silu(p["a"]), p["b"])), params)
    assert set(report.per_param) == {"a", "b"}
    assert report.worst_param in ("a", "b")
    assert report.max_rel_error < 1e-3


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    lead=st.integers(min_value=1, max_value=4),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_suffix_broadcast_matches_numpy(lead, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(lead, rows, cols)).astype(np.float32)
    b = rng.normal(size=(rows, cols)).astype(np.float32)
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(C.mul(Tensor(b), Tensor(a)).data, b * a)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_seeded_graph_is_deterministic(seed):
    def run():
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        return C.reduce_sum(T.silu(T.linear(x, w))).item()

    assert run() == run()
