"""Scan kernel and block tests.

The scan is checked three independent ways: hand-derived impulse values,
a float64 reference recurrence written here from the update equations, and
token-at-a-time folding with ``scan_step``. Its kernel and adjoint are also
checked against the chain of core ops they replace, through the ``ssm_scan``
kind that ``composed`` registers: the readout and its ``w_out`` gradient
against the chain run in float64, everything else bit for bit. The chain's
recurrence is a stepwise forward and adjoint written here, which share no
code with the kernel.
``scan_sequence`` and ``scan_step`` run unrecorded and have no gradients of
their own.
"""

import math

import numpy as np
import composed as C
import pytest
from composed import composed_block
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfuse import tensor as T
from crossfuse.ssm import (
    MambaBlockParams,
    SSMParams,
    SSMState,
    block_forward,
    init_block,
    init_ssm,
    scan_sequence,
    scan_step,
    stack_forward,
)
from crossfuse.fusion import _gather as gather
from crossfuse.interleave import row_window
from crossfuse.temporal import swap_parameters, walk_parameters
from crossfuse.tensor import Graph, GraphError, ShapeError, Tensor, backward, grad_check

LN2 = math.log(2.0)


def _params_from_arrays(a_log, w_b, dt_down, dt_up, dt_bias, w_out, prefix="s"):
    return SSMParams(
        a_log=T.parameter(np.asarray(a_log, np.float32), f"{prefix}.A_log"),
        w_b=T.parameter(np.asarray(w_b, np.float32), f"{prefix}.w_b"),
        dt_down=T.parameter(np.asarray(dt_down, np.float32), f"{prefix}.dt_down"),
        dt_up=T.parameter(np.asarray(dt_up, np.float32), f"{prefix}.dt_up"),
        dt_bias=T.parameter(np.asarray(dt_bias, np.float32), f"{prefix}.dt_bias"),
        w_out=T.parameter(np.asarray(w_out, np.float32), f"{prefix}.w_out"),
    )


def _random_params(rng, channels, state, rank, prefix="s", scale=0.5):
    return _params_from_arrays(
        a_log=rng.normal(0, scale, (channels, state)),
        w_b=rng.normal(0, scale, (channels, state)),
        dt_down=rng.normal(0, scale, (channels, rank)),
        dt_up=rng.normal(0, scale, (rank, channels)),
        dt_bias=rng.normal(0, scale, (channels,)),
        w_out=rng.normal(0, scale, (channels, state)),
        prefix=prefix,
    )


def _reference_scan(params: SSMParams, tokens: np.ndarray, h0=None):
    """Float64 recurrence straight from the update equations; no shared code
    with the scan op beyond numpy itself."""
    a = -np.exp(params.a_log.data.astype(np.float64))
    w_b = params.w_b.data.astype(np.float64)
    dt_down = params.dt_down.data.astype(np.float64)
    dt_up = params.dt_up.data.astype(np.float64)
    dt_bias = params.dt_bias.data.astype(np.float64)
    w_out = params.w_out.data.astype(np.float64)
    x = tokens.astype(np.float64)
    length, channels = x.shape
    h = np.zeros_like(a) if h0 is None else h0.astype(np.float64)
    ys = np.zeros((length, channels))
    for t in range(length):
        delta = np.logaddexp(0.0, x[t] @ dt_down @ dt_up + dt_bias)  # (C,)
        b_t = x[t] @ w_b                                             # (N,)
        a_bar = np.exp(delta[:, None] * a)
        h = a_bar * h + (delta * x[t])[:, None] * b_t[None, :]
        ys[t] = (w_out * h).sum(axis=-1)
    return ys, h


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

def test_discretize_vector_golden():
    # One step of scan_step pins the discretization. A = -exp(a_log) = [-1, -2],
    # B = x * [3, 4] and, with a zero delta projection, delta = softplus(dt_bias)
    # = 0.5. From h = 1 with x = 0 the state becomes A_bar = exp(delta A); from
    # h = 0 with x = 1 it becomes B_bar x = delta B x.
    params = _params_from_arrays(
        a_log=[[0.0, LN2]], w_b=[[3.0, 4.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[math.log(math.expm1(0.5))], w_out=[[1.0, 1.0]],
    )
    ones = SSMState(Tensor(np.ones((1, 2), np.float32)))
    _, decayed = scan_step(params, Tensor(np.zeros(1, np.float32)), ones)
    np.testing.assert_allclose(decayed.h.data, [[math.exp(-0.5), math.exp(-1.0)]], rtol=1e-6)
    y, driven = scan_step(params, Tensor(np.ones(1, np.float32)), SSMState.zeros(1, 2))
    np.testing.assert_allclose(driven.h.data, [[1.5, 2.0]], rtol=1e-6)
    np.testing.assert_allclose(y.data, [3.5], rtol=1e-6)


# ---------------------------------------------------------------------------
# Scan correctness
# ---------------------------------------------------------------------------

def test_impulse_response_golden():
    # One channel, one state. Unit B weight, zero delta projection so
    # delta = softplus(0) = ln 2, A = -exp(0) = -1, unit readout. For the
    # impulse [1, 0, 0] the state is ln2 * (1/2)^(t-1):
    #   h1 = ln2 * 1 * 1, then pure decay by exp(-ln2) = 1/2 each step.
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    x = Tensor(np.array([[1.0], [0.0], [0.0]], np.float32))
    y, state = scan_sequence(params, x)
    np.testing.assert_allclose(
        y.data, [[LN2], [LN2 / 2.0], [LN2 / 4.0]], rtol=0, atol=1e-6
    )
    np.testing.assert_allclose(state.h.data, [[LN2 / 4.0]], rtol=0, atol=1e-6)


def test_impulse_decay_is_geometric_over_ten_steps():
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    x = np.zeros((10, 1), np.float32)
    x[0, 0] = 1.0
    y, _ = scan_sequence(params, Tensor(x))
    ratios = y.data[1:, 0] / y.data[:-1, 0]
    np.testing.assert_allclose(ratios, 0.5, rtol=0, atol=1e-6)


def test_scan_matches_float64_reference():
    rng = np.random.default_rng(42)
    for _ in range(25):
        channels = int(rng.integers(1, 6))
        state = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 3))
        length = int(rng.integers(1, 12))
        params = _random_params(rng, channels, state, rank)
        tokens = rng.normal(0, 1.0, (length, channels)).astype(np.float32)
        y, last = scan_sequence(params, Tensor(tokens))
        y_ref, h_ref = _reference_scan(params, tokens)
        np.testing.assert_allclose(y.data, y_ref, rtol=0, atol=1e-5)
        np.testing.assert_allclose(last.h.data, h_ref, rtol=0, atol=1e-5)


def test_scan_sequence_equals_folded_scan_step():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        channels = int(rng.integers(1, 7))
        state = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 3))
        length = int(rng.integers(1, 13))
        params = _random_params(rng, channels, state, rank)
        tokens = rng.normal(0, 1.0, (length, channels)).astype(np.float32)
        y_seq, final_seq = scan_sequence(params, Tensor(tokens))
        state_t = SSMState.zeros(channels, state)
        ys = []
        for t in range(length):
            y_t, state_t = scan_step(params, Tensor(tokens[t]), state_t)
            ys.append(y_t.data)
        stepped = np.stack(ys)
        worst = max(worst, float(np.abs(stepped - y_seq.data).max()))
        np.testing.assert_allclose(y_seq.data, stepped, rtol=0, atol=1e-6)
        np.testing.assert_allclose(final_seq.h.data, state_t.h.data, rtol=0, atol=1e-6)
    assert worst <= 1e-6


def test_scan_honours_initial_state():
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    h0 = SSMState(Tensor(np.array([[8.0]], np.float32)))
    x = Tensor(np.zeros((2, 1), np.float32))
    y, _ = scan_sequence(params, x, state0=h0)
    # Pure decay from h0: 8 * 1/2, 8 * 1/4.
    np.testing.assert_allclose(y.data, [[4.0], [2.0]], rtol=0, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=5),
    state=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fold_equivalence_property(channels, state, length, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(rng, channels, state, 1)
    tokens = rng.normal(0, 1.0, (length, channels)).astype(np.float32)
    y_seq, _ = scan_sequence(params, Tensor(tokens))
    state_t = SSMState.zeros(channels, state)
    for t in range(length):
        y_t, state_t = scan_step(params, Tensor(tokens[t]), state_t)
        np.testing.assert_allclose(y_seq.data[t], y_t.data, rtol=0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=8),
    state=st.integers(min_value=1, max_value=5),
    rank=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_scan_step_is_the_sequence_scan_on_one_token(channels, state, rank, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(rng, channels, state, rank)
    token = rng.normal(0, 1.0, channels).astype(np.float32)
    h0 = SSMState(Tensor(rng.normal(0, 0.5, (channels, state)).astype(np.float32)))
    y_t, state_t = scan_step(params, Tensor(token), h0)
    y_seq, state_seq = scan_sequence(params, Tensor(token[None]), state0=h0)
    _assert_same_bits(y_t.data, y_seq.data[0], "y")
    _assert_same_bits(state_t.h.data, state_seq.h.data, "state")


def test_scan_step_holds_the_state_when_delta_underflows():
    # softplus(-200) underflows to 0 in float32, so the step neither decays nor
    # drives the state, and y reads the held state out.
    params = _params_from_arrays(
        a_log=[[0.0], [0.0]], w_b=[[1.0], [1.0]], dt_down=[[0.0], [0.0]], dt_up=[[0.0, 0.0]],
        dt_bias=[-200.0, -200.0], w_out=[[1.0], [1.0]],
    )
    token = np.ones(2, np.float32)
    h0 = SSMState(Tensor(np.full((2, 1), 1.5, np.float32)))
    y_t, state_t = scan_step(params, Tensor(token), h0)
    y_seq, state_seq = scan_sequence(params, Tensor(token[None]), state0=h0)
    np.testing.assert_array_equal(y_t.data, [1.5, 1.5])
    np.testing.assert_array_equal(state_t.h.data, h0.h.data)
    _assert_same_bits(y_t.data, y_seq.data[0], "y")
    _assert_same_bits(state_t.h.data, state_seq.h.data, "state")


def test_scan_is_stable_over_long_sequences():
    # |A_bar| < 1 by construction, so even 500 steps of constant drive stay
    # bounded by the geometric-series limit.
    rng = np.random.default_rng(3)
    params = _random_params(rng, 4, 4, 1, scale=1.0)
    tokens = np.ones((500, 4), np.float32)
    y, last = scan_sequence(params, Tensor(tokens))
    assert np.all(np.isfinite(y.data))
    assert float(np.abs(y.data).max()) < 1e3
    assert np.all(np.isfinite(last.h.data))


# ---------------------------------------------------------------------------
# Scan interface errors
# ---------------------------------------------------------------------------

def test_scan_sequence_shape_errors():
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    with pytest.raises(ShapeError, match="rank-2"):
        scan_sequence(params, Tensor(np.zeros(3, np.float32)))
    with pytest.raises(ShapeError, match="channels"):
        scan_sequence(params, Tensor(np.zeros((3, 2), np.float32)))
    bad_state = SSMState(Tensor(np.zeros((2, 1), np.float32)))
    with pytest.raises(ShapeError, match="state"):
        scan_sequence(params, Tensor(np.zeros((3, 1), np.float32)), state0=bad_state)


def test_scan_step_shape_errors():
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    good = SSMState.zeros(1, 1)
    with pytest.raises(ShapeError, match="token"):
        scan_step(params, Tensor(np.zeros(2, np.float32)), good)
    with pytest.raises(ShapeError, match="state"):
        scan_step(params, Tensor(np.zeros(1, np.float32)), SSMState.zeros(1, 3))


def test_scan_refuses_to_run_while_a_graph_records():
    params = _params_from_arrays(
        a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
        dt_bias=[0.0], w_out=[[1.0]],
    )
    with Graph() as g:
        with pytest.raises(GraphError, match="outside a Graph"):
            scan_sequence(params, Tensor(np.ones((3, 1), np.float32)))
        with pytest.raises(GraphError, match="outside a Graph"):
            scan_step(params, Tensor(np.ones(1, np.float32)), SSMState.zeros(1, 1))
    assert len(g) == 0


def test_ssm_params_shape_validation():
    with pytest.raises(ShapeError, match="dt_up"):
        _params_from_arrays(
            a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0], [0.0]],
            dt_bias=[0.0], w_out=[[1.0]],
        )


# ---------------------------------------------------------------------------
# Initialization contracts
# ---------------------------------------------------------------------------

def test_init_ssm_decay_rates_span_one_to_state_size():
    params = init_ssm(np.random.default_rng(0), channels=3, state_size=5)
    a = -np.exp(params.a_log.data)
    for row in a:
        np.testing.assert_allclose(row, [-1.0, -2.0, -3.0, -4.0, -5.0], rtol=1e-6)


def test_init_ssm_step_sizes_land_in_band():
    params = init_ssm(np.random.default_rng(1), channels=64, state_size=4)
    dt = np.logaddexp(0.0, params.dt_bias.data.astype(np.float64))
    assert dt.min() >= 1e-3 * (1 - 1e-4)
    assert dt.max() <= 1e-1 * (1 + 1e-4)


def test_init_block_zeroed_output_projection():
    block = init_block(np.random.default_rng(2), dim=4)
    np.testing.assert_array_equal(block.out_w.data, 0.0)
    np.testing.assert_array_equal(block.out_b.data, 0.0)


# ---------------------------------------------------------------------------
# Block behaviour
# ---------------------------------------------------------------------------

def test_block_is_identity_at_init():
    rng = np.random.default_rng(5)
    block = init_block(rng, dim=6, state_size=4, conv_kernel=3)
    tokens = Tensor(rng.normal(size=(9, 6)).astype(np.float32))
    out = block_forward(block, tokens)
    np.testing.assert_array_equal(out.data, tokens.data)


def _active_block(rng, dim=4, **kw):
    """A block whose output projection is randomized so it actually mixes."""
    block = init_block(rng, dim=dim, **kw)
    block.out_w = T.parameter(
        rng.normal(0, 0.3, size=block.out_w.shape).astype(np.float32), block.out_w.name
    )
    return block


def test_block_is_causal():
    rng = np.random.default_rng(6)
    block = _active_block(rng, dim=4, state_size=3, conv_kernel=3)
    tokens = rng.normal(size=(8, 4)).astype(np.float32)
    bumped = tokens.copy()
    bumped[5] += 1.0
    a = block_forward(block, Tensor(tokens)).data
    b = block_forward(block, Tensor(bumped)).data
    np.testing.assert_array_equal(a[:5], b[:5])
    assert not np.array_equal(a[5:], b[5:])


def test_block_pencil_value():
    # Every width collapsed to 1 so the whole block folds to scalars:
    # layer norm of a width-1 row is beta (here 1), so the SSM input is
    # silu(1) for every token regardless of u. With unit B/readout, zero
    # delta projection (delta = ln 2) and A = -1:
    #   h_t = h_{t-1} / 2 + ln2 * silu(1)^2,   out_t = u_t + h_t * silu(1).
    s1 = 1.0 / (1.0 + math.exp(-1.0))
    drive = LN2 * s1 * s1
    h = 0.0
    expected = []
    for u in (1.0, 2.0, 3.0):
        h = h / 2.0 + drive
        expected.append(u + h * s1)
    block = MambaBlockParams(
        norm_gamma=T.parameter(np.ones(1, np.float32), "b.norm.gamma"),
        norm_beta=T.parameter(np.ones(1, np.float32), "b.norm.beta"),
        in_w=T.parameter(np.ones((1, 1), np.float32), "b.in_proj.w"),
        conv_k=T.parameter(np.ones((1, 1), np.float32), "b.conv.w"),
        conv_b=T.parameter(np.zeros(1, np.float32), "b.conv.b"),
        gate_w=T.parameter(np.ones((1, 1), np.float32), "b.gate.w"),
        ssm=_params_from_arrays(
            a_log=[[0.0]], w_b=[[1.0]], dt_down=[[0.0]], dt_up=[[0.0]],
            dt_bias=[0.0], w_out=[[1.0]], prefix="b.ssm",
        ),
        out_w=T.parameter(np.ones((1, 1), np.float32), "b.out_proj.w"),
        out_b=T.parameter(np.zeros(1, np.float32), "b.out_proj.b"),
    )
    tokens = Tensor(np.array([[1.0], [2.0], [3.0]], np.float32))
    out = block_forward(block, tokens)
    np.testing.assert_allclose(out.data[:, 0], expected, rtol=0, atol=1e-6)


def test_stack_forward_composes_blocks_in_order():
    rng = np.random.default_rng(8)
    blocks = [_active_block(rng, dim=3, state_size=2) for _ in range(3)]
    tokens = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
    final = stack_forward(blocks, tokens)
    per_layer = [block_forward(blocks[0], tokens)]
    for block in blocks[1:]:
        per_layer.append(block_forward(block, per_layer[-1]))
    assert len(per_layer) == 3
    np.testing.assert_array_equal(per_layer[-1].data, final.data)
    assert not np.array_equal(per_layer[0].data, final.data)


def test_stack_forward_rejects_empty():
    with pytest.raises(ValueError, match="at least one block"):
        stack_forward([], Tensor(np.zeros((2, 2), np.float32)))


def test_block_forward_shape_error():
    block = init_block(np.random.default_rng(9), dim=4)
    with pytest.raises(ShapeError, match="block dim"):
        block_forward(block, Tensor(np.zeros((3, 5), np.float32)))


def test_block_gradients_flow_to_every_family():
    rng = np.random.default_rng(10)
    block = _active_block(rng, dim=2, state_size=2, conv_kernel=2)
    tokens = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
    with Graph() as g:
        out = block_forward(block, tokens)
        loss = C.reduce_sum(C.mul(out, out))
    grads = backward(g, loss, [t for _, _, t in walk_parameters(block)])
    for name, grad in grads.items():
        assert float(np.abs(grad.data).max()) > 0.0, f"zero gradient for {name}"


# ---------------------------------------------------------------------------
# The fused scan op against the chain of core ops it replaces
# ---------------------------------------------------------------------------

def _stepwise_recurrence_fwd(x, delta, b_seq, a, state0):
    """h_t = exp(delta_t A) h_{t-1} + (delta_t x_t) B_t, one token at a time,
    written from the update equations; the scan kernel must match it."""
    d_a = np.stack([np.exp(delta[t][:, None] * a) for t in range(len(x))])
    h_all = np.empty_like(d_a)
    h = state0
    for t in range(len(x)):
        h = h_all[t] = d_a[t] * h + (delta[t] * x[t])[:, None] * b_seq[t][None, :]
    ctx = {"x": x, "delta": delta, "b_seq": b_seq, "a": a, "state0": state0, "d_a": d_a, "h_all": h_all}
    return h_all, ctx


def _stepwise_recurrence_bwd(ctx, g):
    """The recurrence's adjoint as first written, forming g_da inside the
    loop and every product where it is used; the leaner kernel must match it."""
    x, delta, b_seq, a = ctx["x"], ctx["delta"], ctx["b_seq"], ctx["a"]
    state0, d_a, h_all = ctx["state0"], ctx["d_a"], ctx["h_all"]
    length = x.shape[0]
    g_da = np.empty_like(d_a)
    g_dbx = np.empty_like(d_a)
    acc = np.zeros_like(state0)
    for t in range(length - 1, -1, -1):
        acc = np.add(acc, g[t], out=g_dbx[t])
        np.multiply(acc, h_all[t - 1] if t > 0 else state0, out=g_da[t])
        acc = d_a[t] * acc
    dx_delta = delta * x
    g_delta = (g_da * d_a * a[None]).sum(axis=-1) + (g_dbx * b_seq[:, None, :]).sum(axis=-1) * x
    g_x = (g_dbx * b_seq[:, None, :]).sum(axis=-1) * delta
    g_b = (g_dbx * dx_delta[:, :, None]).sum(axis=1)
    g_a = (g_da * d_a * delta[:, :, None]).sum(axis=0)
    return g_x, g_delta, g_b, g_a, acc


# The recurrence alone as a taped op, stepwise and sharing no code with the
# scan kernel, so the oracle below records the twelve-node chain that the
# kernel replaces.
T.register_op("test_recurrence", _stepwise_recurrence_fwd, _stepwise_recurrence_bwd)


def _composed_scan(params: SSMParams, tokens: Tensor, state0=None):
    length, channels = tokens.shape
    if state0 is None:
        state0 = SSMState.zeros(channels, params.state_size)
    b_seq = T.linear(tokens, params.w_b)
    low = T.linear(tokens, params.dt_down)
    delta = C.softplus(T.add(T.linear(low, params.dt_up), params.dt_bias))
    a = C.scale(C.exp(params.a_log), -1.0)
    h_all = T.op_forward("test_recurrence", (tokens, delta, b_seq, a, state0.h))
    y = C.reduce_sum(C.mul(h_all, params.w_out), axis=-1)
    last = T.op_forward("take_rows", (h_all,), rows=row_window(length - 1, 1, length),
                        width=channels * params.state_size, shape=(channels, params.state_size))
    return y, SSMState(last), h_all


def _assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want), f"{what}: max diff {np.abs(got - want).max()}"


def _to_float64(params: SSMParams) -> SSMParams:
    return SSMParams(*(T.parameter(t.data.astype(np.float64), t.name) for _, _, t in walk_parameters(params)))


def _assert_close(got, want, magnitude, what):
    """float32 ``got`` within SCAN_TOL of the float64 ``want``, scaled by the
    largest ``magnitude``: the sum of the absolute products that make an entry,
    so that cancellation in a sum does not blow the scale down."""
    assert got.dtype == np.float32 and got.shape == want.shape == magnitude.shape, what
    err = np.abs(got - want).max() / max(magnitude.max(), 1e-30)
    assert err <= SCAN_TOL, f"{what}: scaled error {err:.3e}"


# The worst scaled error of y, the taped y and the w_out gradient was 1.8e-6
# over 3 runs of 3000 examples of the strategy below.
SCAN_TOL = 1e-5


@settings(max_examples=30, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=6),
    state=st.integers(min_value=1, max_value=5),
    rank=st.integers(min_value=1, max_value=3),
    length=st.integers(min_value=1, max_value=12),
    carry=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fused_scan_matches_the_composed_chain(channels, state, rank, length, carry, seed):
    """The readout y = sum_n w_out h and its w_out gradient against the chain
    in float64, and every other output bit for bit against the float32 chain."""
    rng = np.random.default_rng(seed)
    params = _random_params(rng, channels, state, rank)
    tokens = T.parameter(rng.normal(0, 1.0, (length, channels)).astype(np.float32), "s.x")
    h0 = SSMState(Tensor(rng.normal(0, 0.5, (channels, state)).astype(np.float32))) if carry else None
    w_y = rng.normal(size=(length, channels)).astype(np.float32)
    params64 = _to_float64(params)
    tokens64 = T.parameter(tokens.data.astype(np.float64), "s.x")

    def assert_readout_close(y, state0, what):
        y64, _, h64 = _composed_scan(params64, tokens64, state0)
        magnitude = np.einsum("lcn,cn->lc", np.abs(h64.data), np.abs(params64.w_out.data))
        _assert_close(y.data, y64.data, magnitude, what)
        return h64.data

    y, last = scan_sequence(params, tokens, h0)
    assert_readout_close(y, None if h0 is None else SSMState(Tensor(h0.h.data.astype(np.float64))), "y")
    _assert_same_bits(last.h.data, _composed_scan(params, tokens, h0)[1].h.data, "final state")

    def run(scan, params, tokens):
        with Graph() as g:
            y = scan(params, tokens)
            loss = C.reduce_sum(C.mul(y, Tensor(w_y.astype(tokens.dtype))))
        return y, backward(g, loss, [t for _, _, t in walk_parameters(params)] + [tokens])

    def composed(p, x):
        return _composed_scan(p, x)[0]

    y, grads = run(C.scan, params, tokens)
    _, grads_ref = run(composed, params, tokens)
    _, grads64 = run(composed, params64, tokens64)
    h64 = assert_readout_close(y, None, "taped y")
    assert sorted(grads) == sorted(grads_ref) == sorted(grads64)
    for name in grads:
        if name == "s.w_out":
            magnitude = np.einsum("lc,lcn->cn", np.abs(w_y.astype(np.float64)), np.abs(h64))
            _assert_close(grads[name].data, grads64[name].data, magnitude, name)
        else:
            _assert_same_bits(grads[name].data, grads_ref[name].data, name)


def test_block_scan_is_one_op_and_matches_the_sequence_scan():
    rng = np.random.default_rng(12)
    params = _random_params(rng, 4, 3, 1)
    tokens = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
    with Graph() as g:
        y = C.scan(params, tokens)
    assert [n.kind for n in g.nodes] == ["ssm_scan"]
    y_seq, _ = scan_sequence(params, tokens)
    _assert_same_bits(y.data, y_seq.data, "y")


def test_fused_scan_gradients_without_state_match_finite_differences():
    rng = np.random.default_rng(13)
    base = _random_params(rng, 3, 2, 1)
    tokens = rng.normal(0, 0.8, (4, 3))
    params = {t.name: t for _, _, t in walk_parameters(base)}
    params["s.x"] = T.parameter(tokens.astype(np.float32), "s.x")

    def f(p):
        sp = SSMParams(
            a_log=p["s.A_log"], w_b=p["s.w_b"], dt_down=p["s.dt_down"],
            dt_up=p["s.dt_up"], dt_bias=p["s.dt_bias"], w_out=p["s.w_out"],
        )
        y = C.scan(sp, p["s.x"])
        return C.reduce_sum(C.mul(y, y))

    report = grad_check(f, params)
    assert report.max_rel_error < 1e-3, (
        f"worst {report.worst_param}[{report.worst_index}] = {report.max_rel_error:.3e}"
    )


# ---------------------------------------------------------------------------
# The fused block op against the ten-op chain it replaces
# ---------------------------------------------------------------------------

def _random_block(rng, dim, state, conv, expand):
    """A block with every parameter drawn at random, so no gradient is trivially zero."""
    block = init_block(rng, dim, state_size=state, conv_kernel=conv, expand=expand, prefix="b")
    swap_parameters(block, {t.name: Tensor(rng.normal(0, 0.5, t.shape).astype(np.float32))
                            for _, _, t in walk_parameters(block)})
    return block


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    state=st.integers(min_value=1, max_value=4),
    conv=st.integers(min_value=1, max_value=4),
    expand=st.integers(min_value=1, max_value=2),
    length=st.integers(min_value=1, max_value=12),
    carry=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fused_block_equals_composed_chain_bit_for_bit(dim, state, conv, expand, length, carry, seed):
    rng = np.random.default_rng(seed)
    block = _random_block(rng, dim, state, conv, expand)
    x = T.parameter(rng.normal(0, 1.0, (length, dim)).astype(np.float32), "b.x")
    row = T.parameter(rng.normal(0, 1.0, (1, dim)).astype(np.float32), "b.carry")
    w = Tensor(rng.normal(size=(length + carry, dim)).astype(np.float32))

    def run(block_fn):
        with Graph() as g:
            tokens = gather((row, x), row_window(0, length + 1, length + 1)) if carry else x
            out = block_fn(block, tokens)
            loss = C.reduce_sum(C.mul(out, w))
        return out, backward(g, loss, [t for _, _, t in walk_parameters(block)] + [x, row])

    out, grads = run(block_forward)
    out_ref, grads_ref = run(composed_block)
    _assert_same_bits(out.data, out_ref.data, "block output")
    assert sorted(grads) == sorted(grads_ref)
    assert len(grads) == 14 + 2  # block parameters, tokens, carry row
    for name in grads:
        _assert_same_bits(grads[name].data, grads_ref[name].data, name)


def test_block_is_one_op():
    rng = np.random.default_rng(14)
    block = _random_block(rng, 3, 2, 2, 2)
    with Graph() as g:
        block_forward(block, Tensor(rng.normal(size=(5, 3)).astype(np.float32)))
    assert [n.kind for n in g.nodes] == ["mamba_block"]


def test_block_rejects_an_empty_sequence():
    block = init_block(np.random.default_rng(15), dim=2)
    with pytest.raises(ShapeError, match="empty sequence"):
        block_forward(block, Tensor(np.zeros((0, 2), np.float32)))


def test_fused_block_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    block = _random_block(rng, 2, 2, 2, 2)
    params = {t.name: t for _, _, t in walk_parameters(block)}
    params["b.x"] = T.parameter(rng.normal(0, 0.8, (4, 2)).astype(np.float32), "b.x")

    def f(p):
        swap_parameters(block, {k: v for k, v in p.items() if k != "b.x"})
        y = block_forward(block, p["b.x"])
        return C.reduce_sum(C.mul(y, y))

    report = grad_check(f, params)
    assert report.max_rel_error < 1e-3, (
        f"worst {report.worst_param}[{report.worst_index}] = {report.max_rel_error:.3e}"
    )
