"""Token ordering tests.

The orderings for tiny grids are written out by hand; everything else is
checked as a bijection property.
"""

import composed as C
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfuse import tensor as T
from crossfuse.fusion import _gather as gather, patch, unpatch
from crossfuse.interleave import (
    RGB,
    THERMAL,
    OcfLayout,
    RowIndex,
    build_layout,
    channel_stack,
    ocf_flatten,
    ocf_unflatten,
    row_window,
)
from crossfuse.tensor import Graph, ShapeError, Tensor, backward, grad_check, op_forward


def _grids(rows, cols, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    rgb = Tensor(rng.normal(size=(rows, cols, channels)).astype(np.float32))
    thm = Tensor(rng.normal(size=(rows, cols, channels)).astype(np.float32))
    return rgb, thm


# ---------------------------------------------------------------------------
# Hand-written orders
# ---------------------------------------------------------------------------

def test_order_1x2_golden():
    layout = build_layout(1, 2)
    assert layout.order == (
        (RGB, 0, 0), (THERMAL, 0, 0), (RGB, 0, 1), (THERMAL, 0, 1),
    )
    np.testing.assert_array_equal(layout.gather.index, [0, 2, 1, 3])


def test_order_1x4_golden():
    # Even columns ascending (0, 2) then odd columns descending (3, 1),
    # each pixel contributing its RGB token then its thermal token.
    layout = build_layout(1, 4)
    cols = [c for (_, _, c) in layout.order[::2]]
    assert cols == [0, 2, 3, 1]
    np.testing.assert_array_equal(layout.gather.index, [0, 4, 2, 6, 3, 7, 1, 5])


def test_order_2x3_column_walk():
    # Odd width: evens 0, 2 then the single odd column 1, per row.
    layout = build_layout(2, 3)
    per_row = [[c for (_, r, c) in layout.order[::2] if r == row] for row in (0, 1)]
    assert per_row == [[0, 2, 1], [0, 2, 1]]


def test_order_rows_visited_in_sequence():
    layout = build_layout(3, 2)
    rows = [r for (_, r, _) in layout.order[::2]]
    assert rows == [0, 0, 1, 1, 2, 2]


def test_order_modalities_alternate_per_pixel():
    layout = build_layout(4, 6)
    for t in range(0, layout.tokens, 2):
        m0, r0, c0 = layout.order[t]
        m1, r1, c1 = layout.order[t + 1]
        assert (m0, m1) == (RGB, THERMAL)
        assert (r0, c0) == (r1, c1)


def test_flatten_1x2_token_values():
    rgb = Tensor(np.array([[[10.0], [11.0]]], np.float32))
    thm = Tensor(np.array([[[20.0], [21.0]]], np.float32))
    out = ocf_flatten(rgb, thm, build_layout(1, 2))
    np.testing.assert_array_equal(out.data[:, 0], [10.0, 20.0, 11.0, 21.0])


def test_flatten_matches_gather_of_stacked_pixels():
    rgb, thm = _grids(3, 4, channels=2, seed=1)
    layout = build_layout(3, 4)
    stacked = np.concatenate(
        [rgb.data.reshape(-1, 2), thm.data.reshape(-1, 2)], axis=0
    )
    out = ocf_flatten(rgb, thm, layout)
    np.testing.assert_array_equal(out.data, stacked[layout.gather.index])


# ---------------------------------------------------------------------------
# Bijection
# ---------------------------------------------------------------------------

def test_gather_and_scatter_are_inverse_permutations():
    layout = build_layout(5, 7)
    gather, scatter = layout.gather.index, layout.scatter.index
    n = layout.tokens
    assert sorted(gather.tolist()) == list(range(n))
    np.testing.assert_array_equal(gather[scatter], np.arange(n))


def test_roundtrip_restores_both_grids():
    for rows, cols, ch in ((1, 1, 1), (1, 2, 3), (2, 3, 2), (4, 4, 5), (3, 8, 1)):
        rgb, thm = _grids(rows, cols, ch, seed=rows * 100 + cols)
        layout = build_layout(rows, cols)
        tokens = ocf_flatten(rgb, thm, layout)
        assert tokens.shape == (2 * rows * cols, ch)
        back_rgb, back_thm = ocf_unflatten(tokens, layout)
        np.testing.assert_array_equal(back_rgb.data, rgb.data)
        np.testing.assert_array_equal(back_thm.data, thm.data)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=9),
    cols=st.integers(min_value=1, max_value=9),
    channels=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_roundtrip_property(rows, cols, channels, seed):
    rgb, thm = _grids(rows, cols, channels, seed)
    layout = build_layout(rows, cols)
    back_rgb, back_thm = ocf_unflatten(ocf_flatten(rgb, thm, layout), layout)
    np.testing.assert_array_equal(back_rgb.data, rgb.data)
    np.testing.assert_array_equal(back_thm.data, thm.data)


def test_layout_is_cached():
    assert build_layout(2, 2) is build_layout(2, 2)


# ---------------------------------------------------------------------------
# Gradients through the permutation
# ---------------------------------------------------------------------------

def test_flatten_gradient_is_inverse_permutation():
    rgb, thm = _grids(2, 2, channels=1, seed=3)
    with Graph() as g:
        rgb_p = T.parameter(rgb.data, "p.rgb")
        tokens = ocf_flatten(rgb_p, thm, build_layout(2, 2))
        weights = Tensor(np.arange(8, dtype=np.float32).reshape(8, 1))
        loss = C.reduce_sum(C.mul(tokens, weights))
    grads = backward(g, loss, [rgb_p])
    layout = build_layout(2, 2)
    expected = np.zeros(8, np.float32)
    for slot, src in enumerate(layout.gather.index):
        expected[src] = slot
    np.testing.assert_array_equal(grads["p.rgb"].data.reshape(-1), expected[:4])


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

def test_flatten_rejects_mismatched_modalities():
    rgb, _ = _grids(2, 2)
    _, thm = _grids(2, 3)
    with pytest.raises(ShapeError, match="shapes differ"):
        ocf_flatten(rgb, thm, build_layout(2, 2))


def test_flatten_rejects_wrong_rank():
    bad = Tensor(np.zeros((2, 2), np.float32))
    with pytest.raises(ShapeError, match="rank-3"):
        ocf_flatten(bad, bad, build_layout(2, 2))


def test_flatten_rejects_layout_for_other_grid():
    rgb, thm = _grids(2, 2)
    with pytest.raises(ShapeError, match="layout"):
        ocf_flatten(rgb, thm, build_layout(3, 3))


def test_unflatten_rejects_wrong_token_count():
    layout = build_layout(2, 2)
    with pytest.raises(ShapeError, match="token"):
        ocf_unflatten(Tensor(np.zeros((6, 1), np.float32)), layout)


def test_take_rows_rejects_out_of_range_index():
    with pytest.raises(ShapeError, match="out of range for 2 rows"):
        RowIndex((0, 5), 2)
    with pytest.raises(ShapeError, match="out of range"):
        RowIndex((-1, 0), 2)


@pytest.mark.parametrize("index", [(0, 0, 1), [[0, 1]], (0.0, 1.0)])
def test_row_index_rejects_a_repeat_or_a_malformed_index(index):
    with pytest.raises(ShapeError, match="repeats|1-d integers"):
        RowIndex(index, 3)


def test_take_rows_rejects_a_source_with_the_wrong_row_count():
    rows = RowIndex((1, 0), 2)
    x = Tensor(np.zeros((3, 1), np.float32))
    with pytest.raises(ShapeError, match="over 2 rows, inputs have 3"):
        op_forward("take_rows", [x], rows=rows, width=1, shape=(2, 1))


def test_take_rows_rejects_an_input_that_does_not_split_into_rows_of_its_width():
    inputs = (Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((2, 4), np.float32)))
    with pytest.raises(ShapeError, match=r"take_rows: inputs \[\(2, 3\), \(2, 4\)\] do not split into rows of 3"):
        gather(inputs, row_window(0, 4, 4))


def test_row_index_is_a_frozen_copy():
    source = np.array([1, 0])
    rows = RowIndex(source, 2)
    source[0] = 0
    np.testing.assert_array_equal(rows.index, [1, 0])
    with pytest.raises(ValueError, match="read-only"):
        rows.index[0] = 0


def test_layout_validates_dimensions():
    with pytest.raises(ValueError, match="rows >= 1"):
        build_layout(0, 3)


# ---------------------------------------------------------------------------
# Patched layouts against space-to-depth followed by the token permutation
# ---------------------------------------------------------------------------

def _chained_flatten(rgb, thm, size):
    """patch, then the unpatched flatten as it was composed from core ops."""
    p_rgb, p_thm = patch(rgb, size), patch(thm, size)
    rows, cols, packed = p_rgb.shape
    return op_forward("take_rows", (p_rgb, p_thm), rows=build_layout(rows, cols).gather, width=packed,
                      shape=(2 * rows * cols, packed))


def _chained_unflatten(tokens, rows, cols, size):
    """The unpatched unflatten as it was composed from core ops, then unpatch."""
    layout = build_layout(rows, cols)
    packed = tokens.shape[1]
    stacked = op_forward("take_rows", (tokens,), rows=layout.scatter, width=packed,
                         shape=tokens.shape)
    hw = rows * cols
    halves = (op_forward("take_rows", (stacked,), rows=row_window(m * hw, hw, 2 * hw), width=packed,
                         shape=(rows, cols, packed)) for m in (RGB, THERMAL))
    return tuple(unpatch(h, size) for h in halves)


def _weighted_sum(outputs, rng):
    loss = None
    for out in outputs:
        term = C.reduce_sum(C.mul(out, Tensor(rng.normal(size=out.shape).astype(np.float32))))
        loss = term if loss is None else T.add(loss, term)
    return loss


def _run(fn, inputs, seed):
    params = [T.parameter(a, f"p{i}") for i, a in enumerate(inputs)]
    with Graph() as g:
        outputs = fn(*params)
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        loss = _weighted_sum(outputs, np.random.default_rng(seed))
    grads = backward(g, loss, params)
    return [o.data for o in outputs], [grads[p.name].data for p in params]


def _assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    channels=st.integers(min_value=1, max_value=3),
    size=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_patched_layout_equals_patch_then_flatten(rows, cols, channels, size, seed):
    rng = np.random.default_rng(seed)
    maps = [rng.normal(size=(rows * size, cols * size, channels)).astype(np.float32) for _ in range(2)]
    tokens = rng.normal(size=(2 * rows * cols, channels * size * size)).astype(np.float32)
    layout = build_layout(rows, cols, size)

    got = _run(lambda r, t: ocf_flatten(r, t, layout), maps, seed)
    _assert_same(got[0] + got[1], sum(_run(lambda r, t: _chained_flatten(r, t, size), maps, seed), []))

    got = _run(lambda y: ocf_unflatten(y, layout), [tokens], seed)
    want = _run(lambda y: _chained_unflatten(y, rows, cols, size), [tokens], seed)
    _assert_same(got[0] + got[1], want[0] + want[1])

    # patch against space-to-depth spelt out in numpy; its adjoint is the
    # inverse permutation of the upstream gradient.
    (packed,), (grad,) = _run(lambda x: patch(x, size), maps[:1], seed)
    h, w = rows * size, cols * size
    blocks = maps[0].reshape(rows, size, cols, size, channels).transpose(0, 2, 1, 3, 4)
    _assert_same([packed], [blocks.reshape(rows, cols, size * size * channels)])
    g_out = np.random.default_rng(seed).normal(size=packed.shape).astype(np.float32)
    g_in = g_out.reshape(rows, cols, size, size, channels).transpose(0, 2, 1, 3, 4).reshape(h, w, channels)
    _assert_same([grad], [g_in])


def test_patched_layout_adjoints_pass_grad_check():
    rng = np.random.default_rng(4)
    layout = build_layout(2, 1, 2)
    weights = Tensor(rng.normal(size=(4, 8)))
    params = {
        "rgb": T.parameter(rng.normal(size=(4, 2, 2)), "rgb"),
        "thm": T.parameter(rng.normal(size=(4, 2, 2)), "thm"),
    }

    def f(p):
        tokens = C.mul(ocf_flatten(p["rgb"], p["thm"], layout), weights)
        back_rgb, back_thm = ocf_unflatten(tokens, layout)
        return T.add(C.reduce_sum(C.mul(back_rgb, back_rgb)), C.reduce_sum(back_thm))

    report = grad_check(f, params)
    assert report.max_rel_error < 1e-6, report


def test_patched_layout_gather_lists_block_pixels():
    # A 1x2 grid of 2x2 blocks over a 2x4 map: RGB block 0 is pixels 0, 1,
    # 4, 5 of the row-major map, thermal pixels are offset by 8, and block 1
    # (the odd column) comes second.
    layout = build_layout(1, 2, 2)
    np.testing.assert_array_equal(
        layout.gather.index, [0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15])
    with pytest.raises(ShapeError, match="layout"):
        ocf_flatten(*_grids(2, 2), layout)


# ---------------------------------------------------------------------------
# The fusion stage's row windows and channel stack
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=4),
    start=st.integers(min_value=0, max_value=12),
    heads=st.integers(min_value=1, max_value=4),
    height=st.integers(min_value=1, max_value=4),
    channels=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_row_gathers_equal_numpy_slicing_and_concatenate(length, width, start, heads, height, channels, seed):
    rng = np.random.default_rng(seed)
    carry = rng.normal(size=(1, width)).astype(np.float32)
    x = rng.normal(size=(length, width)).astype(np.float32)
    x[rng.random(x.shape) < 0.2] = -0.0
    n = length + 1
    prepended = gather((Tensor(carry), Tensor(x)), row_window(0, n, n))
    _same_bits(prepended.data, np.concatenate([carry, x], axis=0))

    start = min(start, length)
    size = n - start
    window = gather((prepended,), row_window(start, size, n))
    _same_bits(window.data, np.concatenate([carry, x])[start:start + size])

    maps = [rng.normal(size=(height, height + 1, channels)).astype(np.float32) for _ in range(heads)]
    shape = (height, height + 1, heads * channels)
    stacked = gather([Tensor(m) for m in maps], channel_stack(height * (height + 1), heads), shape)
    _same_bits(stacked.data, np.concatenate(maps, axis=2))


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_row_gather_adjoints_pass_grad_check(heads):
    rng = np.random.default_rng(heads)
    params = {"carry": T.parameter(rng.normal(size=(1, 3)), "carry"),
              "x": T.parameter(rng.normal(size=(4, 3)), "x")}
    params.update({f"map{k}": T.parameter(rng.normal(size=(2, 3, 2)), f"map{k}") for k in range(heads)})
    w_window, w_last = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(1, 3)))
    w_stack = Tensor(rng.normal(size=(2, 3, 2 * heads)))

    def f(p):
        tokens = gather((p["carry"], p["x"]), row_window(0, 5, 5))
        feats = gather((tokens,), row_window(1, 3, 5))
        last = gather((tokens,), row_window(4, 1, 5))
        maps = [p[f"map{k}"] for k in range(heads)]
        stacked = gather(maps, channel_stack(6, heads), (2, 3, 2 * heads))
        return T.add(T.add(C.reduce_sum(C.mul(feats, w_window)), C.reduce_sum(C.mul(last, w_last))),
                     C.reduce_sum(C.mul(stacked, w_stack)))

    report = grad_check(f, params)
    assert report.max_rel_error < 1e-6, report


def test_channel_stack_rejects_maps_of_another_size():
    maps = [Tensor(np.zeros((2, 2, 1), np.float32)), Tensor(np.zeros((2, 3, 1), np.float32))]
    with pytest.raises(ShapeError, match="over 8 rows, inputs have 10"):
        gather(maps, channel_stack(4, 2), (2, 2, 2))


def test_row_indexes_are_built_once():
    assert row_window(1, 3, 5) is row_window(1, 3, 5)
    assert channel_stack(6, 2) is channel_stack(6, 2)
    np.testing.assert_array_equal(channel_stack(3, 2).index, [0, 3, 1, 4, 2, 5])
