"""Stage tests: space-to-depth, config validation, identity at init, carry
plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfuse import tensor as T
from crossfuse.fusion import (
    StageConfig,
    add_embeddings,
    init_stage,
    ocf_flatten,
    patch,
    stage_forward,
    unpatch,
)
from crossfuse.interleave import build_layout
from crossfuse.ssm import stack_forward
from crossfuse.temporal import walk_parameters
from crossfuse.tensor import Graph, ShapeError, Tensor


def _cfg(**kw):
    base = dict(
        name="s", height=4, width=4, channels=4, heads=2,
        patch_sizes=(1, 2), layers=1, state_size=2, conv_kernel=2,
    )
    base.update(kw)
    return StageConfig(**base)


def _randomize_mixing(params, rng, scale=0.3):
    """Give the zero-initialized projections real weights so the stage stops
    being the identity and carries can reach the output."""
    params.agg_w = Tensor(
        rng.normal(0, scale, params.agg_w.shape).astype(np.float32),
        name=params.agg_w.name, trainable=True,
    )
    for head in params.heads:
        for block in head.blocks:
            block.out_w = Tensor(
                rng.normal(0, scale, block.out_w.shape).astype(np.float32),
                name=block.out_w.name, trainable=True,
            )
    return params


# ---------------------------------------------------------------------------
# patch / unpatch
# ---------------------------------------------------------------------------

def test_patch_2x2_single_channel_golden():
    x = Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]], np.float32))
    out = patch(x, 2)
    assert out.shape == (1, 1, 4)
    np.testing.assert_array_equal(out.data[0, 0], [1.0, 2.0, 3.0, 4.0])


def test_patch_channels_fastest_golden():
    # Packed channel (si*S + sj)*C + c: within a block the original channel
    # pair stays adjacent, blocks are row-major.
    x = np.zeros((2, 2, 2), np.float32)
    for i in range(2):
        for j in range(2):
            x[i, j] = [10 * (2 * i + j), 10 * (2 * i + j) + 1]
    out = patch(Tensor(x), 2)
    np.testing.assert_array_equal(
        out.data[0, 0], [0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0]
    )


def test_patch_handles_multiple_blocks():
    x = np.arange(4 * 2 * 1, dtype=np.float32).reshape(4, 2, 1)
    out = patch(Tensor(x), 2)
    assert out.shape == (2, 1, 4)
    np.testing.assert_array_equal(out.data[0, 0], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out.data[1, 0], [4.0, 5.0, 6.0, 7.0])


def test_patch_size_one_is_same_object():
    x = Tensor(np.zeros((3, 3, 2), np.float32))
    assert patch(x, 1) is x
    assert unpatch(x, 1) is x


def test_patch_and_unpatch_are_one_gather_each():
    x = Tensor(np.arange(32, dtype=np.float32).reshape(4, 4, 2))
    with Graph() as g:
        unpatch(patch(x, 2), 2)
    assert [n.kind for n in g.nodes] == ["take_rows", "take_rows"]


@settings(max_examples=30, deadline=None)
@given(
    hb=st.integers(min_value=1, max_value=4),
    wb=st.integers(min_value=1, max_value=4),
    c=st.integers(min_value=1, max_value=3),
    size=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_patch_roundtrip_property(hb, wb, c, size, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(hb * size, wb * size, c)).astype(np.float32))
    packed = patch(x, size)
    assert packed.shape == (hb, wb, c * size * size)
    np.testing.assert_array_equal(unpatch(packed, size).data, x.data)


def test_patch_errors():
    with pytest.raises(ShapeError, match=r"\(H, W, C\)"):
        patch(Tensor(np.zeros((2, 2), np.float32)), 2)
    with pytest.raises(ValueError, match=">= 1"):
        patch(Tensor(np.zeros((2, 2, 1), np.float32)), 0)
    with pytest.raises(ShapeError, match="does not divide"):
        patch(Tensor(np.zeros((3, 4, 1), np.float32)), 2)


def test_unpatch_errors():
    with pytest.raises(ShapeError, match="not divisible"):
        unpatch(Tensor(np.zeros((1, 1, 6), np.float32)), 2)
    with pytest.raises(ShapeError, match="rank-3"):
        unpatch(Tensor(np.zeros((2, 2), np.float32)), 2)


# ---------------------------------------------------------------------------
# StageConfig validation
# ---------------------------------------------------------------------------

def test_config_accepts_valid():
    cfg = _cfg()
    assert cfg.head_dim == 2
    tokens = [build_layout(cfg.height // s, cfg.width // s, s).tokens for s in cfg.patch_sizes]
    assert tokens == [32, 8]


def test_config_roundtrips_through_dict():
    cfg = _cfg(dt_rank=3)
    assert StageConfig(**cfg.to_dict()) == cfg


def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError, match="patch sizes"):
        _cfg(heads=2, patch_sizes=(1,))
    with pytest.raises(ValueError, match="not divisible by heads"):
        _cfg(channels=5, heads=2, patch_sizes=(1, 1))
    with pytest.raises(ValueError, match="power of two"):
        _cfg(heads=1, patch_sizes=(3,))
    with pytest.raises(ValueError, match="does not divide"):
        _cfg(height=4, width=6, heads=1, patch_sizes=(4,))
    with pytest.raises(ValueError, match="degenerate"):
        _cfg(height=0)
    with pytest.raises(ValueError, match="one layer"):
        _cfg(layers=0)
    with pytest.raises(ValueError, match="one head"):
        _cfg(heads=0, patch_sizes=())


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", ["state_size", "conv_kernel", "expand", "dt_rank"])
def test_config_rejects_a_block_geometry_below_one(key, value):
    with pytest.raises(ValueError, match=f"^s: {key} must be >= 1, got {value}$"):
        _cfg(**{key: value})


# ---------------------------------------------------------------------------
# Stage forward
# ---------------------------------------------------------------------------

def _maps(cfg, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cfg.height, cfg.width, cfg.channels)
    return (
        Tensor(rng.normal(size=shape).astype(np.float32)),
        Tensor(rng.normal(size=shape).astype(np.float32)),
    )


def test_stage_is_identity_at_init():
    cfg = _cfg()
    params = init_stage(cfg, np.random.default_rng(0))
    rgb, thm = _maps(cfg, seed=1)
    out = stage_forward(params, rgb, thm)
    np.testing.assert_array_equal(out.rgb.data, rgb.data)
    np.testing.assert_array_equal(out.thermal.data, thm.data)


def test_stage_is_identity_at_init_even_with_carries():
    # The aggregation is zero at init, so carry tokens cannot leak through.
    cfg = _cfg()
    params = init_stage(cfg, np.random.default_rng(0))
    rgb, thm = _maps(cfg, seed=2)
    rng = np.random.default_rng(3)
    carries = [
        Tensor(rng.normal(size=(1, cfg.head_dim)).astype(np.float32))
        for _ in range(cfg.heads)
    ]
    out = stage_forward(params, rgb, thm, carries=carries)
    np.testing.assert_array_equal(out.rgb.data, rgb.data)
    np.testing.assert_array_equal(out.thermal.data, thm.data)


def test_carries_are_each_heads_last_token_with_and_without_carry():
    cfg = _cfg()
    params = init_stage(cfg, np.random.default_rng(0))
    rgb, thm = _maps(cfg)
    e_rgb, e_thm = add_embeddings(rgb, thm, params.embeddings)
    carries = [Tensor(np.random.default_rng(k).normal(size=(1, 2)).astype(np.float32)) for k in range(2)]
    for given in (None, carries):
        result = stage_forward(params, rgb, thm, carries=given)
        for k, head in enumerate(params.heads):
            s = head.patch_size
            x = T.linear(ocf_flatten(e_rgb, e_thm, build_layout(cfg.height // s, cfg.width // s, s)), head.w_in)
            if given is not None:
                x = Tensor(np.concatenate([given[k].data, x.data]))
            tokens = stack_forward(head.blocks, x)
            assert tokens.shape == ((32, 8)[k] + (given is not None), 2)
            np.testing.assert_array_equal(result.carries[k].data, tokens.data[-1:])


def test_heads_process_independently():
    # Rewriting head 1's down-projection must leave head 0's tokens alone.
    cfg = _cfg()
    rgb, thm = _maps(cfg, seed=4)
    params = init_stage(cfg, np.random.default_rng(0))
    before = stage_forward(params, rgb, thm)
    params.heads[1].w_in = Tensor(
        np.random.default_rng(9).normal(size=params.heads[1].w_in.shape).astype(np.float32),
        name=params.heads[1].w_in.name, trainable=True,
    )
    after = stage_forward(params, rgb, thm)
    np.testing.assert_array_equal(before.carries[0].data, after.carries[0].data)
    assert not np.array_equal(before.carries[1].data, after.carries[1].data)


def test_carry_reaches_output_once_mixing_is_nonzero():
    # Carry rows pass through the block's layer norm, so a constant row is
    # indistinguishable from zeros; the probe must vary within the row.
    cfg = _cfg()
    rng = np.random.default_rng(5)
    params = _randomize_mixing(init_stage(cfg, np.random.default_rng(0)), rng)
    rgb, thm = _maps(cfg, seed=6)
    zero = [Tensor(np.zeros((1, cfg.head_dim), np.float32)) for _ in range(cfg.heads)]
    hot = [
        Tensor(rng.normal(size=(1, cfg.head_dim)).astype(np.float32))
        for _ in range(cfg.heads)
    ]
    out_zero = stage_forward(params, rgb, thm, carries=zero)
    out_hot = stage_forward(params, rgb, thm, carries=hot)
    assert not np.array_equal(out_zero.rgb.data, out_hot.rgb.data)
    assert not np.array_equal(out_zero.thermal.data, out_hot.thermal.data)


def test_stage_forward_errors():
    cfg = _cfg()
    params = init_stage(cfg, np.random.default_rng(0))
    rgb, thm = _maps(cfg)
    small = Tensor(np.zeros((2, 4, 4), np.float32))
    with pytest.raises(ShapeError, match="expected maps of shape"):
        stage_forward(params, small, thm)
    good = Tensor(np.zeros((1, 2), np.float32))
    with pytest.raises(ShapeError, match="carries for"):
        stage_forward(params, rgb, thm, carries=[good])
    bad_carry = [Tensor(np.zeros((1, 3), np.float32)), good]
    with pytest.raises(ShapeError, match="carry shape"):
        stage_forward(params, rgb, thm, carries=bad_carry)


def test_add_embeddings_shape_error():
    cfg = _cfg()
    params = init_stage(cfg, np.random.default_rng(0))
    bad = Tensor(np.zeros((2, 2, 4), np.float32))
    with pytest.raises(ShapeError, match="embedding"):
        add_embeddings(bad, bad, params.embeddings)


def test_named_parameters_cover_every_family():
    cfg = _cfg(name="f9")
    params = init_stage(cfg, np.random.default_rng(0))
    walked = [t for _, _, t in walk_parameters(params)]
    names = {t.name for t in walked}
    assert len(names) == len(walked)
    assert "f9.emb.pos" in names
    assert "f9.head0.w_in" in names
    assert "f9.head1.layer0.ssm.A_log" in names
    assert "f9.agg.w" in names
    for t in walked:
        assert t.trainable
