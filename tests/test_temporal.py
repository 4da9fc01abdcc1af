"""Streaming fusion tests.

The load-bearing property is that clip fusion is defined as repeated
single-frame fusion, so batch and streaming execution must agree exactly,
and memory carried between frames is a fixed number of floats.
"""

import dataclasses
import json
import re

import composed as C
import numpy as np
import pytest

from crossfuse import tensor as T
from crossfuse.fusion import StageConfig
from crossfuse.tensor import Graph, ShapeError, Tensor, backward
from crossfuse.tensorio import INDEX_NAME
from crossfuse.temporal import (
    FeaturePair,
    NonFiniteFrameError,
    build_model,
    config_hash,
    fuse_clip,
    fuse_next,
    init_stream,
    load_stream_state,
    save_stream_state,
)


def _configs():
    return [
        StageConfig(name="f1", height=4, width=4, channels=4, heads=2,
                    patch_sizes=(1, 2), layers=1, state_size=2, conv_kernel=2),
        StageConfig(name="f2", height=2, width=2, channels=2, heads=1,
                    patch_sizes=(1,), layers=1, state_size=2, conv_kernel=2),
    ]


def _pyramid(configs, rng):
    out = {}
    for c in configs:
        shape = (c.height, c.width, c.channels)
        out[c.name] = FeaturePair(
            stage=c.name,
            rgb=Tensor(rng.normal(size=shape).astype(np.float32)),
            thermal=Tensor(rng.normal(size=shape).astype(np.float32)),
        )
    return out


def _clip(configs, frames, seed=0):
    rng = np.random.default_rng(seed)
    return [_pyramid(configs, rng) for _ in range(frames)]


def _activate(model, rng, scale=0.3):
    """Randomize the zero-initialized projections so frames influence each
    other through the carries."""
    updates = {}
    for name, t in model.named_parameters().items():
        if name.endswith("agg.w") or name.endswith("out_proj.w"):
            updates[name] = Tensor(rng.normal(0, scale, t.shape).astype(np.float32))
    model.replace_parameters(updates)
    return model


# ---------------------------------------------------------------------------
# Stream state basics
# ---------------------------------------------------------------------------

def test_init_stream_is_zero_with_fixed_budget():
    model = build_model(_configs(), seed=0)
    state = init_stream(model)
    assert state.frame_index == 0
    assert state.model_hash == model.hash
    assert sorted(state.carries) == ["f1", "f2"]
    assert [t.shape for t in state.carries["f1"]] == [(1, 2), (1, 2)]
    assert [t.shape for t in state.carries["f2"]] == [(1, 2)]
    for ts in state.carries.values():
        for t in ts:
            np.testing.assert_array_equal(t.data, 0.0)
    # Two f1 heads of width 2 plus one f2 head of width 2.
    assert sum(t.size for ts in state.carries.values() for t in ts) == 6


def test_fuse_next_advances_frame_index():
    configs = _configs()
    model = build_model(configs, seed=0)
    state = init_stream(model)
    _, state = fuse_next(model, state, _clip(configs, 1)[0])
    assert state.frame_index == 1
    _, state = fuse_next(model, state, _clip(configs, 1, seed=1)[0])
    assert state.frame_index == 2


def test_carry_budget_is_constant_across_frames():
    configs = _configs()
    model = _activate(build_model(configs, seed=0), np.random.default_rng(1))
    state = init_stream(model)
    budgets = [sum(t.size for ts in state.carries.values() for t in ts)]
    for pyramid in _clip(configs, 5, seed=2):
        _, state = fuse_next(model, state, pyramid)
        budgets.append(sum(t.size for ts in state.carries.values() for t in ts))
    assert budgets == [6] * 6


# ---------------------------------------------------------------------------
# Batch / streaming agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("frames", [1, 3, 7])
def test_fuse_clip_equals_manual_streaming(frames):
    configs = _configs()
    model = _activate(build_model(configs, seed=0), np.random.default_rng(3))
    clip = _clip(configs, frames, seed=4)
    whole = fuse_clip(model, clip)
    state = init_stream(model)
    for t, pyramid in enumerate(clip):
        out, state = fuse_next(model, state, pyramid)
        for name in ("f1", "f2"):
            np.testing.assert_array_equal(out[name].rgb.data, whole[t][name].rgb.data)
            np.testing.assert_array_equal(out[name].thermal.data, whole[t][name].thermal.data)
    assert state.frame_index == frames


def test_first_frame_matches_single_frame_fusion():
    # Zero carries at stream start mean frame 0 of a clip and a standalone
    # single-frame fusion are the same computation.
    configs = _configs()
    model = _activate(build_model(configs, seed=0), np.random.default_rng(5))
    clip = _clip(configs, 3, seed=6)
    whole = fuse_clip(model, clip)
    solo = fuse_clip(model, clip[:1])
    for name in ("f1", "f2"):
        np.testing.assert_array_equal(solo[0][name].rgb.data, whole[0][name].rgb.data)


def test_later_frames_depend_on_history():
    configs = _configs()
    model = _activate(build_model(configs, seed=0), np.random.default_rng(7))
    clip = _clip(configs, 3, seed=8)
    whole = fuse_clip(model, clip)
    # Same third frame, different history: drop the first two frames.
    fresh = fuse_clip(model, clip[2:])
    assert not np.array_equal(whole[2]["f1"].rgb.data, fresh[0]["f1"].rgb.data)


def test_history_is_inert_while_aggregation_is_zero():
    # Without randomized projections the stage is the identity, so history
    # cannot matter and every frame passes through unchanged.
    configs = _configs()
    model = build_model(configs, seed=0)
    clip = _clip(configs, 3, seed=9)
    fused = fuse_clip(model, clip)
    for t in range(3):
        np.testing.assert_array_equal(fused[t]["f1"].rgb.data, clip[t]["f1"].rgb.data)
        np.testing.assert_array_equal(fused[t]["f2"].thermal.data, clip[t]["f2"].thermal.data)


# ---------------------------------------------------------------------------
# Gradients through time
# ---------------------------------------------------------------------------

def test_gradient_flows_through_carries():
    # A loss on the last frame must reach parameters only via the carry
    # chain when the loss ignores that frame's own inputs entirely: feed
    # zeros as the final frame and compare against resetting the stream.
    configs = _configs()[:1]
    model = _activate(build_model(configs, seed=0), np.random.default_rng(10))
    clip = _clip(configs, 3, seed=11)

    def last_frame_loss(streamed):
        frames = clip if streamed else clip[2:]
        fused = fuse_clip(model, frames)
        out = fused[-1]["f1"]
        return T.add(
            C.reduce_sum(C.mul(out.rgb, out.rgb)),
            C.reduce_sum(C.mul(out.thermal, out.thermal)),
        )

    with Graph() as g_stream:
        loss_stream = last_frame_loss(streamed=True)
    grads_stream = backward(g_stream, loss_stream, model.named_parameters().values())
    with Graph() as g_reset:
        loss_reset = last_frame_loss(streamed=False)
    grads_reset = backward(g_reset, loss_reset, model.named_parameters().values())

    pos = "f1.emb.pos"
    assert float(np.abs(grads_stream[pos].data).max()) > 0.0
    assert not np.array_equal(grads_stream[pos].data, grads_reset[pos].data)


# ---------------------------------------------------------------------------
# State persistence
# ---------------------------------------------------------------------------

def test_stream_state_roundtrips_through_disk(tmp_path):
    configs = _configs()
    model = _activate(build_model(configs, seed=0), np.random.default_rng(12))
    state = init_stream(model)
    for pyramid in _clip(configs, 2, seed=13):
        _, state = fuse_next(model, state, pyramid)
    save_stream_state(tmp_path / "state", state)
    loaded = load_stream_state(tmp_path / "state")
    assert loaded.frame_index == 2
    assert loaded.model_hash == state.model_hash
    for name in state.carries:
        for a, b in zip(state.carries[name], loaded.carries[name]):
            np.testing.assert_array_equal(a.data, b.data)
    # Resuming from the loaded state reproduces streaming exactly.
    nxt = _clip(configs, 1, seed=14)[0]
    out_mem, _ = fuse_next(model, state, nxt)
    out_disk, _ = fuse_next(model, loaded, nxt)
    np.testing.assert_array_equal(out_mem["f1"].rgb.data, out_disk["f1"].rgb.data)


def test_load_stream_state_rejects_other_checkpoints(tmp_path):
    from crossfuse.tensorio import save_checkpoint

    save_checkpoint(tmp_path / "ckpt", {"x": Tensor(np.zeros(2, np.float32))},
                    metadata={"kind": "something_else"})
    with pytest.raises(ValueError, match="stream state"):
        load_stream_state(tmp_path / "ckpt")


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def test_fuse_next_rejects_state_from_other_model():
    configs = _configs()
    model_a = build_model(configs, seed=0)
    other = [StageConfig(name="f1", height=2, width=2, channels=2, heads=1,
                         patch_sizes=(1,), layers=1, state_size=2, conv_kernel=2)]
    model_b = build_model(other, seed=0)
    state_b = init_stream(model_b)
    with pytest.raises(ValueError, match="different model config"):
        fuse_next(model_a, state_b, _clip(configs, 1)[0])


def test_fuse_next_names_stages_missing_from_a_loaded_state(tmp_path):
    configs = _configs()
    model = build_model(configs, seed=0)
    save_stream_state(tmp_path / "state", init_stream(model))
    index_path = tmp_path / "state" / INDEX_NAME
    index = json.loads(index_path.read_text())
    del index["metadata"]["carry_names"]["f2"]
    index_path.write_text(json.dumps(index))
    state = load_stream_state(tmp_path / "state")
    assert state.model_hash == model.hash
    with pytest.raises(ValueError, match=r"no carries for stages \['f2'\]"):
        fuse_next(model, state, _clip(configs, 1)[0])


def test_load_stream_state_names_carry_tensors_missing_from_the_checkpoint(tmp_path):
    configs = _configs()
    save_stream_state(tmp_path / "state", init_stream(build_model(configs, seed=0)))
    index_path = tmp_path / "state" / INDEX_NAME
    index = json.loads(index_path.read_text())
    index["metadata"]["carry_names"]["f1"].append("f1.carry7")
    index_path.write_text(json.dumps(index))
    message = f"{tmp_path / 'state'}: stream state lists carry tensors the checkpoint does not hold: ['f1.carry7']"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_stream_state(tmp_path / "state")


@pytest.mark.parametrize("edit", [lambda meta: meta.pop("carry_names"),
                                  lambda meta: meta.update(carry_names=5)], ids=["missing", "int"])
def test_load_stream_state_names_bad_carry_names(tmp_path, edit):
    save_stream_state(tmp_path / "state", init_stream(build_model(_configs(), seed=0)))
    index_path = tmp_path / "state" / INDEX_NAME
    index = json.loads(index_path.read_text())
    edit(index["metadata"])
    index_path.write_text(json.dumps(index))
    with pytest.raises(ValueError, match="key 'carry_names' must map each stage"):
        load_stream_state(tmp_path / "state")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_stream_state_names_a_non_finite_carry(tmp_path, bad):
    state = init_stream(build_model(_configs(), seed=0))
    carry = state.carries["f2"][0].data.copy()
    carry[0, -1] = bad
    state.carries["f2"][0] = Tensor(carry)
    save_stream_state(tmp_path / "state", state)
    message = r"state: stream state carry tensors \['f2.carry0'\] hold a NaN or an infinity"
    with pytest.raises(ValueError, match=message):
        load_stream_state(tmp_path / "state")


@pytest.mark.parametrize("value", [-7, -1, True, False, 2.0, "3", None], ids=repr)
def test_load_stream_state_names_a_bad_frame_index(tmp_path, value):
    save_stream_state(tmp_path / "state", init_stream(build_model(_configs(), seed=0)))
    index_path = tmp_path / "state" / INDEX_NAME
    index = json.loads(index_path.read_text())
    index["metadata"]["frame_index"] = value
    index_path.write_text(json.dumps(index))
    with pytest.raises(ValueError, match="state: stream state key 'frame_index' must be a non-negative int"):
        load_stream_state(tmp_path / "state")


def test_fuse_next_rejects_incomplete_pyramid():
    configs = _configs()
    model = build_model(configs, seed=0)
    pyramid = _clip(configs, 1)[0]
    del pyramid["f2"]
    with pytest.raises(ShapeError, match="missing stages"):
        fuse_next(model, init_stream(model), pyramid)


def test_fuse_clip_rejects_empty():
    model = build_model(_configs(), seed=0)
    with pytest.raises(ValueError, match="empty clip"):
        fuse_clip(model, [])


def test_build_model_rejects_duplicate_names():
    c = _configs()[0]
    with pytest.raises(ValueError, match="duplicate"):
        build_model([c, c])


def test_config_hash_tracks_config_changes():
    configs = _configs()
    h = config_hash(configs)
    assert h == config_hash(list(configs))
    changed = [dataclasses.replace(configs[0], layers=2), configs[1]]
    assert config_hash(changed) != h


def test_replace_parameters_contract():
    model = build_model(_configs(), seed=0)
    params = model.named_parameters()
    name = "f1.emb.rgb"
    new = Tensor(np.full(params[name].shape, 0.25, np.float32))
    model.replace_parameters({name: new})
    np.testing.assert_array_equal(model.named_parameters()[name].data, 0.25)
    assert model.named_parameters()[name].trainable
    with pytest.raises(KeyError, match="unknown parameters"):
        model.replace_parameters({"nope.w": new})
    with pytest.raises(ShapeError, match="shape"):
        model.replace_parameters({name: Tensor(np.zeros(7, np.float32))})


def test_replace_installs_a_named_trainable_tensor_as_it_is():
    # backward matches parameters by identity, so a caller that swaps its own
    # tensors in (grad_check through a model) must find them on the tape.
    model = _activate(build_model(_configs(), seed=0), np.random.default_rng(4))
    name = "f1.emb.rgb"
    mine = Tensor(np.full(model.named_parameters()[name].shape, 0.5, np.float32), name=name, trainable=True)
    model.replace_parameters({name: mine})
    assert model.named_parameters()[name] is mine
    with Graph() as g:
        out = fuse_clip(model, _clip(_configs(), 1, seed=3))[0]["f1"]
        loss = C.reduce_sum(C.mul(out.rgb, out.rgb))
    assert np.abs(backward(g, loss, [mine])[name].data).max() > 0.0


@pytest.mark.parametrize("bad_name, error", [("f1.agg.b", ShapeError), ("nope.w", KeyError)])
def test_rejected_replace_leaves_every_parameter_unchanged(bad_name, error):
    model = build_model(_configs(), seed=0)
    before = {k: t.data.copy() for k, t in model.named_parameters().items()}
    ok = Tensor(np.full(before["f1.emb.pos"].shape, 0.25, np.float32))
    with pytest.raises(error):
        model.replace_parameters({"f1.emb.pos": ok, bad_name: Tensor(np.zeros(7, np.float32))})
    after = model.named_parameters()
    assert list(after) == list(before)
    for k, arr in before.items():
        np.testing.assert_array_equal(after[k].data, arr)


def test_non_finite_frame_is_rejected_and_leaves_the_stream_usable():
    # One NaN pixel used to turn that frame and every later one all-NaN.
    configs = [StageConfig(name="f1", height=4, width=4, channels=4, heads=2,
                           patch_sizes=(1, 2), layers=1, state_size=2, conv_kernel=2)]
    model = _activate(build_model(configs, seed=0), np.random.default_rng(20))
    clip = _clip(configs, 5, seed=21)
    bad = clip[1]["f1"].thermal.data.copy()
    bad[2, 3, 1] = np.nan
    clip[1]["f1"] = FeaturePair(stage="f1", rgb=clip[1]["f1"].rgb, thermal=Tensor(bad))

    state = init_stream(model)
    streamed = []
    for t, pyramid in enumerate(clip):
        if t == 1:
            with pytest.raises(NonFiniteFrameError, match="stage f1: thermal"):
                fuse_next(model, state, pyramid)
            continue
        out, state = fuse_next(model, state, pyramid)
        streamed.append(out)
    assert state.frame_index == 4
    expected = fuse_clip(model, [clip[t] for t in (0, 2, 3, 4)])
    for got, want in zip(streamed, expected, strict=True):
        for pair_got, pair_want in ((got["f1"].rgb, want["f1"].rgb), (got["f1"].thermal, want["f1"].thermal)):
            np.testing.assert_array_equal(pair_got.data, pair_want.data)
