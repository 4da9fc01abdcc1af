"""Harness tests: synthetic data, detection model, training loop, eval.

Everything runs at 32x32 with one or two blobs so the whole file stays in
the sub-second range per test.
"""

import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import composed as C
import pytest
from composed import composed_block, huber
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossfuse import ssm as ssm_mod
from crossfuse import tensor as T
from crossfuse.config import (
    STAGE_NAMES,
    STAGE_STRIDES,
    config_model_hash,
    default_config,
    normalize_config,
    stage_configs_from,
)
from crossfuse.harness.evaluate import decode_frame, evaluate, load_detector
from crossfuse.harness.model import FUSER_NAMES, DetectionModel
from crossfuse.harness.synthetic import (
    RenderParams,
    SyntheticClipSpec,
    gen_clips,
    load_dataset,
)
from crossfuse.harness.train import SGD, TrainAbort, build_targets, clip_loss, train
from crossfuse.metrics import Box, read_boxes_jsonl
from crossfuse.tensor import Graph, ShapeError, Tensor, backward, grad_check
from crossfuse.tensorio import save_checkpoint

LN2 = math.log(2.0)

# The harness package's ``train`` function shadows the module of that name.
train_mod = importlib.import_module("crossfuse.harness.train")


def _cfg(**overrides):
    raw = {
        "schema_version": 1,
        "seed": 0,
        "fuser": "feature-add",
        "data": {
            "height": 32, "width": 32, "frames": 2,
            "blob_count_min": 1, "blob_count_max": 1,
            "blob_size_min": 8, "blob_size_max": 12,
            "blob_speed_max": 0.5, "stride": 2, "clips": 2,
        },
        "train": {"steps": 2, "lr": 0.05},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return normalize_config(raw)


def _dataset(cfg, tmp_path, subdir="data"):
    data = dict(cfg["data"])
    count = data.pop("clips")
    spec = SyntheticClipSpec(seed=cfg["seed"], **data)
    root = tmp_path / subdir
    gen_clips(spec, count, root)
    return load_dataset(root)


def _region_means(arr, box):
    r0, r1 = int(round(box.y)), int(round(box.y + box.h))
    c0, c1 = int(round(box.x)), int(round(box.x + box.w))
    inside = arr[r0:r1, c0:c1].mean()
    mask = np.ones(arr.shape[:2], bool)
    mask[r0:r1, c0:c1] = False
    return float(inside), float(arr[mask].mean())


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def test_gen_is_deterministic_to_the_byte(tmp_path):
    spec = SyntheticClipSpec(seed=3, frames=2, height=32, width=32,
                             blob_size_min=8, blob_size_max=12)
    m1 = gen_clips(spec, 2, tmp_path / "a")
    m2 = gen_clips(spec, 2, tmp_path / "b")
    assert m1 == m2
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_frame_shapes_and_tags(tmp_path):
    cfg = _cfg(data={"illumination": "night"})
    ds = _dataset(cfg, tmp_path)
    assert len(ds.clips) == 2
    rgb, thm = ds.load_frame(ds.clips[0].frames[0])
    assert rgb.shape == (32, 32, 3) and thm.shape == (32, 32, 1)
    assert all(c.tag == "night" for c in ds.clips)


def test_night_kills_rgb_contrast_but_not_thermal(tmp_path):
    render = RenderParams()
    assert render.rgb_contrast_night < render.rgb_noise_night
    assert render.rgb_contrast_day > render.rgb_noise_day
    diffs = {}
    for illum in ("day", "night"):
        spec = SyntheticClipSpec(seed=5, frames=1, height=48, width=48,
                                 blob_count_min=1, blob_count_max=1,
                                 blob_size_min=12, blob_size_max=16,
                                 illumination=illum)
        root = tmp_path / illum
        gen_clips(spec, 1, root)
        ds = load_dataset(root)
        clip = ds.clips[0]
        frame = clip.frames[0]
        rgb, thm = ds.load_frame(frame)
        gt = clip.gt[frame["frame_id"]][0]
        rin, rout = _region_means(rgb.data, gt)
        tin, tout = _region_means(thm.data, gt)
        diffs[illum] = (rin - rout, tin - tout)
    assert diffs["day"][0] > 0.3
    assert diffs["night"][0] < 0.1
    assert diffs["day"][1] > 0.5 and diffs["night"][1] > 0.5
    # The two illuminations render the same blobs, so thermal is unchanged.
    np.testing.assert_allclose(diffs["day"][1], diffs["night"][1], atol=1e-6)


def test_occlusion_hides_pixels_but_keeps_gt(tmp_path):
    spec = SyntheticClipSpec(seed=5, frames=2, height=48, width=48,
                             blob_count_min=1, blob_count_max=1,
                             blob_size_min=12, blob_size_max=16,
                             occlusion="last_frame")
    gen_clips(spec, 1, tmp_path / "occ")
    ds = load_dataset(tmp_path / "occ")
    clip = ds.clips[0]
    first, last = clip.frames[0], clip.frames[-1]
    assert len(clip.gt[last["frame_id"]]) == 1
    _, thm_first = ds.load_frame(first)
    _, thm_last = ds.load_frame(last)
    tin, tout = _region_means(thm_first.data, clip.gt[first["frame_id"]][0])
    assert tin - tout > 0.5
    tin, tout = _region_means(thm_last.data, clip.gt[last["frame_id"]][0])
    assert abs(tin - tout) < 0.1


def test_blob_motion_is_linear(tmp_path):
    spec = SyntheticClipSpec(seed=1, frames=3, height=32, width=32,
                             blob_count_min=1, blob_count_max=1,
                             blob_size_min=8, blob_size_max=12,
                             blob_speed_max=0.5, stride=2)
    gen_clips(spec, 1, tmp_path / "mot")
    clip = load_dataset(tmp_path / "mot").clips[0]
    ids = sorted(clip.gt)
    xs = [clip.gt[i][0].x for i in ids]
    ys = [clip.gt[i][0].y for i in ids]
    np.testing.assert_allclose(np.diff(xs)[0], np.diff(xs)[1], atol=1e-9)
    np.testing.assert_allclose(np.diff(ys)[0], np.diff(ys)[1], atol=1e-9)
    assert abs(np.diff(xs)[0]) + abs(np.diff(ys)[0]) > 1e-3


def test_spec_validation():
    with pytest.raises(ValueError, match="illumination"):
        SyntheticClipSpec(illumination="dusk")
    with pytest.raises(ValueError, match="occlusion"):
        SyntheticClipSpec(occlusion="sometimes")
    with pytest.raises(ValueError, match="blob size"):
        SyntheticClipSpec(height=24, width=24, blob_size_min=10, blob_size_max=30)
    with pytest.raises(ValueError, match="too small"):
        SyntheticClipSpec(height=8, width=8)


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")


@pytest.mark.parametrize("edit, error", [
    (lambda lines: lines + lines[:1], r"gt\.jsonl:3: duplicate frame_id"),
    (lambda lines: lines[:1] + ['{"frame_id": "clip0000/f1"}\n'], r"gt\.jsonl:2: rows need frame_id and boxes"),
])
def test_load_dataset_rejects_a_bad_gt_line(tmp_path, edit, error):
    spec = SyntheticClipSpec(seed=3, frames=2, height=32, width=32,
                             blob_size_min=8, blob_size_max=12)
    gen_clips(spec, 1, tmp_path)
    gt_path = tmp_path / "clips" / "clip0000" / "gt.jsonl"
    gt_path.write_text("".join(edit(gt_path.read_text().splitlines(keepends=True))))
    with pytest.raises(ValueError, match=error):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_and_geometry():
    cfg = _cfg()
    stages = stage_configs_from(cfg)
    assert [(s.name, s.height, s.width, s.channels) for s in stages] == [
        ("f1", 4, 4, 16), ("f2", 2, 2, 32), ("f3", 1, 1, 64),
    ]
    assert stages[0].heads == 2 and stages[0].patch_sizes == (1, 2)


def test_config_rejects_bad_input():
    with pytest.raises(ValueError, match="schema_version"):
        normalize_config({"schema_version": 99})
    with pytest.raises(ValueError, match="unknown config keys"):
        normalize_config({"schema_version": 1, "turbo": True})
    with pytest.raises(ValueError, match="unknown fuser"):
        normalize_config({"schema_version": 1, "fuser": "late-concat"})
    with pytest.raises(ValueError, match="not divisible by stage stride"):
        normalize_config({"schema_version": 1, "data": {"height": 60}})
    with pytest.raises(ValueError, match="must list exactly"):
        normalize_config({
            "schema_version": 1,
            "model": {"stages": [{"stage": "f1", "heads": 1, "patch_sizes": [1], "layers": 1}]},
        })


@pytest.mark.parametrize("raw, key", [
    ({"train": {"stpes": 5}}, "train.stpes"),
    ({"data": {"hieght": 32}}, "data.hieght"),
    ({"model": {"dt_rank": 2}}, "model.dt_rank"),
])
def test_config_rejects_unknown_nested_keys(raw, key):
    with pytest.raises(ValueError, match=re.escape(f"unknown config keys ['{key}']")):
        normalize_config({"schema_version": 1, **raw})


def test_config_rejects_unknown_stage_keys():
    stages = default_config()["model"]["stages"]
    stages[1] = {"stage": "f2", "heads": 1, "patch_sizes": [1], "layres": 2}
    with pytest.raises(ValueError, match=re.escape("model.stages[1]: unknown keys ['layres']")):
        normalize_config({"schema_version": 1, "model": {"stages": stages}})


@pytest.mark.parametrize("raw, message", [
    ({"data": 5}, "config key 'data' must be an object, got int"),
    ({"train": {"lr": "fast"}}, "config key 'train.lr' must be a number, got str"),
    ({"model": {"stages": {"stage": "f1"}}}, "config key 'model.stages' must be an array, got dict"),
])
def test_config_rejects_a_value_of_the_wrong_kind(raw, message):
    with pytest.raises(ValueError, match=re.escape(f"<dict>: {message}")):
        normalize_config({"schema_version": 1, **raw})


def test_config_takes_an_int_where_the_default_is_a_float():
    assert normalize_config({"schema_version": 1, "train": {"lr": 1}})["train"]["lr"] == 1


@pytest.mark.parametrize("raw, key", [
    ({"seed": 2.5}, "seed"),
    ({"data": {"frames": 2.5}}, "data.frames"),
])
def test_config_rejects_a_non_integer_where_the_default_is_an_integer(raw, key):
    with pytest.raises(ValueError, match=re.escape(f"<dict>: config key '{key}' must be an integer, got 2.5")):
        normalize_config({"schema_version": 1, **raw})


def test_config_names_the_keys_a_stage_entry_lacks():
    stages = default_config()["model"]["stages"]
    del stages[0]["layers"]
    with pytest.raises(ValueError, match=re.escape("model.stages[0]: missing keys ['layers']")):
        normalize_config({"schema_version": 1, "model": {"stages": stages}})


@pytest.mark.parametrize("key, value, message", [
    ("heads", "2", "'model.stages[0].heads' must be a number, got str"),
    ("layers", 1.5, "'model.stages[0].layers' must be an integer, got 1.5"),
    ("layers", True, "'model.stages[0].layers' must be a number, got bool"),
    ("patch_sizes", 3, "'model.stages[0].patch_sizes' must be an array, got int"),
    ("patch_sizes", ["1", "2"], "'model.stages[0].patch_sizes[0]' must be a number, got str"),
    ("patch_sizes", [1.0, 2.0], "'model.stages[0].patch_sizes[0]' must be an integer, got 1.0"),
])
def test_config_checks_the_kind_of_each_stage_value(key, value, message):
    stages = default_config()["model"]["stages"]
    stages[0][key] = value
    with pytest.raises(ValueError, match=re.escape(f"<dict>: config key {message}")):
        normalize_config({"schema_version": 1, "model": {"stages": stages}})


def test_readme_default_config_is_the_default_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("The full default config:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config()


def test_model_hash_sees_geometry_not_training():
    base = _cfg()
    same = _cfg(train={"steps": 999, "lr": 1e-4})
    assert config_model_hash(base) == config_model_hash(same)
    wider = _cfg(model={"d_factor": 8})
    assert config_model_hash(base) != config_model_hash(wider)
    other_fuser = _cfg(fuser="mambast")
    assert config_model_hash(base) != config_model_hash(other_fuser)


# ---------------------------------------------------------------------------
# Detection model and fusers
# ---------------------------------------------------------------------------

def _frames(cfg, n=2, seed=0):
    rng = np.random.default_rng(seed)
    h, w = cfg["data"]["height"], cfg["data"]["width"]
    return [
        (
            Tensor(rng.normal(size=(h, w, 3)).astype(np.float32)),
            Tensor(rng.normal(size=(h, w, 1)).astype(np.float32)),
        )
        for _ in range(n)
    ]


def test_feature_add_broadcasts_sum_to_both_branches():
    cfg = _cfg(fuser="feature-add")
    model = DetectionModel(cfg)
    rgb, thm = _frames(cfg, 1)[0]
    pyramid = model.backbone_forward(rgb, thm)
    fused = model.fuse([pyramid])[0]
    for stage, pair in pyramid.items():
        want = pair.rgb.data + pair.thermal.data
        np.testing.assert_array_equal(fused[stage].rgb.data, want)
        np.testing.assert_array_equal(fused[stage].thermal.data, want)


def test_single_spectrum_fusers_zero_the_other_branch():
    cfg = _cfg(fuser="none-rgb")
    model = DetectionModel(cfg)
    rgb, thm = _frames(cfg, 1)[0]
    pyramid = model.backbone_forward(rgb, thm)
    fused = model.fuse([pyramid])[0]
    np.testing.assert_array_equal(fused["f1"].rgb.data, pyramid["f1"].rgb.data)
    np.testing.assert_array_equal(fused["f1"].thermal.data, 0.0)

    cfg_t = _cfg(fuser="none-thermal")
    model_t = DetectionModel(cfg_t)
    pyramid_t = model_t.backbone_forward(rgb, thm)
    fused_t = model_t.fuse([pyramid_t])[0]
    np.testing.assert_array_equal(fused_t["f1"].thermal.data, pyramid_t["f1"].thermal.data)
    np.testing.assert_array_equal(fused_t["f1"].rgb.data, 0.0)


@pytest.mark.parametrize("fuser", FUSER_NAMES)
def test_every_fuser_runs_the_same_pipeline(fuser):
    cfg = _cfg(fuser=fuser)
    model = DetectionModel(cfg)
    preds = model.forward_frames(_frames(cfg, 2))
    assert len(preds) == 2
    for frame in preds:
        assert frame["f1"].shape == (4, 4, 5)
        assert frame["f2"].shape == (2, 2, 5)
        assert frame["f3"].shape == (1, 1, 5)
        for p in frame.values():
            assert np.all(np.isfinite(p.data))


def test_mambast_starts_as_pass_through():
    # Fresh fusion stages are identities, so at init the temporal fuser
    # scores exactly like running frames independently.
    cfg = _cfg(fuser="mambast")
    model = DetectionModel(cfg)
    frames = _frames(cfg, 3)
    whole = model.forward_frames(frames, reset_every=None)
    solo = model.forward_frames(frames, reset_every=1)
    for a, b in zip(whole, solo):
        for stage in a:
            np.testing.assert_array_equal(a[stage].data, b[stage].data)


def test_fuse_rejects_bad_reset_every():
    cfg = _cfg(fuser="mambast")
    model = DetectionModel(cfg)
    rgb, thm = _frames(cfg, 1)[0]
    pyramid = model.backbone_forward(rgb, thm)
    with pytest.raises(ValueError, match="reset_every"):
        model.fuse([pyramid, pyramid], reset_every=0)


def test_backbone_validates_frame_shape():
    cfg = _cfg()
    model = DetectionModel(cfg)
    with pytest.raises(T.ShapeError, match="rgb frame"):
        model.backbone_forward(
            Tensor(np.zeros((16, 16, 3), np.float32)),
            Tensor(np.zeros((32, 32, 1), np.float32)),
        )


# ---------------------------------------------------------------------------
# Targets and losses
# ---------------------------------------------------------------------------

def test_build_targets_pencil_case():
    # Box (10, 4, 4, 6): center (12, 7). At stride 8 that is cell (0, 1)
    # with fractions (12/8 - 1, 7/8) = (0.5, 0.875).
    obj, box, mask = build_targets(
        [Box(x=10, y=4, w=4, h=6)], stage_shape=(8, 8), stride=8, anchor=12.0
    )
    assert obj.sum() == 1.0 and mask.sum() == 1.0
    assert obj[0, 1, 0] == 1.0
    np.testing.assert_allclose(box[0, 1, 0], 0.5)
    np.testing.assert_allclose(box[0, 1, 1], 0.875)
    np.testing.assert_allclose(box[0, 1, 2], math.log(4.0 / 12.0), rtol=1e-6)
    np.testing.assert_allclose(box[0, 1, 3], math.log(6.0 / 12.0), rtol=1e-6)


def test_build_targets_clamps_to_grid():
    obj, box, _ = build_targets(
        [Box(x=100, y=100, w=4, h=4)], stage_shape=(4, 4), stride=8, anchor=12.0
    )
    assert obj[3, 3, 0] == 1.0 and obj.sum() == 1.0


def test_empty_frame_loss_is_three_log_twos():
    # Zero predictions, no ground truth: only the objectness terms remain,
    # each mean(softplus(0)) = ln 2 per stage.
    cfg = _cfg()
    model = DetectionModel(cfg)
    preds = {
        "f1": Tensor(np.zeros((4, 4, 5), np.float32)),
        "f2": Tensor(np.zeros((2, 2, 5), np.float32)),
        "f3": Tensor(np.zeros((1, 1, 5), np.float32)),
    }
    loss = train_mod._loss(model, [preds], [[]], box_weight=1.0, huber_beta=0.1)
    np.testing.assert_allclose(loss.item(), 3.0 * LN2, rtol=1e-6)


def test_huber_goldens_and_gradient():
    x = Tensor(np.array([0.5, 2.0, -3.0], np.float32))
    np.testing.assert_allclose(huber(x, beta=1.0).data, [0.125, 1.5, 2.5], rtol=1e-6)
    np.testing.assert_allclose(
        huber(Tensor(np.array([0.05], np.float32)), beta=0.1).data, [0.0125], rtol=1e-6
    )
    with pytest.raises(ValueError, match="beta"):
        huber(x, beta=0.0)

    # Points held away from the |x| = beta kink so central differences are
    # valid.
    params = {"h.x": Tensor(np.array([0.3, -0.4, 1.7, -2.5], np.float32),
                            name="h.x", trainable=True)}
    report = grad_check(lambda p: C.reduce_sum(huber(p["h.x"], beta=1.0)), params)
    assert report.max_rel_error < 1e-3


def test_sgd_momentum_pencil():
    params = {"w": Tensor(np.array([1.0], np.float32), name="w", trainable=True)}
    opt = SGD(params, lr=0.1, momentum=0.9)
    g = {"w": Tensor(np.array([1.0], np.float32))}
    params = opt.step(params, g)
    np.testing.assert_allclose(params["w"].data, [0.9], rtol=1e-6)
    params = opt.step(params, g)
    # v2 = 0.9*1 + 1 = 1.9, so w = 0.9 - 0.19.
    np.testing.assert_allclose(params["w"].data, [0.71], rtol=1e-6)


def test_sgd_skips_params_without_grads_and_validates():
    params = {"a": Tensor(np.ones(1, np.float32), name="a", trainable=True),
              "b": Tensor(np.ones(1, np.float32), name="b", trainable=True)}
    opt = SGD(params, lr=0.5, momentum=0.0)
    out = opt.step(params, {"a": Tensor(np.ones(1, np.float32))})
    assert set(out) == {"a"}
    with pytest.raises(ValueError, match="lr"):
        SGD(params, lr=-1.0)
    with pytest.raises(ValueError, match="momentum"):
        SGD(params, lr=0.1, momentum=1.0)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_writes_checkpoint_and_log(tmp_path):
    cfg = _cfg(train={"steps": 3})
    ds = _dataset(cfg, tmp_path)
    summary = train(cfg, ds, tmp_path / "run")
    assert summary["steps"] == 3
    assert math.isfinite(summary["final_loss"])
    assert (tmp_path / "run" / "tensors.bin").exists()
    assert (tmp_path / "run" / "index.json").exists()
    rows = [json.loads(l) for l in (tmp_path / "run" / "loss_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2, 3]
    assert rows[0]["loss"] == summary["first_loss"]


def test_train_is_deterministic(tmp_path):
    cfg = _cfg(fuser="mambast", train={"steps": 2})
    ds = _dataset(cfg, tmp_path)
    a = train(cfg, ds, tmp_path / "a")
    b = train(cfg, ds, tmp_path / "b")
    assert a["final_loss"] == b["final_loss"]
    assert (tmp_path / "a" / "tensors.bin").read_bytes() == (tmp_path / "b" / "tensors.bin").read_bytes()


def test_zero_lr_keeps_loss_constant(tmp_path):
    cfg = _cfg(train={"steps": 3, "lr": 0.0}, data={"clips": 1})
    ds = _dataset(cfg, tmp_path)
    train(cfg, ds, tmp_path / "run")
    rows = [json.loads(l) for l in (tmp_path / "run" / "loss_log.jsonl").read_text().splitlines()]
    losses = {r["loss"] for r in rows}
    assert len(losses) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostics(tmp_path):
    cfg = _cfg(train={"steps": 5, "lr": 1e30})
    ds = _dataset(cfg, tmp_path)
    with pytest.raises(TrainAbort, match="non-finite loss"):
        train(cfg, ds, tmp_path / "run")
    diag = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert diag["step"] >= 1
    assert "param_norms" in diag


def test_clip_loss_is_scalar_and_differentiable(tmp_path):
    cfg = _cfg(fuser="mambast")
    ds = _dataset(cfg, tmp_path)
    model = DetectionModel(cfg)
    clip = ds.clips[0]
    frames = [ds.load_frame(f) for f in clip.frames]
    gts = [clip.gt[f["frame_id"]] for f in clip.frames]
    with Graph() as g:
        loss = clip_loss(model, frames, gts)
    assert loss.shape == ()
    grads = backward(g, loss, model.named_parameters().values())
    head_grad = grads["head.f1.w"]
    assert float(np.abs(head_grad.data).max()) > 0.0


# ---------------------------------------------------------------------------
# Decode and evaluate
# ---------------------------------------------------------------------------

def test_decode_frame_pencil_case():
    cfg = _cfg()
    quiet = -10.0
    f1 = np.full((4, 4, 5), 0.0, np.float32)
    f1[:, :, 4] = quiet
    f1[2, 1, 4] = 3.0
    preds = {
        "f1": Tensor(f1),
        "f2": Tensor(np.full((2, 2, 5), quiet, np.float32)),
        "f3": Tensor(np.full((1, 1, 5), quiet, np.float32)),
    }
    boxes = decode_frame(preds, cfg, confidence_floor=0.25)
    assert len(boxes) == 1
    b = boxes[0]
    # Cell (2, 1) at stride 8, anchor 12: center ((1+0.5)*8, (2+0.5)*8).
    np.testing.assert_allclose(b.confidence, 1.0 / (1.0 + math.exp(-3.0)), rtol=1e-6)
    np.testing.assert_allclose((b.x, b.y, b.w, b.h), (6.0, 14.0, 12.0, 12.0), atol=1e-5)


def test_decode_respects_confidence_floor():
    cfg = _cfg()
    preds = {
        "f1": Tensor(np.zeros((4, 4, 5), np.float32)),
        "f2": Tensor(np.zeros((2, 2, 5), np.float32)),
        "f3": Tensor(np.zeros((1, 1, 5), np.float32)),
    }
    # Objectness 0 decodes to confidence 0.5 everywhere.
    assert len(decode_frame(preds, cfg, confidence_floor=0.25)) == 4 * 4 + 2 * 2 + 1
    assert decode_frame(preds, cfg, confidence_floor=0.51) == []


def test_checkpoint_roundtrip_reproduces_evaluation(tmp_path):
    cfg = _cfg(fuser="mambast", train={"steps": 2})
    ds = _dataset(cfg, tmp_path)
    train(cfg, ds, tmp_path / "run")
    loaded, meta = load_detector(tmp_path / "run")
    assert meta["steps"] == 2
    fresh = DetectionModel(cfg)
    fresh.replace_parameters(loaded.named_parameters())
    report_a = evaluate(loaded, ds)
    report_b = evaluate(fresh, ds)
    assert report_a["settings"] == report_b["settings"]


def test_load_detector_guards(tmp_path):
    cfg = _cfg(train={"steps": 2})
    ds = _dataset(cfg, tmp_path)
    train(cfg, ds, tmp_path / "run")
    with pytest.raises(ValueError, match="does not match checkpoint"):
        load_detector(tmp_path / "run", cfg=_cfg(model={"d_factor": 8}))
    from crossfuse.tensorio import save_checkpoint
    save_checkpoint(tmp_path / "other", {"x": Tensor(np.zeros(1, np.float32))},
                    metadata={"kind": "stream_state"})
    with pytest.raises(ValueError, match="not a detection checkpoint"):
        load_detector(tmp_path / "other")


def test_evaluate_report_shape(tmp_path):
    cfg = _cfg(train={"steps": 2})
    ds = _dataset(cfg, tmp_path)
    train(cfg, ds, tmp_path / "run")
    model, _ = load_detector(tmp_path / "run")
    report = evaluate(model, ds, detections_path=tmp_path / "dets.jsonl")
    assert report["n_clips"] == 2 and report["n_frames"] == 4
    assert set(report["settings"]) == {"all", "reasonable", "reasonable-small"}
    era = report["settings"]["all"]
    assert era["n_gt"] == 4
    assert era["lamr"] is None or 0.0 <= era["lamr"] <= 100.0
    assert "curve" in era
    # Blobs of height 8..12 fall outside both height-gated bands.
    assert report["settings"]["reasonable"]["n_gt"] == 0
    assert report["settings"]["reasonable"]["lamr"] is None
    assert "day" in report["by_tag"]
    dets = read_boxes_jsonl(tmp_path / "dets.jsonl")
    assert len(dets) == 4


def test_evaluate_reset_every_changes_nothing_for_stateless_fusers(tmp_path):
    cfg = _cfg(train={"steps": 2})
    ds = _dataset(cfg, tmp_path)
    train(cfg, ds, tmp_path / "run")
    model, _ = load_detector(tmp_path / "run")
    a = evaluate(model, ds, reset_every=None)
    b = evaluate(model, ds, reset_every=1)
    assert a["settings"] == b["settings"]


# ---------------------------------------------------------------------------
# Dispatch budget: ops per streamed frame and tape nodes per training clip
# ---------------------------------------------------------------------------

def _desk_frame_ops() -> list[str]:
    """The kind of every op one streamed desk frame records, in order."""
    from crossfuse.temporal import fuse_next, init_stream

    model = DetectionModel(normalize_config({"schema_version": 1, "seed": 0, "fuser": "mambast"}))
    rng = np.random.default_rng(0)
    rgb = Tensor(rng.random((64, 64, 3), dtype=np.float32))
    thm = Tensor(rng.random((64, 64, 1), dtype=np.float32))
    with Graph() as g:
        fused, _ = fuse_next(model.fusion, init_stream(model.fusion), model.backbone_forward(rgb, thm))
        model.head_forward(fused)
    return [n.kind for n in g.nodes]


def test_desk_frame_dispatches_at_most_100_ops():
    calls = _desk_frame_ops()
    assert 0 < len(calls) <= 100, f"{len(calls)} ops per frame"


def _acceptance_11_cfg():
    return _cfg(fuser="mambast", data={"frames": 3, "blob_size_min": 10, "blob_size_max": 16,
                                       "blob_speed_max": 0.25, "occlusion": "last_frame", "clips": 1},
                model={"stages": [
                    {"stage": "f1", "heads": 2, "patch_sizes": [1, 4], "layers": 1},
                    {"stage": "f2", "heads": 1, "patch_sizes": [2], "layers": 1},
                    {"stage": "f3", "heads": 1, "patch_sizes": [1], "layers": 1}]},
                train={"lr": 0.005, "box_weight": 3.0})


def _acceptance_11_clip_graph(tmp_path) -> Graph:
    cfg = _acceptance_11_cfg()
    ds = _dataset(cfg, tmp_path)
    clip = ds.clips[0]
    model = DetectionModel(cfg)
    with Graph() as g:
        clip_loss(model, [ds.load_frame(f) for f in clip.frames], [clip.gt[f["frame_id"]] for f in clip.frames])
    return g


def test_acceptance_11_clip_records_at_most_300_tape_nodes(tmp_path):
    g = _acceptance_11_clip_graph(tmp_path)
    assert 0 < len(g) <= 300, f"{len(g)} tape nodes per clip"


def test_readme_states_the_exact_dispatch_counts(tmp_path):
    ops, nodes = len(_desk_frame_ops()), len(_acceptance_11_clip_graph(tmp_path))
    assert (ops, nodes) == (94, 283)
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    assert f"a streamed desk frame dispatches {ops} of them" in readme
    assert f"records {nodes} tape nodes" in readme


def test_a_training_clip_and_a_streamed_frame_record_eight_registry_kinds(tmp_path):
    clip_kinds = {n.kind for n in _acceptance_11_clip_graph(tmp_path).nodes}
    frame_kinds = set(_desk_frame_ops())
    # With the fresh-import test in test_tensor, this pins the registry to
    # exactly the kinds the program records.
    assert clip_kinds | frame_kinds == set(C.PROGRAM_KINDS)


# ---------------------------------------------------------------------------
# The loss op against a float64 evaluation of its equations
# ---------------------------------------------------------------------------

def _assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), f"{what}: max diff {np.abs(got - want).max()}"
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: signs of zero differ"


def _random_maps(rng, model, frames, dtype=np.float32, scale=2.0):
    return {f"p{i}.{stage}": T.parameter(rng.normal(0, scale, model.stage_shape(stage) + (5,)).astype(dtype),
                                         f"p{i}.{stage}")
            for i in range(frames) for stage in STAGE_NAMES}


# Centres past the image edge are clamped into the last grid cell.
_boxes = st.lists(st.builds(Box, x=st.floats(-4, 36), y=st.floats(-4, 36),
                            w=st.floats(0.5, 20), h=st.floats(0.5, 20)), max_size=3)
_LAST_CELL = [Box(x=28.0, y=29.0, w=6.0, h=4.0)]


def _float64_clip_loss(model, preds, gts_per_frame, box_weight, huber_beta):
    """The clip loss from its equations, in float64: per map the mean of
    softplus(obj) - obj_t * obj, plus box_weight / n_pos times the masked
    huber sums of sigmoid(txy) - xy targets and twh - wh targets; summed over
    a frame's stages and averaged over the frames."""
    def huber64(d):
        ad = np.abs(d)
        return np.where(ad < huber_beta, 0.5 * d * d / huber_beta, ad - 0.5 * huber_beta)

    anchors = model.cfg["model"]["anchors"]
    frame_losses = []
    for pred, gts in zip(preds, gts_per_frame):
        total = 0.0
        for stage in STAGE_NAMES:
            p = pred[stage].data.astype(np.float64)
            obj_t, box_t, mask = (a.astype(np.float64) for a in build_targets(
                gts, model.stage_shape(stage), STAGE_STRIDES[stage], anchors[stage]))
            obj = p[:, :, 4:5]
            total += (np.logaddexp(0.0, obj) - obj_t * obj).mean()
            if mask.sum() > 0:
                sig = 1.0 / (1.0 + np.exp(-p[:, :, 0:2]))
                box_sum = ((huber64(sig - box_t[:, :, 0:2]) * mask).sum()
                           + (huber64(p[:, :, 2:4] - box_t[:, :, 2:4]) * mask).sum())
                total += box_weight / mask.sum() * box_sum
        frame_losses.append(total)
    return float(np.mean(frame_losses))


# The fused float32 loss stayed within 2.0e-7 of the float64 evaluation,
# relative, over two runs of 2000 examples of the strategy below.
LOSS_RTOL = 1e-6


@settings(max_examples=40, deadline=None)
@given(gts=st.lists(_boxes, min_size=1, max_size=3),
       box_weight=st.sampled_from([1.0, 3.0]),
       huber_beta=st.sampled_from([0.1, 1.0]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(gts=[[], _LAST_CELL, []], box_weight=3.0, huber_beta=0.1, seed=0)
@example(gts=[[]], box_weight=1.0, huber_beta=0.1, seed=1)
def test_loss_op_matches_a_float64_evaluation(gts, box_weight, huber_beta, seed):
    model = DetectionModel(_cfg(train={"box_weight": box_weight, "huber_beta": huber_beta}))
    maps = _random_maps(np.random.default_rng(seed), model, len(gts))
    preds = [{stage: maps[f"p{i}.{stage}"] for stage in STAGE_NAMES} for i in range(len(gts))]
    loss = train_mod._loss(model, preds, gts, box_weight, huber_beta)
    assert loss.dtype == np.float32 and loss.shape == ()
    want = _float64_clip_loss(model, preds, gts, box_weight, huber_beta)
    assert abs(float(loss.data) - want) <= LOSS_RTOL * abs(want), (float(loss.data), want)


def test_frame_loss_is_one_op_and_checks_map_shapes():
    model = DetectionModel(_cfg())
    maps = _random_maps(np.random.default_rng(3), model, 1)
    preds = {stage: maps[f"p0.{stage}"] for stage in STAGE_NAMES}
    with Graph() as g:
        train_mod._loss(model, [preds], [_LAST_CELL], box_weight=1.0, huber_beta=0.1)
    assert [n.kind for n in g.nodes] == ["detection_loss"]
    preds["f2"] = Tensor(np.zeros((2, 2, 4), np.float32))
    with pytest.raises(ShapeError, match="map shape"):
        train_mod._loss(model, [preds], [_LAST_CELL], box_weight=1.0, huber_beta=0.1)


def test_loss_op_gradients_match_finite_differences():
    model = DetectionModel(_cfg(train={"box_weight": 3.0, "huber_beta": 1.0}))
    maps = _random_maps(np.random.default_rng(4), model, 3, scale=0.5)
    gts = [_LAST_CELL, [Box(x=3.0, y=5.0, w=12.0, h=9.0)], []]

    def f(p):
        preds = [{stage: p[f"p{i}.{stage}"] for stage in STAGE_NAMES} for i in range(3)]
        return train_mod._loss(model, preds, gts, 3.0, 1.0)

    report = grad_check(f, maps)
    assert report.max_rel_error < 1e-3, (
        f"worst {report.worst_param}[{report.worst_index}] = {report.max_rel_error:.3e}"
    )


def test_acceptance_11_clip_loss_and_gradients_equal_the_composed_chain(tmp_path, monkeypatch):
    cfg = _acceptance_11_cfg()
    ds = _dataset(cfg, tmp_path)
    clip = ds.clips[0]
    frames = [ds.load_frame(f) for f in clip.frames]
    gts = [clip.gt[f["frame_id"]] for f in clip.frames]
    model = DetectionModel(cfg)
    # Non-zero output and aggregation projections, so the blocks and the
    # carries reach the loss.
    rng = np.random.default_rng(11)
    model.replace_parameters({name: Tensor(rng.normal(0, 0.3, t.shape).astype(np.float32))
                              for name, t in model.named_parameters().items()
                              if name.endswith(("out_proj.w", "agg.w"))})
    params = model.named_parameters()

    def run(loss_fn):
        with Graph() as g:
            loss = loss_fn()
        return loss, backward(g, loss, parameters=params.values())

    loss, grads = run(lambda: clip_loss(model, frames, gts))
    with monkeypatch.context() as m:
        m.setattr(ssm_mod, "block_forward", composed_block)
        loss_ref, grads_ref = run(lambda: clip_loss(model, frames, gts))
    _assert_same_bits(loss.data, loss_ref.data, "loss")
    assert sorted(grads) == sorted(params) == sorted(grads_ref)
    for name in grads:
        _assert_same_bits(grads[name].data, grads_ref[name].data, name)


# ---------------------------------------------------------------------------
# Parameter store: pinned names, validated replace, the training hooks
# ---------------------------------------------------------------------------

def _small_mambast_cfg(**overrides):
    return _cfg(fuser="mambast", model={"stages": [
        {"stage": "f1", "heads": 2, "patch_sizes": [1, 4], "layers": 1},
        {"stage": "f2", "heads": 1, "patch_sizes": [2], "layers": 1},
        {"stage": "f3", "heads": 1, "patch_sizes": [1], "layers": 1}]}, **overrides)


# Checkpoints are keyed by these names, so a rename breaks every stored one.
PINNED_PARAMETER_SHAPES = {
    "backbone.rgb.f1.w": (192, 16), "backbone.rgb.f1.b": (16,),
    "backbone.rgb.f2.w": (64, 32), "backbone.rgb.f2.b": (32,),
    "backbone.rgb.f3.w": (128, 64), "backbone.rgb.f3.b": (64,),
    "backbone.thermal.f1.w": (64, 16), "backbone.thermal.f1.b": (16,),
    "backbone.thermal.f2.w": (64, 32), "backbone.thermal.f2.b": (32,),
    "backbone.thermal.f3.w": (128, 64), "backbone.thermal.f3.b": (64,),
    "f1.emb.pos": (4, 4, 16), "f1.emb.rgb": (16,), "f1.emb.thermal": (16,),
    "f1.head0.w_in": (16, 8), "f1.head0.out_linear.w": (8, 16), "f1.head0.out_linear.b": (16,),
    "f1.head0.layer0.norm.gamma": (8,), "f1.head0.layer0.norm.beta": (8,),
    "f1.head0.layer0.in_proj.w": (8, 16),
    "f1.head0.layer0.conv.w": (4, 16), "f1.head0.layer0.conv.b": (16,),
    "f1.head0.layer0.gate.w": (8, 16),
    "f1.head0.layer0.out_proj.w": (16, 8), "f1.head0.layer0.out_proj.b": (8,),
    "f1.head0.layer0.ssm.A_log": (16, 16), "f1.head0.layer0.ssm.w_b": (16, 16),
    "f1.head0.layer0.ssm.dt_down": (16, 1), "f1.head0.layer0.ssm.dt_up": (1, 16),
    "f1.head0.layer0.ssm.dt_bias": (16,), "f1.head0.layer0.ssm.w_out": (16, 16),
    "f1.head1.w_in": (256, 8), "f1.head1.out_linear.w": (8, 256), "f1.head1.out_linear.b": (256,),
    "f1.head1.layer0.norm.gamma": (8,), "f1.head1.layer0.norm.beta": (8,),
    "f1.head1.layer0.in_proj.w": (8, 16),
    "f1.head1.layer0.conv.w": (4, 16), "f1.head1.layer0.conv.b": (16,),
    "f1.head1.layer0.gate.w": (8, 16),
    "f1.head1.layer0.out_proj.w": (16, 8), "f1.head1.layer0.out_proj.b": (8,),
    "f1.head1.layer0.ssm.A_log": (16, 16), "f1.head1.layer0.ssm.w_b": (16, 16),
    "f1.head1.layer0.ssm.dt_down": (16, 1), "f1.head1.layer0.ssm.dt_up": (1, 16),
    "f1.head1.layer0.ssm.dt_bias": (16,), "f1.head1.layer0.ssm.w_out": (16, 16),
    "f1.agg.w": (32, 16), "f1.agg.b": (16,),
    "f2.emb.pos": (2, 2, 32), "f2.emb.rgb": (32,), "f2.emb.thermal": (32,),
    "f2.head0.w_in": (128, 32), "f2.head0.out_linear.w": (32, 128), "f2.head0.out_linear.b": (128,),
    "f2.head0.layer0.norm.gamma": (32,), "f2.head0.layer0.norm.beta": (32,),
    "f2.head0.layer0.in_proj.w": (32, 64),
    "f2.head0.layer0.conv.w": (4, 64), "f2.head0.layer0.conv.b": (64,),
    "f2.head0.layer0.gate.w": (32, 64),
    "f2.head0.layer0.out_proj.w": (64, 32), "f2.head0.layer0.out_proj.b": (32,),
    "f2.head0.layer0.ssm.A_log": (64, 16), "f2.head0.layer0.ssm.w_b": (64, 16),
    "f2.head0.layer0.ssm.dt_down": (64, 2), "f2.head0.layer0.ssm.dt_up": (2, 64),
    "f2.head0.layer0.ssm.dt_bias": (64,), "f2.head0.layer0.ssm.w_out": (64, 16),
    "f2.agg.w": (32, 32), "f2.agg.b": (32,),
    "f3.emb.pos": (1, 1, 64), "f3.emb.rgb": (64,), "f3.emb.thermal": (64,),
    "f3.head0.w_in": (64, 64), "f3.head0.out_linear.w": (64, 64), "f3.head0.out_linear.b": (64,),
    "f3.head0.layer0.norm.gamma": (64,), "f3.head0.layer0.norm.beta": (64,),
    "f3.head0.layer0.in_proj.w": (64, 128),
    "f3.head0.layer0.conv.w": (4, 128), "f3.head0.layer0.conv.b": (128,),
    "f3.head0.layer0.gate.w": (64, 128),
    "f3.head0.layer0.out_proj.w": (128, 64), "f3.head0.layer0.out_proj.b": (64,),
    "f3.head0.layer0.ssm.A_log": (128, 16), "f3.head0.layer0.ssm.w_b": (128, 16),
    "f3.head0.layer0.ssm.dt_down": (128, 4), "f3.head0.layer0.ssm.dt_up": (4, 128),
    "f3.head0.layer0.ssm.dt_bias": (128,), "f3.head0.layer0.ssm.w_out": (128, 16),
    "f3.agg.w": (64, 64), "f3.agg.b": (64,),
    "head.f1.w": (16, 5), "head.f1.b": (5,),
    "head.f2.w": (32, 5), "head.f2.b": (5,),
    "head.f3.w": (64, 5), "head.f3.b": (5,),
}


def test_parameter_names_and_shapes_are_pinned():
    params = DetectionModel(_small_mambast_cfg()).named_parameters()
    assert {k: v.shape for k, v in params.items()} == PINNED_PARAMETER_SHAPES
    assert all(t.name == k and t.trainable for k, t in params.items())
    # Tests and the benchmark draw seeded values for these in this order.
    drawn = [k for k in params if k.endswith(("out_proj.w", "agg.w", "dt_bias"))]
    assert drawn == [
        "f1.head0.layer0.out_proj.w", "f1.head0.layer0.ssm.dt_bias",
        "f1.head1.layer0.out_proj.w", "f1.head1.layer0.ssm.dt_bias", "f1.agg.w",
        "f2.head0.layer0.out_proj.w", "f2.head0.layer0.ssm.dt_bias", "f2.agg.w",
        "f3.head0.layer0.out_proj.w", "f3.head0.layer0.ssm.dt_bias", "f3.agg.w",
    ]


@pytest.mark.parametrize("name", ["head.f1.w", "backbone.thermal.f2.b", "f1.agg.b"])
def test_replace_rejects_a_wrong_shape_and_changes_nothing(name):
    model = DetectionModel(_small_mambast_cfg())
    before = model.named_parameters()
    ok = Tensor(np.ones(before["f1.emb.pos"].shape, np.float32))
    with pytest.raises(ShapeError, match=name):
        model.replace_parameters({"f1.emb.pos": ok, name: Tensor(np.zeros(3, np.float32))})
    after = model.named_parameters()
    assert list(after) == list(before)
    for k, t in before.items():
        assert after[k] is t


def test_load_detector_rejects_a_wrong_head_shape(tmp_path):
    cfg = _small_mambast_cfg()
    params = DetectionModel(cfg).named_parameters()
    params["head.f1.b"] = Tensor(np.zeros(3, np.float32))
    save_checkpoint(tmp_path / "run", params, metadata={
        "kind": "detection_checkpoint", "config": cfg, "config_hash": config_model_hash(cfg)})
    with pytest.raises(ShapeError, match="head.f1.b"):
        load_detector(tmp_path / "run")


def test_load_detector_names_a_missing_config(tmp_path):
    cfg = _small_mambast_cfg()
    save_checkpoint(tmp_path / "run", DetectionModel(cfg).named_parameters(), metadata={
        "kind": "detection_checkpoint", "config_hash": config_model_hash(cfg)})
    with pytest.raises(ValueError, match="key 'config' must be a dict, got None"):
        load_detector(tmp_path / "run")


@pytest.mark.parametrize("mutate, reason", [
    (lambda cfg: cfg["model"]["stages"][0].update(layers=None), "is not a valid config"),
    (lambda cfg: cfg.pop("model"), "does not hash to its 'config_hash'"),
    (lambda cfg: cfg.update(seed=2.5), "is not a valid config"),
], ids=["null-layers", "no-model", "float-seed"])
def test_load_detector_names_the_checkpoint_and_key_of_a_broken_stored_config(tmp_path, mutate, reason):
    cfg = _small_mambast_cfg()
    params = DetectionModel(cfg).named_parameters()
    stored = json.loads(json.dumps(cfg))
    mutate(stored)
    save_checkpoint(tmp_path / "run", params, metadata={
        "kind": "detection_checkpoint", "config": stored, "config_hash": config_model_hash(cfg)})
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'run'}: detection checkpoint key 'config' {reason}")):
        load_detector(tmp_path / "run")


def test_load_detector_rejects_tensors_the_model_does_not_have(tmp_path):
    cfg = _small_mambast_cfg()
    params = DetectionModel(cfg).named_parameters()
    params["f1.head0.layer0.ssm.A_logg"] = params["f1.head0.layer0.ssm.A_log"]
    save_checkpoint(tmp_path / "run", params, metadata={
        "kind": "detection_checkpoint", "config": cfg, "config_hash": config_model_hash(cfg)})
    with pytest.raises(ValueError, match=r"does not have: \['f1\.head0\.layer0\.ssm\.A_logg'\]"):
        load_detector(tmp_path / "run")


def test_train_steps_through_replace_parameters_and_saves_named_parameters(tmp_path, monkeypatch):
    # The benchmark's train-desk step clock wraps DetectionModel.replace_parameters
    # and its reload check captures what train hands to save_checkpoint.
    cfg = _small_mambast_cfg(train={"steps": 3})
    ds = _dataset(cfg, tmp_path)
    models, saved = [], []
    original_replace = DetectionModel.replace_parameters
    original_save = train_mod.save_checkpoint

    def counting_replace(self, updated):
        models.append(self)
        original_replace(self, updated)

    def capturing_save(dirpath, tensors, metadata=None):
        saved.append(tensors)
        original_save(dirpath, tensors, metadata=metadata)

    monkeypatch.setattr(DetectionModel, "replace_parameters", counting_replace)
    monkeypatch.setattr(train_mod, "save_checkpoint", capturing_save)
    train(cfg, ds, tmp_path / "run")
    assert len(models) == 3 and len(set(map(id, models))) == 1
    assert len(saved) == 1
    final = models[0].named_parameters()
    assert list(saved[0]) == list(final)
    assert all(saved[0][k] is t for k, t in final.items())
