"""The three benchmark workloads, driven through the program's public calls.

Each workload has a ``setup`` (inputs generated from the seed, model built or
trained), a closed ``loop`` of whole rounds that runs until the time is up,
and ``checks`` on the outputs. ``run`` ties them together and returns the
end-to-end figures, or the per-layer ones when traced.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from crossfuse import metrics as metrics_mod
from crossfuse import temporal as temporal_mod
from crossfuse import tensor as tensor_mod
from crossfuse.config import normalize_config, stage_configs_from
from crossfuse.harness import model as model_mod
from crossfuse.harness import synthetic as synthetic_mod
from crossfuse.profiler import full_scale_configs
from crossfuse.tensor import Graph, Tensor
from crossfuse.tensorio import load_checkpoint

import reference
from tracing import Tracer, evaluate_mod, train_mod

OUT_DIR = Path(__file__).resolve().parent / "out"
REFERENCE_TOLERANCE = 1e-5  # max |program - float64 reference| / max(1, max |reference|)
RECALL_FLOOR_PCT = 25.0    # stream-night recall must stay above this; seeds measure 50 to 95
GRAD_TOLERANCE = 1e-5      # |analytic - central difference| / max(|analytic|, |numeric|, 1e-3)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Loop:
    """What one measured loop produced."""

    op_seconds: list[float] = field(default_factory=list)  # wall time of each finished operation
    rounds: list[tuple[int, float]] = field(default_factory=list)  # (operations finished, wall time) per round
    failed: int = 0
    state: dict = field(default_factory=dict)  # outputs the checks read

    @property
    def attempted(self) -> int:
        return len(self.op_seconds) + self.failed

    @property
    def ops_per_s(self) -> float:
        """Median over rounds of finished operations per second of the round's
        wall time, so a stall of a few seconds moves one round, not the figure."""
        return statistics.median(n / seconds for n, seconds in self.rounds)


@contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}\n{traceback.format_exc()}", flush=True)


# ---------------------------------------------------------------------------
# Streaming: load -> backbone -> fuse_next -> heads -> decode, one frame at a time
# ---------------------------------------------------------------------------

def _stream_frame(model, dataset, frame, state, floor):
    rgb, thm = dataset.load_frame(frame)
    pyramid = model.backbone_forward(rgb, thm)
    fused, state = temporal_mod.fuse_next(model.fusion, state, pyramid)
    boxes = evaluate_mod.decode_frame(model.head_forward(fused), model.cfg, floor)
    return boxes, state


def _warm_up(model, dataset, frames) -> None:
    """Stream the first frames of the first clip, untimed."""
    floor = model.cfg["eval"]["confidence_floor"]
    state = temporal_mod.init_stream(model.fusion)
    for frame in dataset.clips[0].frames[:frames]:
        _, state = _stream_frame(model, dataset, frame, state, floor)


def _stream(model, dataset, seconds) -> Loop:
    """Stream every clip of the dataset and score the pass; whole passes until ``seconds`` pass.

    Only the last pass's records are kept, so the benchmark's own memory does
    not grow with the number of frames a run gets through.
    """
    floor = model.cfg["eval"]["confidence_floor"]
    loop = Loop(state={"recalls": []})
    start = time.perf_counter()
    while True:
        records = []
        round_start = time.perf_counter()
        for clip in dataset.clips:
            state = temporal_mod.init_stream(model.fusion)
            for frame in clip.frames:
                t0 = time.perf_counter()
                try:
                    boxes, state = _stream_frame(model, dataset, frame, state, floor)
                except Exception:
                    _report_failure(frame["frame_id"])
                    loop.failed += 1
                    state = temporal_mod.init_stream(model.fusion)
                    continue
                loop.op_seconds.append(time.perf_counter() - t0)
                records.append((boxes, clip.gt[frame["frame_id"]]))
        summary = metrics_mod.collect_matches(records, metrics_mod.SETTING_ALL, model.cfg["eval"]["iou_threshold"])
        curve = metrics_mod.mr_fppi_curve(summary.records, summary.n_gt, summary.n_frames)
        loop.state["recalls"].append(metrics_mod.recall(summary.records, summary.n_gt))
        loop.state["lamr"] = metrics_mod.lamr(curve)
        loop.state["records"] = records
        loop.rounds.append((len(records), time.perf_counter() - round_start))
        if time.perf_counter() - start >= seconds:
            break
    return loop


def _box_check(records, floor) -> Check:
    bad = 0
    total = 0
    for dets, _ in records:
        for b in dets:
            total += 1
            values = (b.x, b.y, b.w, b.h, b.confidence)
            if not (all(math.isfinite(v) for v in values) and b.w > 0 and b.h > 0 and b.confidence >= floor):
                bad += 1
    return Check("decoded boxes finite, positive size, confidence >= floor", bad == 0,
                 f"{bad} bad of {total} boxes")


def _iou(a, b) -> float:
    w = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    h = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / (a.w * a.h + b.w * b.h - inter)


def _greedy_recall(records, iou_threshold) -> float:
    """Recall by greedy matching: detections by falling confidence, each takes
    the free ground truth it overlaps most at or above the threshold."""
    matched = n_gt = 0
    for dets, gts in records:
        n_gt += len(gts)
        free = list(range(len(gts)))
        for det in sorted(dets, key=lambda d: -d.confidence):
            overlaps = [(_iou(det, gts[j]), -j) for j in free]
            best = max(overlaps, default=(0.0, 0))
            if best[0] >= iou_threshold:
                free.remove(-best[1])
                matched += 1
    return 100.0 * matched / n_gt


def _pyramid_arrays(fused):
    return {stage: (pair.rgb.data, pair.thermal.data) for stage, pair in fused.items()}


def _reference_check(model, pyramids, fused) -> Check:
    """Program fused pyramids against the float64 re-implementation."""
    expected = reference.fuse_stream(model.fusion, [_pyramid_arrays(p) for p in pyramids])
    err = reference.max_scaled_error([_pyramid_arrays(f) for f in fused], expected)
    return Check(f"fused pyramids match float64 reference on {len(pyramids)} frames",
                 err <= REFERENCE_TOLERANCE, f"scaled error {err:.2e} (tolerance {REFERENCE_TOLERANCE:g})")


def _stream_clip(model, dataset, clip, frames):
    """Backbone pyramids and fuse_next outputs for the first ``frames`` frames of a clip."""
    pyramids, fused = [], []
    state = temporal_mod.init_stream(model.fusion)
    for frame in clip.frames[:frames]:
        pyramids.append(model.backbone_forward(*dataset.load_frame(frame)))
        out, state = temporal_mod.fuse_next(model.fusion, state, pyramids[-1])
        fused.append(out)
    return pyramids, fused


def _spec_fields(cfg: dict) -> dict:
    """The config's data section as SyntheticClipSpec fields (clip count removed)."""
    data = dict(cfg["data"])
    data.pop("clips")
    return data


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class _Stream:
    """A detector streaming the clips of ``ctx["dataset"]``, one frame at a time."""

    op = "frame"
    WARMUP_FRAMES = 1

    def prepare(self, seed: int, inputs: Path) -> None:
        pass  # each set-up generates its own clips

    def warm_up(self, ctx) -> None:
        _warm_up(ctx["model"], ctx["dataset"], self.WARMUP_FRAMES)

    def loop(self, ctx, seconds: float) -> Loop:
        return _stream(ctx["model"], ctx["dataset"], seconds)

    def info(self, loop: Loop) -> list[str]:
        return []


class StreamNight(_Stream):
    """Desk detector trained on a night split, streaming long held-out night clips."""

    SETUPS = 1          # the set-up is a 200-step training run, about 13 s
    TRAIN_STEPS = 200
    EVAL_CLIPS = 12
    EVAL_FRAMES = 32
    REFERENCE_FRAMES = 4
    WARMUP_FRAMES = 8

    def setup(self, seed: int, work: Path) -> dict:
        cfg = normalize_config({"schema_version": 1, "seed": seed, "fuser": "mambast",
                                "data": {"illumination": "night"},
                                "train": {"steps": self.TRAIN_STEPS}})
        data = _spec_fields(cfg)
        synthetic_mod.gen_clips(synthetic_mod.SyntheticClipSpec(seed=seed, **data),
                                cfg["data"]["clips"], work / "train")
        train_mod.train(cfg, synthetic_mod.load_dataset(work / "train"), work / "checkpoint")
        eval_spec = synthetic_mod.SyntheticClipSpec(seed=seed + 1000, **dict(data, frames=self.EVAL_FRAMES))
        synthetic_mod.gen_clips(eval_spec, self.EVAL_CLIPS, work / "eval")
        model, _ = evaluate_mod.load_detector(work / "checkpoint", cfg)
        return {"seed": seed, "model": model, "dataset": synthetic_mod.load_dataset(work / "eval")}

    def checks(self, ctx, loop: Loop) -> list[Check]:
        model, dataset = ctx["model"], ctx["dataset"]
        clip = dataset.clips[np.random.default_rng(ctx["seed"]).integers(len(dataset.clips))]
        pyramids, streamed = _stream_clip(model, dataset, clip, len(clip.frames))
        whole = temporal_mod.fuse_clip(model.fusion, pyramids)
        same = all(x.dtype == y.dtype and np.array_equal(x, y)
                   for a, b in zip(map(_pyramid_arrays, streamed), map(_pyramid_arrays, whole))
                   for stage in a for x, y in zip(a[stage], b[stage]))
        records = loop.state["records"]
        iou = model.cfg["eval"]["iou_threshold"]
        own = _greedy_recall(records, iou)
        recalls = loop.state["recalls"]
        recall = recalls[-1]
        n = self.REFERENCE_FRAMES
        return [
            Check(f"{clip.clip_id} through fuse_next equals fuse_clip", same, f"{len(clip.frames)} frames bit-exact"),
            _reference_check(model, pyramids[:n], streamed[:n]),
            _box_check(records, model.cfg["eval"]["confidence_floor"]),
            Check("every pass over the clips scores the same recall", len(set(recalls)) == 1,
                  f"{len(recalls)} passes"),
            Check("own greedy matching reproduces metrics.recall", own == recall,
                  f"{own:.4f} vs {recall:.4f}"),
            Check(f"recall above {RECALL_FLOOR_PCT:g}%", recall > RECALL_FLOOR_PCT, f"{recall:.2f}%"),
        ]

    def info(self, loop: Loop) -> list[str]:
        return [f"recall_pct {loop.state['recalls'][-1]:.2f} %  (setting all; lamr {loop.state['lamr']:.2f} %)"]


class TrainDesk:
    """The acceptance-11 training config, trained in whole rounds of a fixed step count."""

    op = "step"
    SETUPS = 15         # a set-up loads the generated clips, a few ms
    STEPS = 100
    FD_ENTRIES = 24
    FD_EPS = 1e-6
    RAW = {
        "schema_version": 1, "fuser": "mambast",
        "data": {"height": 32, "width": 32, "frames": 3,
                 "blob_count_min": 1, "blob_count_max": 1,
                 "blob_size_min": 10, "blob_size_max": 16,
                 "blob_speed_max": 0.25, "stride": 2,
                 "occlusion": "last_frame", "clips": 64},
        "model": {"stages": [
            {"stage": "f1", "heads": 2, "patch_sizes": [1, 4], "layers": 1},
            {"stage": "f2", "heads": 1, "patch_sizes": [2], "layers": 1},
            {"stage": "f3", "heads": 1, "patch_sizes": [1], "layers": 1}]},
        "train": {"lr": 0.005, "box_weight": 3.0},
    }

    def _config(self, seed: int) -> dict:
        raw = json.loads(json.dumps(self.RAW))
        raw["seed"] = seed
        raw["train"]["steps"] = self.STEPS
        return normalize_config(raw)

    def prepare(self, seed: int, inputs: Path) -> None:
        """Generate the training clips once per run, untimed.

        Generation is about 450 small-file writes, whose time swung 5x
        between runs on a VM disk, far past any bound; a training job's
        set-up is loading a data set that already exists.
        """
        cfg = self._config(seed)
        self.clips = inputs / "train"
        synthetic_mod.gen_clips(synthetic_mod.SyntheticClipSpec(seed=seed, **_spec_fields(cfg)),
                                cfg["data"]["clips"], self.clips)

    def setup(self, seed: int, work: Path) -> dict:
        return {"seed": seed, "cfg": self._config(seed), "dataset": synthetic_mod.load_dataset(self.clips),
                "checkpoint": work / "checkpoint"}

    def warm_up(self, ctx) -> None:
        pass  # every round starts from a fresh model; its first step is part of the cost

    def loop(self, ctx, seconds: float) -> Loop:
        loop = Loop(state={"losses": [], "saved": None})
        stamps: list[float] = []

        def step_clock(original):
            def replace_parameters(*args, **kwargs):
                original(*args, **kwargs)
                stamps.append(time.perf_counter())
            return replace_parameters

        def capture(original):
            def save_checkpoint(dirpath, tensors, metadata=None):
                loop.state["saved"] = dict(tensors)
                return original(dirpath, tensors, metadata=metadata)
            return save_checkpoint

        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            stamps.clear()
            with patched(model_mod.DetectionModel, "replace_parameters", step_clock), \
                    patched(train_mod, "save_checkpoint", capture):
                t0 = time.perf_counter()
                try:
                    train_mod.train(ctx["cfg"], ctx["dataset"], ctx["checkpoint"])
                except Exception:
                    _report_failure("training round")
                    loop.failed += self.STEPS
                    stamps.clear()  # the round counts as failed whole
                    continue
                finally:
                    loop.rounds.append((len(stamps), time.perf_counter() - t0))
            loop.op_seconds.extend(np.diff([t0] + stamps).tolist())
            with open(ctx["checkpoint"] / "loss_log.jsonl") as fp:
                loop.state["losses"].append([json.loads(line)["loss"] for line in fp])
        return loop

    def checks(self, ctx, loop: Loop) -> list[Check]:
        rounds = loop.state["losses"]
        finite = all(math.isfinite(v) for losses in rounds for v in losses)
        tenth = self.STEPS // 10
        first = [statistics.fmean(losses[:tenth]) for losses in rounds]
        last = [statistics.fmean(losses[-tenth:]) for losses in rounds]
        stored, _ = load_checkpoint(ctx["checkpoint"])
        saved = {k: v.data for k, v in loop.state["saved"].items()}
        model, _ = evaluate_mod.load_detector(ctx["checkpoint"], ctx["cfg"])
        reloaded = {k: v.data for k, v in model.named_parameters().items()}
        exact = all(
            sorted(d) == sorted(saved) and all(d[k].dtype == saved[k].dtype and np.array_equal(d[k], saved[k])
                                               for k in saved)
            for d in ({k: v.data for k, v in stored.items()}, reloaded))
        return [
            Check("every step's loss is finite", finite, f"{sum(map(len, rounds))} steps"),
            Check("last tenth of steps has lower mean loss than the first tenth",
                  all(b < a for a, b in zip(first, last)), f"{first[0]:.4f} -> {last[0]:.4f}"),
            Check("reloaded checkpoint equals the trained parameters bit for bit", exact,
                  f"{len(saved)} tensors"),
            self._gradient_check(ctx, model),
        ]

    def _gradient_check(self, ctx, model) -> Check:
        """Float64 central differences of the clip loss on sampled entries vs tensor.backward."""
        rng = np.random.default_rng(ctx["seed"])
        params = {k: Tensor(v.data.astype(np.float64), name=k, trainable=True)
                  for k, v in model.named_parameters().items()}
        model.replace_parameters(params)
        dataset = ctx["dataset"]
        clip = dataset.clips[rng.integers(len(dataset.clips))]
        frames = [dataset.load_frame(f) for f in clip.frames]
        gts = [clip.gt[f["frame_id"]] for f in clip.frames]

        def loss_with(name, flat_index, delta):
            arr = params[name].data.copy()
            arr.flat[flat_index] += delta
            model.replace_parameters({name: Tensor(arr, name=name, trainable=True)})
            try:
                return train_mod.clip_loss(model, frames, gts).item()
            finally:
                model.replace_parameters({name: params[name]})

        with Graph() as graph:
            loss = train_mod.clip_loss(model, frames, gts)
        grads = tensor_mod.backward(graph, loss, parameters=params.values())
        names = sorted(params)
        worst, where = 0.0, ""
        for i in rng.choice(len(names), size=self.FD_ENTRIES, replace=len(names) < self.FD_ENTRIES):
            name = names[i]
            j = int(rng.integers(params[name].size))
            numeric = (loss_with(name, j, self.FD_EPS) - loss_with(name, j, -self.FD_EPS)) / (2 * self.FD_EPS)
            analytic = float(grads[name].data.flat[j])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            if err >= worst:
                worst, where = err, f"{name}[{j}]"
        return Check(f"float64 central differences agree with tensor.backward on {self.FD_ENTRIES} entries",
                     worst <= GRAD_TOLERANCE, f"worst relative error {worst:.2e} at {where}")

    def info(self, loop: Loop) -> list[str]:
        return [f"train_steps_per_s {loop.ops_per_s:.4f} step/s  "
                f"({self.STEPS} steps per train call, checkpoint write included)"]


class FullscaleFrame(_Stream):
    """full_scale_configs() geometry as a detector, streaming 640x640 night frames."""

    SETUPS = 3
    LAYERS = 1          # block depth per head, cut from the full-scale 8
    FRAMES = 4
    REFERENCE_FRAMES = 2
    RAW = {
        "schema_version": 1, "fuser": "mambast",
        "data": {"height": 640, "width": 640, "frames": FRAMES, "illumination": "night",
                 "blob_size_min": 40, "blob_size_max": 120, "blob_speed_max": 6.0, "clips": 1},
        "model": {"d_factor": 64, "stages": [
            {"stage": "f1", "heads": 4, "patch_sizes": [1, 2, 4, 8], "layers": LAYERS},
            {"stage": "f2", "heads": 1, "patch_sizes": [1], "layers": LAYERS},
            {"stage": "f3", "heads": 1, "patch_sizes": [1], "layers": LAYERS}]},
    }

    def setup(self, seed: int, work: Path) -> dict:
        cfg = normalize_config(dict(self.RAW, seed=seed))
        if stage_configs_from(cfg) != full_scale_configs(layers=self.LAYERS):
            raise ValueError("fullscale-frame geometry drifted from full_scale_configs()")
        model = model_mod.DetectionModel(cfg)
        # The output projections start at zero, which makes fresh fusion the
        # identity; seeded weights there make the fused maps depend on the scan.
        rng = np.random.default_rng(seed)
        model.replace_parameters({
            name: Tensor(rng.normal(0.0, 0.5 / math.sqrt(t.shape[0]), size=t.shape).astype(np.float32),
                         name=name, trainable=True)
            for name, t in model.named_parameters().items() if name.endswith(("out_proj.w", "agg.w"))
        })
        spec = synthetic_mod.SyntheticClipSpec(seed=seed, **_spec_fields(cfg))
        synthetic_mod.gen_clips(spec, cfg["data"]["clips"], work / "frames")
        return {"seed": seed, "model": model, "dataset": synthetic_mod.load_dataset(work / "frames")}

    def checks(self, ctx, loop: Loop) -> list[Check]:
        model, dataset = ctx["model"], ctx["dataset"]
        pyramids, fused = _stream_clip(model, dataset, dataset.clips[0], self.REFERENCE_FRAMES)
        return [
            _reference_check(model, pyramids, fused),
            _box_check(loop.state["records"], model.cfg["eval"]["confidence_floor"]),
        ]


WORKLOADS = {"stream-night": StreamNight, "train-desk": TrainDesk, "fullscale-frame": FullscaleFrame}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    checks: list[Check]
    info: list[str]


def _percentile(sorted_values, q):
    """Nearest-rank percentile and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    workload = WORKLOADS[name]()
    work = OUT_DIR / f"work-{name}-{seed}-{time.time_ns()}"
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        workload.prepare(seed, work / "inputs")
        setup_seconds = []
        # setup_s is the median of the set-ups; it is not reported when traced.
        # Half of them run before the loop and the rest after it (into a
        # directory of their own), so the median samples the machine at both
        # ends of the run rather than during the first seconds alone.
        for _ in range(1 if trace else (workload.SETUPS + 1) // 2):
            shutil.rmtree(work / "setup", ignore_errors=True)
            t0 = time.perf_counter()
            ctx = workload.setup(seed, work / "setup")
            setup_seconds.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        workload.warm_up(ctx)
        loop = workload.loop(ctx, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(0 if trace else workload.SETUPS // 2):
            shutil.rmtree(work / "again", ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup(seed, work / "again")
            setup_seconds.append(time.perf_counter() - t0)
        op_ms = sorted(1e3 * s for s in loop.op_seconds)
        p50 = statistics.median(op_ms)
        p95, beyond = _percentile(op_ms, 0.95)
        ops_per_s = loop.ops_per_s
        op = workload.op
        info = [f"{op} latency over {len(op_ms)} {op}s: p50 {p50:.4f} ms, "
                + (f"p95 {p95:.4f} ms ({beyond} {op}s beyond)" if beyond >= 10
                   else f"no p95 (only {beyond} {op}s would lie beyond it)")]
        info += workload.info(loop)
        info.append(f"{len(setup_seconds)} set-ups, {min(setup_seconds):.3f} to {max(setup_seconds):.3f} s")
        if tracer:
            metrics, counted_loop = _traced_loop(workload, ctx, seconds, tracer, len(setup_seconds), p50, ops_per_s)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
            tracer.write(trace_path, {"workload": name, "seed": seed, "operations": counted_loop.attempted,
                                      "metrics": {k: v for k, (v, _) in metrics.items()}})
            info.append(f"traced loop: {counted_loop.attempted} {op}s; spans in {trace_path}")
        else:
            counted_loop = loop
            metrics = {
                "setup_s": (statistics.median(setup_seconds), "s"),
                "op_ms_p50": (p50, "ms"),
                "ops_per_s": (ops_per_s, "op/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        checks = workload.checks(ctx, loop)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return Result(correct=all(c.ok for c in checks), attempted=counted_loop.attempted,
                  failed=counted_loop.failed, metrics=metrics, checks=checks, info=info)


def _traced_loop(workload, ctx, seconds, tracer, setups, p50, ops_per_s):
    """The loop again with the tracer installed; per-layer figures plus the tracing overhead."""
    tracer.install()
    tracer.phase = "loop"
    try:
        traced = workload.loop(ctx, seconds)
    finally:
        tracer.uninstall()
    configs = ctx["model"].fusion.configs if "model" in ctx else stage_configs_from(ctx["cfg"])
    metrics = tracer.layer_metrics(traced.attempted, setups, configs)
    metrics["trace.overhead_op_ms_p50"] = (1e3 * statistics.median(traced.op_seconds) - p50, "ms")
    metrics["trace.overhead_ops_per_s"] = (ops_per_s - traced.ops_per_s, "op/s")
    return metrics, traced
