"""Command-line entry points.

    crossfuse gen       --config cfg.json --out data/
    crossfuse train     --config cfg.json --data data/ --out runs/exp0
    crossfuse eval      --checkpoint runs/exp0 --data data/ [--reset-every 1]
    crossfuse profile   [--config cfg.json | --full-scale] [--latency]
    crossfuse bench     [--config cfg.json | --full-scale]
    crossfuse selfcheck

Every subcommand reports JSON (optionally to a file via --json) plus a
human-readable summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import default_config, load_config, stage_configs_from
from .fusion import StageConfig, init_stage, patch, stage_forward, unpatch
from .interleave import build_layout, ocf_flatten, ocf_unflatten
from .metrics import Box, DetRecord, lamr, mr_fppi_curve
from .profiler import (
    REFERENCE_FULL_SCALE,
    bench_latency,
    full_scale_configs,
    profile,
    render_table,
    stage_param_count,
)
from .ssm import SSMParams, scan_sequence
from .temporal import build_model, fuse_clip, walk_parameters, FeaturePair
from .tensor import Graph, Tensor, grad_check
from .tensorio import load_checkpoint, save_checkpoint


def _load_cfg(path: str | None) -> dict:
    return load_config(path) if path else default_config()


def _emit(report: dict, json_path: str | None) -> None:
    if json_path:
        with open(json_path, "w") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"report written to {json_path}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    from .harness.synthetic import SyntheticClipSpec, gen_clips

    cfg = _load_cfg(args.config)
    data = dict(cfg["data"])
    count = data.pop("clips")
    spec = SyntheticClipSpec(seed=cfg["seed"], **data)
    manifest = gen_clips(spec, count, args.out)
    print(f"wrote {len(manifest['clips'])} clips to {args.out} "
          f"({spec.frames} frames each, {spec.illumination}, occlusion={spec.occlusion})")
    return 0


def cmd_train(args) -> int:
    from .harness.synthetic import load_dataset
    from .harness.train import train

    cfg = _load_cfg(args.config)
    dataset = load_dataset(args.data)
    t0 = time.perf_counter()
    summary = train(cfg, dataset, args.out, quiet=not args.verbose)
    summary["seconds"] = round(time.perf_counter() - t0, 2)
    summary["fuser"] = cfg["fuser"]
    _emit(summary, args.json)
    return 0


def cmd_eval(args) -> int:
    from .harness.evaluate import evaluate, load_detector
    from .harness.synthetic import load_dataset

    cfg = load_config(args.config) if args.config else None
    model, meta = load_detector(args.checkpoint, cfg)
    dataset = load_dataset(args.data)
    report = evaluate(
        model,
        dataset,
        reset_every=args.reset_every,
        detections_path=args.detections,
    )
    report["checkpoint"] = str(args.checkpoint)
    report["fuser"] = model.fuser
    _emit(report, args.json)
    if args.json:
        for name, row in report["settings"].items():
            if row["n_gt"]:
                print(f"{name:<18} lamr {row['lamr']:7.2f}%   recall {row['recall']:6.2f}%   gt {row['n_gt']}")
    return 0


def _profile_configs(args) -> tuple[list[StageConfig], dict | None]:
    if args.full_scale:
        return full_scale_configs(), dict(REFERENCE_FULL_SCALE)
    cfg = _load_cfg(args.config)
    return stage_configs_from(cfg), None


def cmd_profile(args) -> int:
    configs, reference = _profile_configs(args)
    report = profile(
        configs,
        with_latency=args.latency,
        reps=args.reps,
        warmup=args.warmup,
        reference=reference,
    )
    if args.json:
        _emit(report.to_dict(), args.json)
    print(render_table(report))
    return 0


def cmd_bench(args) -> int:
    configs, _ = _profile_configs(args)
    out = bench_latency(configs, reps=args.reps, warmup=args.warmup)
    _emit(out, args.json)
    return 0


# ---------------------------------------------------------------------------
# selfcheck: fast invariant battery
# ---------------------------------------------------------------------------

def _check_flatten_bijection() -> None:
    rng = np.random.default_rng(7)
    for rows, cols, ch in ((1, 2, 3), (3, 5, 2), (4, 4, 8), (2, 7, 1)):
        rgb = Tensor(rng.normal(size=(rows, cols, ch)).astype(np.float32))
        thm = Tensor(rng.normal(size=(rows, cols, ch)).astype(np.float32))
        layout = build_layout(rows, cols)
        tokens = ocf_flatten(rgb, thm, layout)
        r2, t2 = ocf_unflatten(tokens, layout)
        if not (np.array_equal(r2.data, rgb.data) and np.array_equal(t2.data, thm.data)):
            raise AssertionError(f"flatten/unflatten not a bijection at {(rows, cols, ch)}")


def _check_flatten_order() -> None:
    layout = build_layout(1, 2)
    want = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))
    if layout.order != want:
        raise AssertionError(f"1x2 token order {layout.order} != {want}")


def _check_scan_impulse() -> None:
    n = 1
    params = SSMParams(
        a_log=T.parameter(np.zeros((1, n), np.float32), "sc.A_log"),
        w_b=T.parameter(np.ones((1, n), np.float32), "sc.w_b"),
        dt_down=T.parameter(np.zeros((1, 1), np.float32), "sc.dt_down"),
        dt_up=T.parameter(np.zeros((1, 1), np.float32), "sc.dt_up"),
        dt_bias=T.parameter(np.zeros(1, np.float32), "sc.dt_bias"),
        w_out=T.parameter(np.ones((1, n), np.float32), "sc.w_out"),
    )
    x = Tensor(np.array([[1.0], [0.0], [0.0]], np.float32))
    y, _ = scan_sequence(params, x)
    ln2 = float(np.log(2.0))
    want = np.array([[ln2], [ln2 / 2], [ln2 / 4]], np.float32)
    if not np.allclose(y.data, want, atol=1e-6):
        raise AssertionError(f"impulse response {y.data.ravel()} != {want.ravel()}")


def _check_stage_identity() -> None:
    cfg = StageConfig(name="f1", height=4, width=4, channels=4, heads=2,
                      patch_sizes=(1, 2), layers=1, state_size=4)
    params = init_stage(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    rgb = Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32))
    thm = Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32))
    res = stage_forward(params, rgb, thm)
    if not (np.array_equal(res.rgb.data, rgb.data) and np.array_equal(res.thermal.data, thm.data)):
        raise AssertionError("freshly initialized stage is not an exact identity")


def _check_streaming() -> None:
    cfg = StageConfig(name="f1", height=4, width=4, channels=4, heads=1,
                      patch_sizes=(2,), layers=1, state_size=4)
    model = build_model([cfg], seed=11)
    # Zero-init output projections make the stack input-independent, so
    # randomize them before probing temporal behaviour.
    rng = np.random.default_rng(12)
    updates = {}
    for name, t in model.named_parameters().items():
        if name.endswith("out_proj.w") or name.endswith("agg.w"):
            updates[name] = Tensor(rng.normal(0, 0.1, size=t.shape).astype(np.float32),
                                   name=name, trainable=True)
    model.replace_parameters(updates)
    frames = [
        {"f1": FeaturePair(stage="f1",
                           rgb=Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32)),
                           thermal=Tensor(rng.normal(size=(4, 4, 4)).astype(np.float32)))}
        for _ in range(3)
    ]
    whole = fuse_clip(model, frames)
    per_frame = [fuse_clip(model, [f])[0] for f in frames]
    same0 = np.array_equal(whole[0]["f1"].rgb.data, per_frame[0]["f1"].rgb.data)
    diff2 = not np.array_equal(whole[2]["f1"].rgb.data, per_frame[2]["f1"].rgb.data)
    if not same0:
        raise AssertionError("first streamed frame disagrees with its single-frame fusion")
    if not diff2:
        raise AssertionError("carry tokens had no effect on a later frame")


def _check_patch_roundtrip() -> None:
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(8, 8, 3)).astype(np.float32))
    for s in (1, 2, 4):
        y = unpatch(patch(x, s), s)
        if not np.array_equal(y.data, x.data):
            raise AssertionError(f"patch/unpatch roundtrip failed at size {s}")


def _check_lamr_oracle() -> None:
    # One TP at conf .9 and one FP at conf .8 over 1 GT, 1 frame:
    # thresholds {.9, .8} give curve [(0, 0), (1, 0)]; every reference point
    # reads miss rate 0 -> floored to 1e-5 -> 0.001%.
    records = [DetRecord(0.9, True), DetRecord(0.8, False)]
    curve = mr_fppi_curve(records, n_gt=1, n_frames=1)
    got = lamr(curve)
    if abs(got - 1e-3) > 1e-12:
        raise AssertionError(f"lamr pencil oracle: got {got}, want 0.001")


def _check_param_count() -> None:
    cfg = StageConfig(name="f2", height=4, width=4, channels=8, heads=2,
                      patch_sizes=(1, 2), layers=2, state_size=4)
    params = init_stage(cfg, np.random.default_rng(1))
    walked = sum(t.size for _, _, t in walk_parameters(params))
    closed = stage_param_count(cfg)
    if walked != closed:
        raise AssertionError(f"closed-form params {closed} != walked sum {walked}")


def _check_grad() -> None:
    rng = np.random.default_rng(9)
    params = {
        "sc.w": T.parameter(rng.normal(0, 0.3, size=(4, 3)).astype(np.float32), "sc.w"),
        "sc.b": T.parameter(rng.normal(0, 0.3, size=3).astype(np.float32), "sc.b"),
    }
    x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))

    def f(p):
        return T.reduce_sum(T.silu(T.linear(x.astype(p["sc.w"].dtype), p["sc.w"], p["sc.b"])))

    report = grad_check(f, params)
    if report.max_rel_error >= 1e-3:
        raise AssertionError(f"grad check error {report.max_rel_error:.2e} >= 1e-3")


def _check_checkpoint_io(tmp: Path) -> None:
    rng = np.random.default_rng(21)
    tensors = {
        "a.w": Tensor(rng.normal(size=(3, 4)).astype(np.float32), name="a.w", trainable=True),
        "b": Tensor(rng.normal(size=(2,)).astype(np.float32), name="b", trainable=True),
    }
    save_checkpoint(tmp, tensors, metadata={"kind": "selfcheck"})
    loaded, meta = load_checkpoint(tmp)
    if meta.get("kind") != "selfcheck":
        raise AssertionError("checkpoint metadata did not round-trip")
    for k, t in tensors.items():
        if not np.array_equal(loaded[k].data, t.data):
            raise AssertionError(f"tensor {k} did not round-trip bit-exactly")


def cmd_selfcheck(args) -> int:
    import tempfile

    checks = [
        ("token interleave is a bijection", _check_flatten_bijection),
        ("1x2 golden token order", _check_flatten_order),
        ("scan impulse response", _check_scan_impulse),
        ("stage is identity at init", _check_stage_identity),
        ("carry propagates across frames", _check_streaming),
        ("patch/unpatch roundtrip", _check_patch_roundtrip),
        ("log-average miss rate oracle", _check_lamr_oracle),
        ("closed-form parameter count", _check_param_count),
        ("analytic gradients vs finite differences", _check_grad),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as e:  # report every failure, not just the first
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"  ok {name}")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _check_checkpoint_io(Path(tmp))
        except Exception as e:
            failures += 1
            print(f"FAIL checkpoint round-trip: {e}")
        else:
            print("  ok checkpoint round-trip")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crossfuse", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic clip dataset")
    g.add_argument("--config", help="config JSON (defaults apply when omitted)")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="train a detector on a generated dataset")
    t.add_argument("--config", help="config JSON")
    t.add_argument("--data", required=True, help="dataset directory from `gen`")
    t.add_argument("--out", required=True, help="checkpoint output directory")
    t.add_argument("--json", help="write the training summary to this path")
    t.add_argument("--verbose", action="store_true", help="print loss during training")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint (LAMR / recall)")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--config", help="optional config; must match the checkpoint's geometry")
    e.add_argument("--reset-every", type=int, default=None,
                   help="reset temporal state every N frames (1 = no temporal context)")
    e.add_argument("--detections", help="also write decoded boxes as JSONL")
    e.add_argument("--json", help="write the report to this path")
    e.set_defaults(fn=cmd_eval)

    pr = sub.add_parser("profile", help="parameter / FLOP / latency table per stage")
    pr.add_argument("--config", help="config JSON (desk-scale geometry)")
    pr.add_argument("--full-scale", action="store_true",
                    help="profile the built-in full-scale geometry instead")
    pr.add_argument("--latency", action="store_true", help="also measure wall-clock latency")
    pr.add_argument("--reps", type=int, default=20)
    pr.add_argument("--warmup", type=int, default=3)
    pr.add_argument("--json", help="write the JSON report to this path")
    pr.set_defaults(fn=cmd_profile)

    b = sub.add_parser("bench", help="latency only, JSON output")
    b.add_argument("--config")
    b.add_argument("--full-scale", action="store_true")
    b.add_argument("--reps", type=int, default=20)
    b.add_argument("--warmup", type=int, default=5)
    b.add_argument("--json")
    b.set_defaults(fn=cmd_bench)

    s = sub.add_parser("selfcheck", help="run the fast invariant battery")
    s.set_defaults(fn=cmd_selfcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
