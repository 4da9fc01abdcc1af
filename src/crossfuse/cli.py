"""Command-line entry points.

    crossfuse gen       --config cfg.json --out data/
    crossfuse train     --config cfg.json --data data/ --out runs/exp0
    crossfuse eval      --checkpoint runs/exp0 --data data/ [--reset-every 1]
    crossfuse profile   [--config cfg.json | --full-scale]

Every subcommand reports JSON (optionally to a file via --json) plus a
human-readable summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .config import default_config, load_config, stage_configs_from
from .profiler import REFERENCE_FULL_SCALE, full_scale_configs, profile, render_table


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


def cmd_profile(args) -> int:
    if args.full_scale:
        configs, reference = full_scale_configs(), dict(REFERENCE_FULL_SCALE)
    else:
        configs, reference = stage_configs_from(_load_cfg(args.config)), None
    report = profile(configs, reference=reference)
    if args.json:
        _emit(report.to_dict(), args.json)
    print(render_table(report))
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

    pr = sub.add_parser("profile", help="parameter / FLOP table per stage")
    pr.add_argument("--config", help="config JSON (desk-scale geometry)")
    pr.add_argument("--full-scale", action="store_true",
                    help="profile the built-in full-scale geometry instead")
    pr.add_argument("--json", help="write the JSON report to this path")
    pr.set_defaults(fn=cmd_profile)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
