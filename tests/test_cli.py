"""The public surface: each CLI subcommand through main() with temp dirs,
and the package export lists."""

import argparse
import importlib
import json

import pytest

from crossfuse.cli import build_parser, main


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "fuser": "mambast",
        "data": {
            "height": 32, "width": 32, "frames": 2,
            "blob_count_min": 1, "blob_count_max": 1,
            "blob_size_min": 8, "blob_size_max": 12,
            "blob_speed_max": 0.5, "stride": 2, "clips": 2,
        },
        "train": {"steps": 2, "lr": 0.05},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_train_eval_pipeline(tmp_path, cfg_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    assert main(["gen", "--config", cfg_path, "--out", data]) == 0
    assert "wrote 2 clips" in capsys.readouterr().out

    summary_path = tmp_path / "train.json"
    assert main(["train", "--config", cfg_path, "--data", data,
                 "--out", run, "--json", str(summary_path)]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["steps"] == 2

    report_path = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", run, "--data", data,
                 "--reset-every", "1", "--json", str(report_path),
                 "--detections", str(tmp_path / "dets.jsonl")]) == 0
    report = json.loads(report_path.read_text())
    assert report["reset_every"] == 1
    assert "all" in report["settings"]
    assert (tmp_path / "dets.jsonl").exists()


def test_eval_rejects_mismatched_config(tmp_path, cfg_path):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    main(["gen", "--config", cfg_path, "--out", data])
    main(["train", "--config", cfg_path, "--data", data, "--out", run])
    other = json.loads((tmp_path / "cfg.json").read_text())
    other["model"] = {"d_factor": 8}
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    with pytest.raises(ValueError, match="does not match checkpoint"):
        main(["eval", "--checkpoint", run, "--data", data, "--config", str(other_path)])


def test_profile_table_and_json(tmp_path, cfg_path, capsys):
    out = tmp_path / "profile.json"
    assert main(["profile", "--config", cfg_path, "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "conventions:" in printed
    report = json.loads(out.read_text())
    assert {s["name"] for s in report["stages"]} == {"f1", "f2", "f3"}
    assert report["total_params"] > 0


def test_profile_full_scale_reports_reference(capsys):
    assert main(["profile", "--full-scale"]) == 0
    printed = capsys.readouterr().out
    assert "informational only" in printed
    assert "22.52M params" in printed


def test_parser_offers_exactly_the_four_subcommands(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"gen", "train", "eval", "profile"}
    for gone in ("selfcheck", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--latency", "--reps", "--warmup"])
def test_profile_has_no_timing_options(option, capsys):
    # Time is measured by the benchmark, not by the profiler.
    with pytest.raises(SystemExit) as exc:
        main(["profile", option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("package", ["crossfuse", "crossfuse.harness"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
