"""The benchmark's configs make the clips it asks for.

``bench/workloads.py`` turns a config's data section into
``SyntheticClipSpec`` keywords with ``_spec_fields``. A data key added to or
renamed in ``src/`` fails here, in the test suite, rather than in a
benchmark run.
"""

import sys
from pathlib import Path

import pytest

from crossfuse.config import SyntheticClipSpec, normalize_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("raw", [{"schema_version": 1}, workloads.TrainDesk.RAW, workloads.FullscaleFrame.RAW],
                         ids=["default", "train-desk", "fullscale-frame"])
def test_each_benchmark_config_makes_a_clip_spec(raw):
    cfg = normalize_config(dict(raw, seed=5))
    fields = workloads._spec_fields(cfg)
    spec = SyntheticClipSpec(seed=cfg["seed"], **fields)
    assert spec.to_dict() == {"seed": 5, **fields}
    assert fields.keys() == cfg["data"].keys() - {"clips"}
