"""The float64 reference agrees with the program's fusion stack.

    python3 -m pytest bench/test_reference.py

Small random geometries, several frames so carries are threaded, and the
zero-initialized output projections (``out_proj.w``, ``agg.w``) filled with
random values so that a stage is not the identity.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossfuse import FeaturePair, StageConfig, Tensor, build_model, fuse_clip  # noqa: E402

import reference  # noqa: E402
from workloads import REFERENCE_TOLERANCE  # noqa: E402

# (height, width, channels, patch sizes per head, layers) of the first stage;
# a second one-head stage checks that stages do not share state.
GEOMETRIES = [
    (4, 4, 8, (1, 2), 1),
    (8, 4, 12, (1, 2, 4), 2),
    (6, 6, 4, (1,), 1),
    (3, 5, 6, (1, 1), 1),
    (2, 8, 8, (2, 1), 3),
]


def _model_and_clip(geometry, seed, frames=4):
    h, w, c, patches, layers = geometry
    configs = [
        StageConfig(name="f1", height=h, width=w, channels=c, heads=len(patches),
                    patch_sizes=patches, layers=layers),
        StageConfig(name="f2", height=h, width=w, channels=c, heads=1, patch_sizes=(1,), layers=1),
    ]
    model = build_model(configs, seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.replace_parameters({
        name: Tensor(rng.normal(0.0, 0.3, size=t.shape).astype(np.float32), name=name, trainable=True)
        for name, t in model.named_parameters().items() if name.endswith(("out_proj.w", "agg.w"))
    })

    def maps():
        return Tensor(rng.normal(size=(h, w, c)).astype(np.float32))

    clip = [{s: FeaturePair(stage=s, rgb=maps(), thermal=maps()) for s in ("f1", "f2")} for _ in range(frames)]
    return model, clip


def _arrays(pyramids):
    return [{s: (p.rgb.data, p.thermal.data) for s, p in pyr.items()} for pyr in pyramids]


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_reference_matches_program(geometry, seed):
    model, clip = _model_and_clip(geometry, seed)
    program = _arrays(fuse_clip(model, clip))
    expected = reference.fuse_stream(model, _arrays(clip))
    assert reference.max_scaled_error(program, expected) <= REFERENCE_TOLERANCE
    moved = max(np.abs(p["f1"][0] - x["f1"][0]).max() for p, x in zip(program, _arrays(clip)))
    assert moved > 0.1, "the stage is still the identity"


def test_reference_sees_a_changed_carry():
    model, clip = _model_and_clip(GEOMETRIES[0], seed=0)
    expected = reference.fuse_stream(model, _arrays(clip))
    # Fusing frame 1 without frame 0's carry must not pass as the same stream.
    restarted = _arrays(fuse_clip(model, clip[:1]) + fuse_clip(model, clip[1:]))
    assert reference.max_scaled_error(restarted, expected) > 10 * REFERENCE_TOLERANCE
