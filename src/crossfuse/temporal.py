"""Frame-recurrent fusion: carry tokens threaded through the stage fusers.

Each stage head owns a single carry token (1, head_dim). At stream start
every carry is zero; after fusing frame t, the new carry is the final
block layer's output at the last token position. State size is fixed, so
streaming over an arbitrarily long clip uses constant memory, and the
update is Markov: frame t+1 sees earlier frames only through the carries.

Fusing a clip is literally init + repeated single-frame fusion, so batch
and streaming execution agree bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, is_dataclass
from typing import Iterator, Sequence

import numpy as np

from .fusion import StageConfig, StageParams, StageResult, init_stage, stage_forward
from .tensor import ShapeError, Tensor
from .tensorio import load_checkpoint, save_checkpoint

__all__ = [
    "FeaturePair",
    "FusionModel",
    "NonFiniteFrameError",
    "StreamState",
    "build_model",
    "config_hash",
    "init_stream",
    "fuse_next",
    "fuse_clip",
    "save_stream_state",
    "load_stream_state",
    "swap_parameters",
    "walk_parameters",
]


class NonFiniteFrameError(ValueError):
    """A streamed frame holds a NaN or an infinity; the stream state is untouched."""


@dataclass
class FeaturePair:
    """One stage's RGB and thermal feature maps."""

    stage: str
    rgb: Tensor
    thermal: Tensor


def config_hash(configs: Sequence[StageConfig]) -> str:
    payload = json.dumps([c.to_dict() for c in configs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class FusionModel:
    """An ordered set of fusion stages plus the hash that pins their config."""

    stages: list[StageParams]
    hash: str

    @property
    def stage_names(self) -> list[str]:
        return [s.config.name for s in self.stages]

    @property
    def configs(self) -> list[StageConfig]:
        return [s.config for s in self.stages]

    def named_parameters(self) -> dict[str, Tensor]:
        return {t.name: t for _, _, t in walk_parameters(self.stages)}

    def replace_parameters(self, updated: dict[str, Tensor]) -> None:
        """Swap parameter tensors by name (used by the optimizer and by
        checkpoint loading); see ``swap_parameters``."""
        swap_parameters(self.stages, updated)


def walk_parameters(root) -> Iterator[tuple[object, object, Tensor]]:
    """Yield ``(holder, key, tensor)`` for every trainable Tensor under ``root``.

    The walk descends dataclass fields, list items and dict values in order.
    ``holder`` is the dataclass, list or dict holding the tensor at ``key``.
    A parameter's name is the one its ``init_*`` function gave the Tensor;
    nothing else spells it.
    """
    if is_dataclass(root):
        items = vars(root).items()
    elif isinstance(root, list):
        items = enumerate(root)
    elif isinstance(root, dict):
        items = root.items()
    else:
        return
    for key, value in items:
        if isinstance(value, Tensor):
            if value.trainable:
                yield root, key, value
        else:
            yield from walk_parameters(value)


def swap_parameters(root, updated: dict[str, Tensor]) -> None:
    """Replace the named parameters under ``root`` with new tensors.

    Every update is checked before any is applied: a name the walk does not
    find raises ``KeyError`` and a shape change raises ``ShapeError``, and
    either leaves every parameter as it was. A trainable update of the
    parameter's name goes in as it is, as ``backward`` matches by identity;
    any other is rewrapped as one. The old Tensors are not changed, so a
    name -> Tensor dict taken before the swap still holds the old values.
    """
    slots = {t.name: (holder, key, t) for holder, key, t in walk_parameters(root)}
    unknown = updated.keys() - slots.keys()
    if unknown:
        raise KeyError(f"unknown parameters: {sorted(unknown)[:5]}")
    for name, new in updated.items():
        old = slots[name][2]
        if new.shape != old.shape:
            raise ShapeError(f"{name}: shape {new.shape} != expected {old.shape}")
    for name, new in updated.items():
        holder, key, _ = slots[name]
        t = new if new.trainable and new.name == name else Tensor(new.data, name=name, trainable=True)
        if isinstance(holder, (list, dict)):
            holder[key] = t
        else:
            setattr(holder, key, t)


def build_model(configs: Sequence[StageConfig], seed: int = 0) -> FusionModel:
    if not configs:
        raise ValueError("build_model: need at least one stage config")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate stage names: {names}")
    rng = np.random.default_rng(seed)
    stages = [init_stage(c, rng) for c in configs]
    return FusionModel(stages=stages, hash=config_hash(configs))


@dataclass
class StreamState:
    """Per-stage, per-head carry tokens plus a frame counter.

    The config hash pins the state to the model that produced it; mixing
    states across differently-shaped models is an error, not a crash later.
    """

    carries: dict[str, list[Tensor]]
    frame_index: int
    model_hash: str


def init_stream(model: FusionModel) -> StreamState:
    carries = {
        s.config.name: [
            Tensor(np.zeros((1, s.config.head_dim), dtype=np.float32))
            for _ in range(s.config.heads)
        ]
        for s in model.stages
    }
    return StreamState(carries=carries, frame_index=0, model_hash=model.hash)


def _check_pyramid(model: FusionModel, pyramid: dict[str, FeaturePair]) -> None:
    missing = [n for n in model.stage_names if n not in pyramid]
    if missing:
        raise ShapeError(f"pyramid is missing stages {missing}")
    # One non-finite value would poison every carry and so every later frame.
    for name in model.stage_names:
        pair = pyramid[name]
        for modality, t in (("rgb", pair.rgb), ("thermal", pair.thermal)):
            if not np.isfinite(t.data).all():
                raise NonFiniteFrameError(f"stage {name}: {modality} feature map is not finite")


def fuse_next(
    model: FusionModel,
    state: StreamState,
    pyramid: dict[str, FeaturePair],
) -> tuple[dict[str, FeaturePair], StreamState]:
    """Fuse one frame's feature pyramid and advance the carries.

    A frame whose feature maps hold a NaN or an infinity raises
    ``NonFiniteFrameError`` before anything runs, so ``state`` stays usable
    for the next frame.
    """
    if state.model_hash != model.hash:
        raise ValueError(
            "stream state belongs to a different model config "
            f"(state {state.model_hash[:12]}, model {model.hash[:12]})"
        )
    missing = [n for n in model.stage_names if n not in state.carries]
    if missing:
        raise ValueError(f"stream state has no carries for stages {missing}")
    _check_pyramid(model, pyramid)
    fused: dict[str, FeaturePair] = {}
    new_carries: dict[str, list[Tensor]] = {}
    for stage in model.stages:
        name = stage.config.name
        pair = pyramid[name]
        result: StageResult = stage_forward(stage, pair.rgb, pair.thermal, carries=state.carries[name])
        fused[name] = FeaturePair(stage=name, rgb=result.rgb, thermal=result.thermal)
        new_carries[name] = result.carries
    new_state = StreamState(carries=new_carries, frame_index=state.frame_index + 1, model_hash=state.model_hash)
    return fused, new_state


def fuse_clip(model: FusionModel, frames: Sequence[dict[str, FeaturePair]]) -> list[dict[str, FeaturePair]]:
    """Fuse a whole clip; defined as init_stream + one fuse_next per frame."""
    if not frames:
        raise ValueError("fuse_clip: empty clip")
    state = init_stream(model)
    fused = []
    for pyramid in frames:
        out, state = fuse_next(model, state, pyramid)
        fused.append(out)
    return fused


def save_stream_state(dirpath, state: StreamState) -> None:
    tensors = {}
    names: dict[str, list[str]] = {}
    for stage, carries in state.carries.items():
        names[stage] = []
        for i, c in enumerate(carries):
            key = f"{stage}.carry{i}"
            tensors[key] = c
            names[stage].append(key)
    meta = {
        "kind": "stream_state",
        "frame_index": state.frame_index,
        "model_hash": state.model_hash,
        "carry_names": names,
    }
    save_checkpoint(dirpath, tensors, metadata=meta)


def load_stream_state(dirpath) -> StreamState:
    tensors, meta = load_checkpoint(dirpath)
    if meta.get("kind") != "stream_state":
        raise ValueError(f"{dirpath} does not hold a stream state")
    names = meta.get("carry_names")
    if not (isinstance(names, dict) and all(isinstance(keys, list) and all(isinstance(k, str) for k in keys)
                                            for keys in names.values())):
        raise ValueError(f"{dirpath}: stream state key 'carry_names' must map each stage to a list of "
                         f"tensor names, got {names!r:.100}")
    index = meta.get("frame_index")
    if type(index) is not int or index < 0:
        raise ValueError(f"{dirpath}: stream state key 'frame_index' must be a non-negative int, "
                         f"got {index!r:.100}")
    if not isinstance(meta.get("model_hash"), str):
        raise ValueError(f"{dirpath}: stream state key 'model_hash' must be a str, "
                         f"got {meta.get('model_hash')!r:.100}")
    missing = sorted(key for keys in names.values() for key in keys if key not in tensors)
    if missing:
        raise ValueError(f"{dirpath}: stream state lists carry tensors the checkpoint does not hold: "
                         f"{missing[:5]}")
    # A non-finite carry would turn every later frame of the stream non-finite.
    bad = sorted(key for keys in names.values() for key in keys if not np.isfinite(tensors[key].data).all())
    if bad:
        raise ValueError(f"{dirpath}: stream state carry tensors {bad[:5]} hold a NaN or an infinity")
    carries = {stage: [tensors[key] for key in keys] for stage, keys in names.items()}
    return StreamState(carries=carries, frame_index=index, model_hash=meta["model_hash"])
