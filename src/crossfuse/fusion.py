"""Multi-head hierarchical patch fusion for cross-spectral feature pairs.

One fusion stage takes an RGB/thermal feature-map pair (H, W, C), adds
learned positional and modality embeddings, and runs K parallel heads. Head
k space-to-depth patches both maps at its own patch size S_k and interleave-
flattens the pair into a token sequence, both in one gather (see
``interleave``), projects tokens down to C/K, and runs a stack of gated SSM
blocks over them. The head's token outputs are projected back up, scattered
back to the (H, W, C) maps, and residually added to its embedded inputs.
Head outputs are stacked channelwise and a zero-initialized pointwise
aggregation projects K*C back to C, which is residually added to the
original (un-embedded) inputs. A fresh stage is therefore the identity map.

Optionally each head gets a carry token prepended before its block stack (the
temporal module threads them between frames); its output position is dropped
before the up-projection, and the stack's last-position output is handed
back so the caller can extract the next carry.

Every row move of a stage (patching and flattening, the carry's prepend, the
next carry and the head's features cut out of its tokens, and the head
stack) is one ``take_rows`` gather through a ``RowIndex`` that ``interleave``
builds and caches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .interleave import (TAKE_OP, RowIndex, build_layout, channel_stack, ocf_flatten, ocf_unflatten, patch,
                         row_window, unpatch)
from .ssm import MambaBlockParams, init_block, stack_forward
from .tensor import ShapeError, Tensor

__all__ = [
    "patch",
    "unpatch",
    "EmbeddingSet",
    "HeadParams",
    "StageConfig",
    "StageParams",
    "StageResult",
    "init_stage",
    "add_embeddings",
    "stage_forward",
]


@dataclass
class EmbeddingSet:
    """Learned embeddings added before patching: a positional map shared by
    both spectra plus one per-modality channel vector."""

    pos: Tensor      # (H, W, C)
    rgb: Tensor      # (C,)
    thermal: Tensor  # (C,)


@dataclass
class HeadParams:
    # Field order is the order ``walk_parameters`` lists the parameters in.
    patch_size: int
    w_in: Tensor                      # (C * S^2, head_dim), no bias
    out_w: Tensor                     # (head_dim, C * S^2)
    out_b: Tensor                     # (C * S^2,)
    blocks: list[MambaBlockParams]

    @property
    def head_dim(self) -> int:
        return self.w_in.shape[1]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class StageConfig:
    """Static description of one fusion stage.

    ``patch_sizes`` has one entry per head; every entry must be a power of
    two dividing both spatial dims, and channels must split evenly over
    heads (head width is channels // heads). Each block size, ``dt_rank``
    when set among them, is at least 1.
    """

    name: str
    height: int
    width: int
    channels: int
    heads: int
    patch_sizes: tuple[int, ...]
    layers: int
    state_size: int = 16
    conv_kernel: int = 4
    expand: int = 2
    dt_rank: Optional[int] = None

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ValueError(f"{self.name}: degenerate stage dims {self.height}x{self.width}x{self.channels}")
        if self.heads < 1:
            raise ValueError(f"{self.name}: need at least one head, got heads={self.heads}")
        if len(self.patch_sizes) != self.heads:
            raise ValueError(
                f"{self.name}: {self.heads} heads but {len(self.patch_sizes)} patch sizes"
            )
        if self.channels % self.heads:
            raise ValueError(f"{self.name}: channels {self.channels} not divisible by heads {self.heads}")
        if self.layers < 1:
            raise ValueError(f"{self.name}: need at least one layer, got layers={self.layers}")
        for key in ("state_size", "conv_kernel", "expand", "dt_rank"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{self.name}: {key} must be >= 1, got {value}")
        for s in self.patch_sizes:
            if not _is_power_of_two(s):
                raise ValueError(f"{self.name}: patch_sizes entry {s} is not a power of two")
            if self.height % s or self.width % s:
                raise ValueError(f"{self.name}: patch size {s} does not divide {self.height}x{self.width}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StageParams:
    config: StageConfig
    embeddings: EmbeddingSet
    heads: list[HeadParams]
    agg_w: Tensor  # (heads * C, C), zero at init
    agg_b: Tensor  # (C,), zero at init


@dataclass
class StageResult:
    rgb: Tensor
    thermal: Tensor
    # The next carry token per head: the last row of its final-layer tokens.
    carries: list[Tensor] = field(default_factory=list)


def init_stage(config: StageConfig, rng: np.random.Generator) -> StageParams:
    """Seeded stage parameters named after ``config.name``. The aggregation is
    zeroed, making the whole stage an exact identity until training moves it."""
    c = config.channels
    d = config.head_dim

    def p(name, arr):
        return Tensor(arr, name=f"{config.name}.{name}", trainable=True)

    emb = EmbeddingSet(
        pos=p("emb.pos", rng.normal(0.0, 0.02, size=(config.height, config.width, c)).astype(np.float32)),
        rgb=p("emb.rgb", rng.normal(0.0, 0.02, size=c).astype(np.float32)),
        thermal=p("emb.thermal", rng.normal(0.0, 0.02, size=c).astype(np.float32)),
    )
    heads = []
    for i, s in enumerate(config.patch_sizes):
        packed = c * s * s
        w_in = rng.normal(0.0, packed ** -0.5, size=(packed, d)).astype(np.float32)
        out_w = rng.normal(0.0, d ** -0.5, size=(d, packed)).astype(np.float32)
        blocks = [
            init_block(
                rng,
                d,
                state_size=config.state_size,
                conv_kernel=config.conv_kernel,
                expand=config.expand,
                dt_rank=config.dt_rank,
                prefix=f"{config.name}.head{i}.layer{j}",
            )
            for j in range(config.layers)
        ]
        heads.append(
            HeadParams(
                patch_size=s,
                w_in=p(f"head{i}.w_in", w_in),
                out_w=p(f"head{i}.out_linear.w", out_w),
                out_b=p(f"head{i}.out_linear.b", np.zeros(packed, dtype=np.float32)),
                blocks=blocks,
            )
        )
    return StageParams(
        config=config,
        embeddings=emb,
        heads=heads,
        agg_w=p("agg.w", np.zeros((config.heads * c, c), dtype=np.float32)),
        agg_b=p("agg.b", np.zeros(c, dtype=np.float32)),
    )


def add_embeddings(rgb: Tensor, thermal: Tensor, emb: EmbeddingSet) -> tuple[Tensor, Tensor]:
    if rgb.shape != emb.pos.shape or thermal.shape != emb.pos.shape:
        raise ShapeError(
            f"add_embeddings: maps {rgb.shape}/{thermal.shape} do not match embedding {emb.pos.shape}"
        )
    e_rgb = T.add(T.add(rgb, emb.pos), emb.rgb)
    e_thm = T.add(T.add(thermal, emb.pos), emb.thermal)
    return e_rgb, e_thm


def _gather(inputs: Sequence[Tensor], rows: RowIndex, shape: Optional[tuple] = None) -> Tensor:
    """One ``take_rows`` op over rows as wide as the inputs' last axis;
    ``shape`` defaults to the picked rows."""
    width = inputs[0].shape[-1]
    return T.op_forward(TAKE_OP, tuple(inputs), rows=rows, width=width,
                        shape=shape or (rows.index.size, width))


def stage_forward(
    params: StageParams,
    rgb: Tensor,
    thermal: Tensor,
    carries: Optional[Sequence[Tensor]] = None,
) -> StageResult:
    """Run one fusion stage on a feature pair.

    ``carries`` is either None or one (1, head_dim) token per head, which is
    prepended to that head's tokens. The result's ``carries`` are each head's
    last output token, the tokens to pass for the next frame.
    """
    cfg = params.config
    expect = (cfg.height, cfg.width, cfg.channels)
    if rgb.shape != expect or thermal.shape != expect:
        raise ShapeError(
            f"stage_forward[{cfg.name}]: expected maps of shape {expect}, "
            f"got {rgb.shape} and {thermal.shape}"
        )
    if carries is not None and len(carries) != len(params.heads):
        raise ShapeError(
            f"stage_forward[{cfg.name}]: {len(carries)} carries for {len(params.heads)} heads"
        )
    e_rgb, e_thm = add_embeddings(rgb, thermal, params.embeddings)

    up_rgb, up_thm, next_carries = [], [], []
    for k, head in enumerate(params.heads):
        s = head.patch_size
        layout = build_layout(cfg.height // s, cfg.width // s, s)
        z = ocf_flatten(e_rgb, e_thm, layout)
        x = T.linear(z, head.w_in)
        if carries is not None:
            carry = carries[k]
            if carry.shape != (1, head.head_dim):
                raise ShapeError(
                    f"stage_forward[{cfg.name}]: head {k} carry shape {carry.shape} "
                    f"!= (1, {head.head_dim})"
                )
            x = _gather((carry, x), row_window(0, layout.tokens + 1, layout.tokens + 1))
        tokens = stack_forward(head.blocks, x)
        n = tokens.shape[0]
        next_carries.append(_gather((tokens,), row_window(n - 1, 1, n)))
        feats = _gather((tokens,), row_window(1, layout.tokens, n)) if carries is not None else tokens
        y = T.linear(feats, head.out_w, head.out_b)
        r_delta, t_delta = ocf_unflatten(y, layout)
        up_rgb.append(T.add(e_rgb, r_delta))
        up_thm.append(T.add(e_thm, t_delta))

    if len(up_rgb) == 1:
        cat_rgb, cat_thm = up_rgb[0], up_thm[0]
    else:
        stack = channel_stack(cfg.height * cfg.width, cfg.heads)
        shape = (cfg.height, cfg.width, cfg.heads * cfg.channels)
        cat_rgb = _gather(up_rgb, stack, shape)
        cat_thm = _gather(up_thm, stack, shape)
    out_rgb = T.add(rgb, T.linear(cat_rgb, params.agg_w, params.agg_b))
    out_thm = T.add(thermal, T.linear(cat_thm, params.agg_w, params.agg_b))
    return StageResult(rgb=out_rgb, thermal=out_thm, carries=next_carries)
