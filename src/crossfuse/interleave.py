"""Order-aware interleaved flattening of RGB/thermal feature-map pairs.

A pair of (rows*S, cols*S, channels) maps becomes a single (2*rows*cols,
channels*S^2) token sequence, for a patch size S (1 by default). Each token
is one S x S block of a map, space-to-depth packed: block-row-major with the
channels fastest, channel index (si*S + sj)*channels + c. Blocks are visited
top to bottom; within a row of blocks the even columns come first left to
right, then the odd columns in reverse (columns cols-1, cols-3, ... when
cols is even), so horizontally adjacent blocks sit near each other in the
1-d order. Each visited block emits its RGB token immediately followed by
its thermal token, which is what lets a causal sequence model mix the two
spectra at matching positions.

The layout is a pure permutation of pixels, cached per (rows, cols, S),
with an exact inverse. Flattening is one gather of pixel rows, un-flattening
one gather per modality, and ``patch``/``unpatch`` (space-to-depth on one
map and back) one gather each, all ``take_rows`` ops. This module builds
every row index the program gathers through, the fusion stage's row windows
and channel stack included; each is a ``RowIndex``, checked once when it is
built and then cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, register_op

__all__ = ["OcfLayout", "RowIndex", "build_layout", "channel_stack", "ocf_flatten", "ocf_unflatten", "patch",
           "row_window", "unpatch"]

TAKE_OP = "take_rows"

RGB = 0
THERMAL = 1


@dataclass(frozen=True, eq=False)
class RowIndex:
    """A gather of rows out of ``source`` rows that picks each row at most once.

    Checked once, when built: ``index`` is 1-d, in range and free of repeats.
    It is then read-only, so ``take_rows`` trusts it and its adjoint assigns.
    ``window`` is the same rows as a slice when they are one ascending run,
    such as a ``row_window``, and ``None`` otherwise.
    """

    index: np.ndarray
    source: int
    window: Optional[slice] = field(init=False, repr=False)

    def __post_init__(self):
        idx = np.array(self.index)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ShapeError(f"row index must be 1-d integers, got {idx.dtype} of shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.source):
            raise ShapeError(f"row index out of range for {self.source} rows")
        picked = np.zeros(self.source, dtype=bool)
        picked[idx] = True
        if np.count_nonzero(picked) != idx.size:
            raise ShapeError("row index repeats a row")
        idx.flags.writeable = False
        object.__setattr__(self, "index", idx)
        run = idx.size > 0 and bool(np.all(np.diff(idx) == 1))
        object.__setattr__(self, "window", slice(int(idx[0]), int(idx[-1]) + 1) if run else None)


def _take_rows_fwd(*arrays, rows, width, shape):
    """The rows of the inputs, stacked in order, picked by the ``RowIndex``
    ``rows``. Each input is viewed as rows of ``width`` values and the picked
    rows are reshaped to ``shape``."""
    try:
        parts = [a.reshape(-1, width) for a in arrays]
    except ValueError:
        raise ShapeError(f"take_rows: inputs {[a.shape for a in arrays]} do not split into rows of {width}") from None
    stacked = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if stacked.shape[0] != rows.source:
        raise ShapeError(f"take_rows: index is over {rows.source} rows, inputs have {stacked.shape[0]}")
    # A window is taken as a slice, which is cheaper than fancy indexing, and
    # copied, so the output keeps no input alive.
    picked = stacked[rows.index] if rows.window is None else stacked[rows.window].copy()
    return picked.reshape(shape), {"rows": rows, "shapes": [a.shape for a in arrays]}


def _take_rows_bwd(ctx, g):
    rows = ctx["rows"]
    g_rows = g.reshape(rows.index.size, -1)
    stacked = np.zeros((rows.source, g_rows.shape[1]), dtype=g.dtype)
    stacked[rows.index if rows.window is None else rows.window] = g_rows
    grads, start = [], 0
    for shape in ctx["shapes"]:
        n = math.prod(shape) // g_rows.shape[1]
        grads.append(stacked[start:start + n].reshape(shape))
        start += n
    return tuple(grads)


register_op(TAKE_OP, _take_rows_fwd, _take_rows_bwd)


@dataclass(frozen=True)
class OcfLayout:
    """Token permutation for one (rows, cols) grid of S x S blocks.

    ``order[t]`` gives (modality, row, col) of token t on the block grid,
    with modality 0 for RGB and 1 for thermal. ``gather`` picks, token by
    token and then block-row-major within the token, each pixel of the
    stacked [rgb; thermal] row-major (rows*S, cols*S) maps, and ``scatter``
    is its inverse. With S = 1 both are token permutations. ``unflatten``
    splits ``scatter`` into its RGB and its thermal half.
    """

    rows: int
    cols: int
    order: tuple[tuple[int, int, int], ...]
    gather: RowIndex
    scatter: RowIndex
    unflatten: tuple[RowIndex, RowIndex]
    patch: int = 1

    @property
    def tokens(self) -> int:
        return 2 * self.rows * self.cols


def _column_order(cols: int) -> list[int]:
    return list(range(0, cols, 2)) + list(range(1, cols, 2))[::-1]


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


@lru_cache(maxsize=None)
def _block_pixels(rows: int, cols: int, patch: int) -> RowIndex:
    """Flat pixel indices of every S x S block of a (rows*S, cols*S) map,
    blocks row-major, pixels block-row-major: rows*cols runs of patch^2."""
    r = np.arange(rows)[:, None, None, None] * patch + np.arange(patch)[None, None, :, None]
    c = np.arange(cols)[None, :, None, None] * patch + np.arange(patch)[None, None, None, :]
    return RowIndex((r * (cols * patch) + c).reshape(-1), rows * cols * patch * patch)


@lru_cache(maxsize=None)
def _pixel_blocks(rows: int, cols: int, patch: int) -> RowIndex:
    """Inverse of ``_block_pixels``: the packed row of every map pixel."""
    packed = _block_pixels(rows, cols, patch)
    return RowIndex(_inverse(packed.index), packed.source)


@lru_cache(maxsize=None)
def row_window(start: int, length: int, source: int) -> RowIndex:
    """Rows ``start`` to ``start + length - 1`` of ``source`` rows, in order."""
    return RowIndex(np.arange(start, start + length), source)


@lru_cache(maxsize=None)
def channel_stack(pixels: int, maps: int) -> RowIndex:
    """Stack ``maps`` maps of ``pixels`` pixels each along their channels.

    Over the maps' rows stacked in order, output row p*maps + k is pixel p
    of map k, so viewed as rows of one map's channels the gather is a
    concatenation on the channel axis.
    """
    index = np.arange(maps)[None, :] * pixels + np.arange(pixels)[:, None]
    return RowIndex(index.reshape(-1), maps * pixels)


@lru_cache(maxsize=None)
def build_layout(rows: int, cols: int, patch: int = 1) -> OcfLayout:
    if rows < 1 or cols < 1:
        raise ValueError(f"layout needs rows >= 1 and cols >= 1, got ({rows}, {cols})")
    if patch < 1:
        raise ValueError(f"patch size must be >= 1, got {patch}")
    columns = _column_order(cols)
    order = tuple((m, r, c) for r in range(rows) for c in columns for m in (RGB, THERMAL))
    pixels = rows * cols * patch * patch
    blocks = _block_pixels(rows, cols, patch).index.reshape(rows, cols, -1)[:, columns]
    gather = np.stack([blocks, blocks + pixels], axis=2).reshape(-1)
    scatter = _inverse(gather)
    halves = tuple(RowIndex(scatter[m * pixels:(m + 1) * pixels], 2 * pixels) for m in (RGB, THERMAL))
    return OcfLayout(rows=rows, cols=cols, order=order, gather=RowIndex(gather, 2 * pixels),
                     scatter=RowIndex(scatter, 2 * pixels), unflatten=halves, patch=patch)


def ocf_flatten(rgb: Tensor, thermal: Tensor, layout: OcfLayout) -> Tensor:
    """Interleave an RGB/thermal map pair into one token sequence.

    Both inputs must be (rows*S, cols*S, channels) with identical shapes; the
    result is (2*rows*cols, channels*S^2).
    """
    if rgb.ndim != 3 or thermal.ndim != 3:
        raise ShapeError(f"ocf_flatten: maps must be rank-3, got {rgb.shape} and {thermal.shape}")
    if rgb.shape != thermal.shape:
        raise ShapeError(f"ocf_flatten: map shapes differ, {rgb.shape} vs {thermal.shape}")
    height, width, channels = rgb.shape
    if (layout.rows * layout.patch, layout.cols * layout.patch) != (height, width):
        raise ShapeError(f"ocf_flatten: layout is {layout.rows}x{layout.cols} blocks of "
                         f"{layout.patch}x{layout.patch}, maps are {height}x{width}")
    shape = (layout.tokens, channels * layout.patch * layout.patch)
    return T.op_forward(TAKE_OP, (rgb, thermal), rows=layout.gather, width=channels,
                        shape=shape)


def ocf_unflatten(tokens: Tensor, layout: OcfLayout) -> tuple[Tensor, Tensor]:
    """Exact inverse of ``ocf_flatten`` for the same layout."""
    if tokens.ndim != 2:
        raise ShapeError(f"ocf_unflatten: tokens must be rank-2, got shape {tokens.shape}")
    if tokens.shape[0] != layout.tokens:
        raise ShapeError(
            f"ocf_unflatten: got {tokens.shape[0]} tokens, layout {layout.rows}x{layout.cols} "
            f"requires {layout.tokens}"
        )
    s = layout.patch
    if tokens.shape[1] % (s * s):
        raise ShapeError(f"ocf_unflatten: token width {tokens.shape[1]} is not divisible by {s}^2")
    channels = tokens.shape[1] // (s * s)
    shape = (layout.rows * s, layout.cols * s, channels)
    return tuple(T.op_forward(TAKE_OP, (tokens,), rows=half, width=channels, shape=shape)
                 for half in layout.unflatten)


def patch(x: Tensor, size: int) -> Tensor:
    """Space-to-depth, (H, W, C) -> (H/size, W/size, C*size^2), as one gather.
    Blocks are packed block-row-major with the channels fastest, channel
    (si*size + sj)*C + c; size=1 is the identity."""
    if x.ndim != 3:
        raise ShapeError(f"patch: input must be (H, W, C), got {x.shape}")
    h, w, c = x.shape
    if size < 1:
        raise ValueError(f"patch size must be >= 1, got {size}")
    if h % size or w % size:
        raise ShapeError(f"patch: size {size} does not divide map {h}x{w}")
    if size == 1:
        return x
    return T.op_forward(TAKE_OP, (x,), rows=_block_pixels(h // size, w // size, size), width=c,
                        shape=(h // size, w // size, size * size * c))


def unpatch(x: Tensor, size: int) -> Tensor:
    """Inverse of ``patch``: (h, w, C*size^2) -> (h*size, w*size, C), one gather."""
    if x.ndim != 3:
        raise ShapeError(f"unpatch: input must be rank-3, got {x.shape}")
    hb, wb, packed = x.shape
    if size < 1:
        raise ValueError(f"patch size must be >= 1, got {size}")
    if packed % (size * size):
        raise ShapeError(f"unpatch: channel count {packed} is not divisible by {size}^2")
    if size == 1:
        return x
    c = packed // (size * size)
    return T.op_forward(TAKE_OP, (x,), rows=_pixel_blocks(hb, wb, size), width=c,
                        shape=(hb * size, wb * size, c))
