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
map and back) one gather each, all ``take_rows`` ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, register_op

__all__ = ["OcfLayout", "build_layout", "ocf_flatten", "ocf_unflatten", "patch", "unpatch"]

TAKE_OP = "take_rows"

RGB = 0
THERMAL = 1


# Index facts of every layout array, worked out once: id -> (array, min, max,
# all distinct). The entry holds the array, so its id is never reused.
_INDEX_FACTS: dict[int, tuple[np.ndarray, int, int, bool]] = {}


def _index_facts(idx: np.ndarray) -> tuple[int, int, bool]:
    """(min, max, every index distinct) of a 1-d index array."""
    hit = _INDEX_FACTS.get(id(idx))
    if hit is not None and hit[0] is idx:
        return hit[1:]
    if not idx.size:
        return 0, -1, True
    lo, hi = int(idx.min()), int(idx.max())
    return lo, hi, lo >= 0 and bool(np.bincount(idx).max() <= 1)


def _layout_indices(a: np.ndarray) -> np.ndarray:
    """Freeze a layout's index array and record its facts for ``take_rows``."""
    a.flags.writeable = False
    _INDEX_FACTS[id(a)] = (a,) + _index_facts(a)
    return a


def _take_rows_fwd(*arrays, indices, width, shape):
    """Rows of the inputs, stacked in order, picked by ``indices``.

    Each input is viewed as rows of ``width`` values and the picked rows are
    reshaped to ``shape``.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: indices must be 1-d, got shape {idx.shape}")
    rows = [a.reshape(-1, width) for a in arrays]
    stacked = rows[0] if len(rows) == 1 else np.concatenate(rows)
    lo, hi, distinct = _index_facts(idx)
    if lo < 0 or hi >= stacked.shape[0]:
        raise ShapeError(f"take_rows: index out of range for {stacked.shape[0]} rows")
    ctx = {"indices": idx, "distinct": distinct, "rows": [r.shape[0] for r in rows],
           "shapes": [a.shape for a in arrays]}
    return stacked[idx].reshape(shape), ctx


def _take_rows_bwd(ctx, g):
    idx = ctx["indices"]
    g_rows = g.reshape(idx.size, -1)
    stacked = np.zeros((sum(ctx["rows"]), g_rows.shape[1]), dtype=g.dtype)
    # Rows picked once (every layout gather) are assigned; np.add.at, which
    # repeated rows need, is about ten times slower.
    if ctx["distinct"]:
        stacked[idx] = g_rows
    else:
        np.add.at(stacked, idx, g_rows)
    grads = []
    start = 0
    for n, shape in zip(ctx["rows"], ctx["shapes"]):
        grads.append(stacked[start:start + n].reshape(shape))
        start += n
    return tuple(grads)


register_op(TAKE_OP, _take_rows_fwd, _take_rows_bwd)


@dataclass(frozen=True)
class OcfLayout:
    """Token permutation for one (rows, cols) grid of S x S blocks.

    ``order[t]`` gives (modality, row, col) of token t on the block grid,
    with modality 0 for RGB and 1 for thermal. ``gather`` holds, token by
    token and then block-row-major within the token, the flat index of each
    pixel in the stacked [rgb; thermal] row-major (rows*S, cols*S) maps, and
    ``scatter`` is its inverse. With S = 1 both are token permutations.
    ``unflatten`` splits ``scatter`` into its RGB and its thermal half.
    """

    rows: int
    cols: int
    order: tuple[tuple[int, int, int], ...]
    gather: np.ndarray
    scatter: np.ndarray
    unflatten: tuple[np.ndarray, np.ndarray]
    patch: int = 1

    @property
    def tokens(self) -> int:
        return 2 * self.rows * self.cols


def _column_order(cols: int) -> list[int]:
    evens = list(range(0, cols, 2))
    start = cols - 1 if cols % 2 == 0 else cols - 2
    odds = list(range(start, 0, -2))
    return evens + odds


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


@lru_cache(maxsize=None)
def _block_pixels(rows: int, cols: int, patch: int) -> np.ndarray:
    """Flat pixel indices of every S x S block of a (rows*S, cols*S) map,
    blocks row-major, pixels block-row-major: rows*cols runs of patch^2."""
    r = np.arange(rows)[:, None, None, None] * patch + np.arange(patch)[None, None, :, None]
    c = np.arange(cols)[None, :, None, None] * patch + np.arange(patch)[None, None, None, :]
    return _layout_indices((r * (cols * patch) + c).reshape(-1))


@lru_cache(maxsize=None)
def _pixel_blocks(rows: int, cols: int, patch: int) -> np.ndarray:
    """Inverse of ``_block_pixels``: the packed row of every map pixel."""
    return _layout_indices(_inverse(_block_pixels(rows, cols, patch)))


@lru_cache(maxsize=None)
def build_layout(rows: int, cols: int, patch: int = 1) -> OcfLayout:
    if rows < 1 or cols < 1:
        raise ValueError(f"layout needs rows >= 1 and cols >= 1, got ({rows}, {cols})")
    if patch < 1:
        raise ValueError(f"patch size must be >= 1, got {patch}")
    order: list[tuple[int, int, int]] = []
    for r in range(rows):
        for c in _column_order(cols):
            order.append((RGB, r, c))
            order.append((THERMAL, r, c))
    blocks = _block_pixels(rows, cols, patch).reshape(rows * cols, patch * patch)
    pixels = rows * cols * patch * patch
    gather = np.concatenate([m * pixels + blocks[r * cols + c] for (m, r, c) in order])
    scatter = _layout_indices(_inverse(gather))
    halves = tuple(_layout_indices(scatter[m * pixels:(m + 1) * pixels]) for m in (RGB, THERMAL))
    return OcfLayout(rows=rows, cols=cols, order=tuple(order), gather=_layout_indices(gather),
                     scatter=scatter, unflatten=halves, patch=patch)


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
    return T.op_forward(TAKE_OP, (rgb, thermal), indices=layout.gather, width=channels,
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
    return tuple(T.op_forward(TAKE_OP, (tokens,), indices=half, width=channels, shape=shape)
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
    return T.op_forward(TAKE_OP, (x,), indices=_block_pixels(h // size, w // size, size), width=c,
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
    return T.op_forward(TAKE_OP, (x,), indices=_pixel_blocks(hb, wb, size), width=c,
                        shape=(hb * size, wb * size, c))
