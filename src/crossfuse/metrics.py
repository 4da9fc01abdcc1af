"""Detection metrics: greedy IoU matching, miss-rate/FPPI curves, LAMR.

Matching is confidence-descending greedy at a fixed IoU threshold. Height
gates mark out-of-band ground truth as ignore regions: ignored boxes are
never counted as misses, and a detection whose only overlap is with an
ignored box is dropped rather than counted as a false positive.

The summary number is the log-average miss rate over nine reference FPPI
points log-spaced in [1e-2, 1e0]. At each reference the curve is read at
the largest-FPPI point not exceeding it (miss rate 1.0 if the curve never
gets that low); miss rates are floored at 1e-5 before the geometric mean,
and the result is reported as a percentage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

__all__ = [
    "Box",
    "EvalSetting",
    "SETTING_ALL",
    "SETTING_REASONABLE",
    "SETTING_REASONABLE_SMALL",
    "iou",
    "apply_setting",
    "match_frame",
    "MatchResult",
    "DetRecord",
    "collect_matches",
    "mr_fppi_curve",
    "lamr",
    "recall",
    "write_boxes_jsonl",
]

LAMR_FLOOR = 1e-5
LAMR_REFS = tuple(10.0 ** (-2.0 + k / 4.0) for k in range(9))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, corner (x, y) plus size; confidence only on detections."""

    x: float
    y: float
    w: float
    h: float
    confidence: Optional[float] = None
    ignore: bool = False

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def to_dict(self) -> dict:
        d = {"x": self.x, "y": self.y, "w": self.w, "h": self.h}
        if self.confidence is not None:
            d["conf"] = self.confidence
        return d


def iou(a: Box, b: Box) -> float:
    x1 = max(a.x, b.x)
    y1 = max(a.y, b.y)
    x2 = min(a.x + a.w, b.x + b.w)
    y2 = min(a.y + a.h, b.y + b.h)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    inter = (x2 - x1) * (y2 - y1)
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class EvalSetting:
    """Ground-truth height band. ``min_inclusive`` selects > vs >= at the
    lower edge; the upper edge is always inclusive."""

    name: str
    min_height: Optional[float] = None
    max_height: Optional[float] = None
    min_inclusive: bool = True

    def keeps(self, height: float) -> bool:
        if self.min_height is not None:
            if self.min_inclusive:
                if height < self.min_height:
                    return False
            elif height <= self.min_height:
                return False
        if self.max_height is not None and height > self.max_height:
            return False
        return True


SETTING_ALL = EvalSetting("all")
SETTING_REASONABLE = EvalSetting("reasonable", min_height=55.0, min_inclusive=False)
SETTING_REASONABLE_SMALL = EvalSetting("reasonable-small", min_height=50.0, max_height=75.0)


def apply_setting(gts: Sequence[Box], setting: EvalSetting) -> list[Box]:
    """Mark ground truth outside the height band as ignore regions."""
    return [gt if setting.keeps(gt.h) else replace(gt, ignore=True) for gt in gts]


@dataclass
class MatchResult:
    tp: list[tuple[Box, Box]]   # (detection, matched ground truth)
    fp: list[Box]
    fn: int
    ignored_dets: list[Box]

    @property
    def n_valid_gt(self) -> int:
        return len(self.tp) + self.fn


def match_frame(dets: Sequence[Box], gts: Sequence[Box], iou_threshold: float = 0.5) -> MatchResult:
    """Greedy one-to-one matching, highest confidence first.

    Every detection must carry a confidence. A detection first tries the
    unmatched non-ignored ground truth with the highest IoU at or above the
    threshold; failing that, if it overlaps any ignored box at threshold it
    is set aside; otherwise it is a false positive. Ignored ground truth can
    absorb any number of detections.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    for d in dets:
        if d.confidence is None:
            raise ValueError(f"detection without confidence: {d}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    valid = [g for g in gts if not g.ignore]
    ignored = [g for g in gts if g.ignore]
    taken = [False] * len(valid)
    tp: list[tuple[Box, Box]] = []
    fp: list[Box] = []
    ignored_dets: list[Box] = []
    for i in order:
        det = dets[i]
        best, best_iou = -1, 0.0
        for j, gt in enumerate(valid):
            if taken[j]:
                continue
            v = iou(det, gt)
            if v >= iou_threshold and v > best_iou:
                best, best_iou = j, v
        if best >= 0:
            taken[best] = True
            tp.append((det, valid[best]))
            continue
        if any(iou(det, g) >= iou_threshold for g in ignored):
            ignored_dets.append(det)
            continue
        fp.append(det)
    fn = taken.count(False)
    return MatchResult(tp=tp, fp=fp, fn=fn, ignored_dets=ignored_dets)


@dataclass
class DetRecord:
    """One scored detection after matching: kept for threshold sweeps."""

    confidence: float
    is_tp: bool


@dataclass
class MatchSummary:
    records: list[DetRecord]
    n_gt: int
    n_frames: int


def collect_matches(
    frames: Iterable[tuple[Sequence[Box], Sequence[Box]]],
    setting: EvalSetting = SETTING_ALL,
    iou_threshold: float = 0.5,
) -> MatchSummary:
    """Match every (detections, ground-truth) frame pair under one setting."""
    records: list[DetRecord] = []
    n_gt = 0
    n_frames = 0
    for dets, gts in frames:
        n_frames += 1
        gated = apply_setting(gts, setting)
        res = match_frame(dets, gated, iou_threshold)
        n_gt += res.n_valid_gt
        records.extend(DetRecord(d.confidence, True) for d, _ in res.tp)
        records.extend(DetRecord(d.confidence, False) for d in res.fp)
    return MatchSummary(records=records, n_gt=n_gt, n_frames=n_frames)


def mr_fppi_curve(records: Sequence[DetRecord], n_gt: int, n_frames: int) -> list[tuple[float, float]]:
    """(FPPI, miss rate) at every distinct confidence threshold.

    Thresholds sweep from strict to lenient, so FPPI is non-decreasing and
    miss rate non-increasing along the returned list. With no detections at
    all the curve is the single point (0, 1).
    """
    if n_gt <= 0:
        raise ValueError("mr_fppi_curve: no ground truth in the evaluation set")
    if n_frames <= 0:
        raise ValueError("mr_fppi_curve: no frames in the evaluation set")
    if not records:
        return [(0.0, 1.0)]
    by_conf = sorted(records, key=lambda r: -r.confidence)
    curve = []
    tp = fp = 0
    i = 0
    total = len(by_conf)
    while i < total:
        theta = by_conf[i].confidence
        while i < total and by_conf[i].confidence == theta:
            if by_conf[i].is_tp:
                tp += 1
            else:
                fp += 1
            i += 1
        curve.append((fp / n_frames, 1.0 - tp / n_gt))
    return curve


def lamr(curve: Sequence[tuple[float, float]]) -> float:
    """Log-average miss rate (percent) over the reference FPPI grid."""
    if not curve:
        raise ValueError("lamr: empty curve")
    logs = []
    for ref in LAMR_REFS:
        mr = 1.0
        for fppi, miss in curve:
            if fppi <= ref:
                mr = miss
            else:
                break
        logs.append(math.log(max(mr, LAMR_FLOOR)))
    return math.exp(sum(logs) / len(logs)) * 100.0


def recall(records: Sequence[DetRecord], n_gt: int) -> float:
    """Percent of ground truth matched with every detection kept."""
    if n_gt <= 0:
        raise ValueError("recall: no ground truth in the evaluation set")
    tp = sum(1 for r in records if r.is_tp)
    return 100.0 * tp / n_gt


# ---------------------------------------------------------------------------
# JSONL interchange: one object per frame
# ---------------------------------------------------------------------------

def write_boxes_jsonl(path, frames: dict[str, Sequence[Box]]) -> None:
    """{"frame_id": ..., "boxes": [{x, y, w, h, conf?}, ...]} per line."""
    with open(path, "w") as fp:
        for frame_id in sorted(frames):
            row = {"frame_id": frame_id, "boxes": [b.to_dict() for b in frames[frame_id]]}
            fp.write(json.dumps(row, sort_keys=True))
            fp.write("\n")

