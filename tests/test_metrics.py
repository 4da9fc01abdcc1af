"""Metric tests built around three fully hand-worked evaluation sets.

Set A: one frame, one ground truth, one hit at 0.9 plus one stray at 0.8.
    Thresholds 0.9 then 0.8 give curve [(0, 0), (1, 0)]. Every reference
    FPPI reads miss rate 0, floored to 1e-5, so the log-average is
    1e-5 * 100 = 0.001 percent.

Set B: two frames, two ground truths, no detections. Curve [(0, 1)], every
    reference reads 1.0, log-average 100 percent, recall 0.

Set C: two frames, one ground truth each; frame 0 has a hit at 0.9, frame 1
    only a stray at 0.8. Curve [(0, 0.5), (0.5, 0.5)]; every reference
    reads 0.5, log-average 50 percent, recall 50.
"""

import json
import math

import numpy as np
import pytest

from crossfuse.metrics import (
    LAMR_FLOOR,
    LAMR_REFS,
    SETTING_ALL,
    SETTING_REASONABLE,
    SETTING_REASONABLE_SMALL,
    Box,
    DetRecord,
    apply_setting,
    collect_matches,
    iou,
    lamr,
    match_frame,
    mr_fppi_curve,
    recall,
    write_boxes_jsonl,
)


def _gt(x, y, w, h, ignore=False):
    return Box(x=x, y=y, w=w, h=h, ignore=ignore)


def _det(x, y, w, h, conf):
    return Box(x=x, y=y, w=w, h=h, confidence=conf)


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------

def test_iou_identical_is_one():
    a = _gt(3.0, 4.0, 10.0, 12.0)
    assert iou(a, a) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(_gt(0, 0, 5, 5), _gt(10, 10, 5, 5)) == 0.0
    # Edge-touching boxes share no area.
    assert iou(_gt(0, 0, 5, 5), _gt(5, 0, 5, 5)) == 0.0


def test_iou_half_overlap_golden():
    # Overlap 5x10 = 50, union 100 + 100 - 50 = 150.
    v = iou(_gt(0, 0, 10, 10), _gt(5, 0, 10, 10))
    np.testing.assert_allclose(v, 1.0 / 3.0, rtol=1e-12)


def test_box_rejects_empty_sides():
    with pytest.raises(ValueError, match="positive"):
        Box(x=0, y=0, w=0, h=5)
    with pytest.raises(ValueError, match="positive"):
        Box(x=0, y=0, w=5, h=-1)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def test_match_frame_pencil_case():
    gts = [_gt(0, 0, 10, 10), _gt(100, 100, 10, 10, ignore=True)]
    dets = [
        _det(0, 0, 10, 10, 0.9),      # exact hit on the valid gt
        _det(101, 101, 10, 10, 0.8),  # overlaps only the ignored gt
        _det(50, 50, 10, 10, 0.7),    # overlaps nothing
    ]
    res = match_frame(dets, gts)
    assert len(res.tp) == 1 and res.tp[0][0].confidence == 0.9
    assert [d.confidence for d in res.fp] == [0.7]
    assert [d.confidence for d in res.ignored_dets] == [0.8]
    assert res.fn == 0
    assert res.n_valid_gt == 1


def test_match_frame_one_to_one_by_confidence():
    # Both detections cover the single gt; only the stronger one may match.
    gts = [_gt(0, 0, 10, 10)]
    dets = [_det(0, 0, 10, 10, 0.6), _det(1, 0, 10, 10, 0.95)]
    res = match_frame(dets, gts)
    assert len(res.tp) == 1
    assert res.tp[0][0].confidence == 0.95
    assert [d.confidence for d in res.fp] == [0.6]


def test_match_frame_prefers_highest_iou():
    gts = [_gt(0, 0, 10, 10), _gt(6, 0, 10, 10)]
    det = _det(5, 0, 10, 10, 0.9)  # IoU 1/3 with gt0, 9/11 with gt1
    res = match_frame([det], gts, iou_threshold=0.3)
    assert res.tp[0][1] == gts[1]
    assert res.fn == 1


def test_match_frame_ignores_can_absorb_many():
    gts = [_gt(0, 0, 10, 10, ignore=True)]
    dets = [_det(0, 0, 10, 10, c) for c in (0.9, 0.8, 0.7)]
    res = match_frame(dets, gts)
    assert len(res.ignored_dets) == 3
    assert res.fp == [] and res.tp == [] and res.n_valid_gt == 0


def test_match_frame_threshold_gates_matches():
    gts = [_gt(0, 0, 10, 10)]
    det = _det(5, 0, 10, 10, 0.9)  # IoU 1/3
    strict = match_frame([det], gts, iou_threshold=0.5)
    assert strict.tp == [] and len(strict.fp) == 1 and strict.fn == 1
    loose = match_frame([det], gts, iou_threshold=0.3)
    assert len(loose.tp) == 1 and loose.fn == 0


def test_match_frame_input_validation():
    with pytest.raises(ValueError, match="confidence"):
        match_frame([_gt(0, 0, 5, 5)], [])
    with pytest.raises(ValueError, match="iou_threshold"):
        match_frame([], [], iou_threshold=0.0)
    with pytest.raises(ValueError, match="iou_threshold"):
        match_frame([], [], iou_threshold=1.5)


# ---------------------------------------------------------------------------
# Height gating
# ---------------------------------------------------------------------------

def test_setting_edges():
    assert SETTING_ALL.keeps(1.0) and SETTING_ALL.keeps(1e6)
    # "reasonable" is an exclusive lower bound at 55.
    assert not SETTING_REASONABLE.keeps(55.0)
    assert SETTING_REASONABLE.keeps(55.0 + 1e-9)
    # "reasonable-small" keeps both edges of [50, 75].
    assert SETTING_REASONABLE_SMALL.keeps(50.0)
    assert SETTING_REASONABLE_SMALL.keeps(75.0)
    assert not SETTING_REASONABLE_SMALL.keeps(50.0 - 1e-9)
    assert not SETTING_REASONABLE_SMALL.keeps(75.0 + 1e-9)


def test_apply_setting_marks_not_drops():
    gts = [_gt(0, 0, 10, 40), _gt(0, 0, 10, 60)]
    gated = apply_setting(gts, SETTING_REASONABLE)
    assert len(gated) == 2
    assert gated[0].ignore and not gated[1].ignore
    # Originals are untouched.
    assert not gts[0].ignore


def test_gated_gt_absorbs_instead_of_penalizing():
    # A detection on a too-small gt is neither a hit nor a false positive.
    gts = [_gt(0, 0, 10, 40)]
    dets = [_det(0, 0, 10, 40, 0.9)]
    summary = collect_matches([(dets, gts)], setting=SETTING_REASONABLE)
    assert summary.records == [] and summary.n_gt == 0


# ---------------------------------------------------------------------------
# Curves and the log-average
# ---------------------------------------------------------------------------

def test_reference_grid_golden():
    np.testing.assert_allclose(
        LAMR_REFS,
        [0.01, 0.01778279, 0.03162278, 0.05623413, 0.1,
         0.17782794, 0.31622777, 0.56234133, 1.0],
        rtol=1e-6,
    )


def _set_a():
    gts = [_gt(0, 0, 10, 10)]
    dets = [_det(0, 0, 10, 10, 0.9), _det(50, 50, 10, 10, 0.8)]
    return collect_matches([(dets, gts)])


def _set_b():
    frames = [([], [_gt(0, 0, 10, 10)]), ([], [_gt(5, 5, 10, 10)])]
    return collect_matches(frames)


def _set_c():
    frames = [
        ([_det(0, 0, 10, 10, 0.9)], [_gt(0, 0, 10, 10)]),
        ([_det(50, 50, 10, 10, 0.8)], [_gt(0, 0, 10, 10)]),
    ]
    return collect_matches(frames)


def test_set_a_curve_and_lamr():
    s = _set_a()
    curve = mr_fppi_curve(s.records, s.n_gt, s.n_frames)
    assert curve == [(0.0, 0.0), (1.0, 0.0)]
    np.testing.assert_allclose(lamr(curve), 100.0 * LAMR_FLOOR, rtol=1e-12)
    assert recall(s.records, s.n_gt) == 100.0


def test_set_b_curve_and_lamr():
    s = _set_b()
    assert s.records == [] and s.n_gt == 2 and s.n_frames == 2
    curve = mr_fppi_curve(s.records, s.n_gt, s.n_frames)
    assert curve == [(0.0, 1.0)]
    assert lamr(curve) == 100.0
    assert recall(s.records, s.n_gt) == 0.0


def test_set_c_curve_and_lamr():
    s = _set_c()
    curve = mr_fppi_curve(s.records, s.n_gt, s.n_frames)
    assert curve == [(0.0, 0.5), (0.5, 0.5)]
    np.testing.assert_allclose(lamr(curve), 50.0, rtol=1e-12)
    assert recall(s.records, s.n_gt) == 50.0


def test_curve_is_monotone_staircase():
    rng = np.random.default_rng(0)
    records = [
        DetRecord(confidence=float(c), is_tp=bool(t))
        for c, t in zip(rng.random(40), rng.random(40) < 0.5)
    ]
    curve = mr_fppi_curve(records, n_gt=25, n_frames=7)
    fppis = [p[0] for p in curve]
    mrs = [p[1] for p in curve]
    assert fppis == sorted(fppis)
    assert mrs == sorted(mrs, reverse=True)


def test_lamr_invariant_under_monotone_confidence_rescale():
    s = _set_c()
    squeezed = [DetRecord(r.confidence / 3.0 + 0.1, r.is_tp) for r in s.records]
    a = mr_fppi_curve(s.records, s.n_gt, s.n_frames)
    b = mr_fppi_curve(squeezed, s.n_gt, s.n_frames)
    assert a == b


def test_extra_false_positive_cannot_improve_lamr():
    s = _set_c()
    base = lamr(mr_fppi_curve(s.records, s.n_gt, s.n_frames))
    worse = s.records + [DetRecord(0.99, False)]
    bumped = lamr(mr_fppi_curve(worse, s.n_gt, s.n_frames))
    assert bumped >= base


def test_extra_hit_cannot_hurt_lamr():
    records = [DetRecord(0.9, True), DetRecord(0.8, False)]
    base = lamr(mr_fppi_curve(records, n_gt=3, n_frames=2))
    better = [DetRecord(0.95, True)] + records
    improved = lamr(mr_fppi_curve(better, n_gt=3, n_frames=2))
    assert improved <= base


def test_curve_input_validation():
    with pytest.raises(ValueError, match="no ground truth"):
        mr_fppi_curve([], n_gt=0, n_frames=1)
    with pytest.raises(ValueError, match="no frames"):
        mr_fppi_curve([], n_gt=1, n_frames=0)
    with pytest.raises(ValueError, match="empty curve"):
        lamr([])
    with pytest.raises(ValueError, match="no ground truth"):
        recall([], n_gt=0)


def test_lamr_reads_largest_fppi_not_exceeding_reference():
    # A curve point just above a reference must not be read at it.
    curve = [(0.009, 0.8), (0.011, 0.2)]
    # refs[0] = 0.01 reads 0.8; all later refs read 0.2.
    expected = math.exp((math.log(0.8) + 8 * math.log(0.2)) / 9) * 100.0
    np.testing.assert_allclose(lamr(curve), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# JSONL interchange
# ---------------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "boxes.jsonl"
    frames = {
        "clip0/f1": [_det(1, 2, 3, 4, 0.5)],
        "clip0/f0": [_gt(0, 0, 10, 10), _det(5, 5, 2, 2, 0.25)],
    }
    write_boxes_jsonl(path, frames)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    # Lines are written in sorted frame order.
    assert [row["frame_id"] for row in rows] == ["clip0/f0", "clip0/f1"]
    assert rows[0]["boxes"] == [{"x": 0, "y": 0, "w": 10, "h": 10}, {"x": 5, "y": 5, "w": 2, "h": 2, "conf": 0.25}]
    assert rows[1]["boxes"] == [{"x": 1, "y": 2, "w": 3, "h": 4, "conf": 0.5}]
