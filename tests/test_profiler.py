"""Count tests.

Parameter and FLOP oracles for three tiny stages are written out term by
term below, then cross-checked against the closed forms and (for params)
against the literal tensor sizes of a constructed stage.
"""

import dataclasses
import json
import re

import numpy as np

from crossfuse.fusion import StageConfig, init_stage
from crossfuse import profiler as profiler_mod
from crossfuse.profiler import (
    REFERENCE_FULL_SCALE,
    ProfileReport,
    block_param_count,
    count_flops,
    count_params,
    full_scale_configs,
    head_param_count,
    profile,
    render_table,
    stage_flop_count,
    stage_param_count,
)
from crossfuse.temporal import walk_parameters


def _walked_param_count(cfg):
    params = init_stage(cfg, np.random.default_rng(0))
    return sum(int(np.prod(t.shape)) for _, _, t in walk_parameters(params))


M1 = StageConfig(name="m1", height=2, width=2, channels=2, heads=1,
                 patch_sizes=(1,), layers=1, state_size=2, conv_kernel=2,
                 expand=2, dt_rank=1)
M2 = StageConfig(name="m2", height=4, width=2, channels=4, heads=2,
                 patch_sizes=(1, 2), layers=2, state_size=3, conv_kernel=2,
                 expand=2, dt_rank=1)
M3 = StageConfig(name="m3", height=2, width=2, channels=3, heads=1,
                 patch_sizes=(1,), layers=1, state_size=2, conv_kernel=3,
                 expand=1, dt_rank=2)


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------

def test_m1_param_count_by_hand():
    # d=2, e=4: norm 4, in 8, gate 8, conv 2*4+4, ssm 3*4*2+4+4+4, out 8+2.
    block = 4 + 8 + 8 + 12 + 36 + 10
    assert block == 78
    assert block_param_count(2, 2, 2, 2, 1) == 78
    # packed=2: w_in 4, out_linear 4+2.
    head = 4 + block + 6
    assert head == 88
    assert head_param_count(M1, 0) == 88
    # emb 2*2*2+2*2, agg 1*2*2+2.
    stage = 12 + head + 6
    assert stage == 106
    assert stage_param_count(M1) == 106
    assert _walked_param_count(M1) == 106


def test_m2_param_count_by_hand():
    # d=2, e=4, N=3: ssm grows to 3*4*3+4+4+4 = 48.
    block = 4 + 8 + 8 + 12 + 48 + 10
    assert block == 90
    head0 = 4 * 2 + 2 * block + (2 * 4 + 4)      # packed 4
    head1 = 16 * 2 + 2 * block + (2 * 16 + 16)   # packed 16
    assert (head0, head1) == (200, 260)
    stage = (4 * 2 * 4 + 2 * 4) + head0 + head1 + (2 * 4 * 4 + 4)
    assert stage == 536
    assert stage_param_count(M2) == 536
    assert _walked_param_count(M2) == 536


def test_m3_param_count_by_hand():
    # d=3, e=3, conv 3, rank 2: conv 3*3+3, ssm 3*3*2+3*2+2*3+3 = 33.
    block = 6 + 9 + 9 + 12 + 33 + 12
    assert block == 81
    head = 9 + block + 12
    assert head == 102
    stage = (2 * 2 * 3 + 2 * 3) + head + (3 * 3 + 3)
    assert stage == 132
    assert stage_param_count(M3) == 132
    assert _walked_param_count(M3) == 132


def test_default_dt_rank_used_when_unset():
    cfg = StageConfig(name="x", height=2, width=2, channels=32, heads=1,
                      patch_sizes=(1,), layers=1, state_size=2, conv_kernel=2)
    # head_dim 32 -> rank 2; forcing rank 2 must agree, rank 1 must not.
    same = dataclasses.replace(cfg, dt_rank=2)
    other = dataclasses.replace(cfg, dt_rank=1)
    assert stage_param_count(cfg) == stage_param_count(same)
    assert stage_param_count(cfg) != stage_param_count(other)
    assert _walked_param_count(cfg) == stage_param_count(cfg)


# ---------------------------------------------------------------------------
# FLOP counts
# ---------------------------------------------------------------------------

def test_m1_flop_count_by_hand():
    # L=8 tokens, d=2, e=4, n=2, r=1, kc=2, packed=2. Per block:
    block = (
        128        # norm 8*L*d
        + 128      # in_proj 2*L*d*e
        + 160      # conv 2*L*e*kc + L*e
        + 128      # silu 4*L*e
        + 128      # b proj 2*L*e*n
        + 160      # delta low-rank 2*L*e*r + 2*L*r*e + L*e
        + 96       # softplus 3*L*e
        + 16       # A from log 2*e*n
        + 352      # scan 2Len + (Le + Len) + 2Len
        + 128      # y contraction 2*L*e*n
        + 256      # gate proj + silu
        + 32       # gated mix L*e
        + 144      # out proj 2*L*e*d + L*d
        + 16       # residual L*d
    )
    assert block == 1872
    head = 64 + block + 80 + 16  # w_in, block, out_linear, patched residual
    assert head == 2032
    total = 32 + head + 96       # embeddings, head, aggregation
    assert total == 2160
    assert stage_flop_count(M1) == 2160


def test_m2_flop_count_by_hand():
    # Head 0: L=16, packed=4; head 1: L=4, packed=16; two layers each.
    head0 = 256 + 2 * 4312 + 320 + 64
    head1 = 256 + 2 * 1096 + 320 + 64
    assert (head0, head1) == (9264, 2832)
    total = 128 + head0 + head1 + 1152
    assert total == 13376
    assert stage_flop_count(M2) == 13376


def test_m3_flop_count_by_hand():
    # L=8, d=e=3, n=2, r=2, kc=3, packed=3.
    block = 192 + 144 + 168 + 96 + 96 + 216 + 72 + 12 + 264 + 96 + 240 + 24 + 168 + 24
    assert block == 1812
    head = 144 + block + 168 + 24
    assert head == 2148
    total = 48 + head + 192
    assert total == 2388
    assert stage_flop_count(M3) == 2388


def test_counts_grow_with_state_size_and_channels():
    wider_state = dataclasses.replace(M1, state_size=4)
    assert stage_param_count(wider_state) > stage_param_count(M1)
    assert stage_flop_count(wider_state) > stage_flop_count(M1)
    wider_maps = dataclasses.replace(M1, channels=4)
    assert stage_param_count(wider_maps) > stage_param_count(M1)
    assert stage_flop_count(wider_maps) > stage_flop_count(M1)


def test_count_helpers_key_by_stage_name():
    configs = [M1, M3]
    assert count_params(configs) == {"m1": 106, "m3": 132}
    assert count_flops(configs) == {"m1": 2160, "m3": 2388}


# ---------------------------------------------------------------------------
# Full-scale geometry
# ---------------------------------------------------------------------------

def test_full_scale_configs_shape():
    configs = full_scale_configs()
    assert [(c.name, c.height, c.width, c.channels) for c in configs] == [
        ("f1", 80, 80, 256), ("f2", 40, 40, 512), ("f3", 20, 20, 1024),
    ]
    assert configs[0].patch_sizes == (1, 2, 4, 8)
    assert configs[1].patch_sizes == (1,)
    assert all(c.layers == 8 for c in configs)


def test_full_scale_counts_are_reported_not_enforced():
    # The reference totals cover internals this code cannot see, so the
    # comparison is logged in the table, never asserted as a bound.
    report = profile(full_scale_configs(), reference=dict(REFERENCE_FULL_SCALE))
    table = render_table(report)
    assert "informational only" in table
    assert "22.52M params" in table
    assert report.total_params > 0
    assert report.total_flops > 0


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def test_profile_report_totals_and_dict():
    report = profile([M1, M3])
    assert report.total_params == 106 + 132
    assert report.total_flops == 2160 + 2388
    d = report.to_dict()
    json.dumps(d)
    assert [s["name"] for s in d["stages"]] == ["m1", "m3"]
    assert d["stages"][0]["params"] == 106
    assert "MAC=2" in d["conventions"]
    assert d["machine"]


def test_profile_report_json_keeps_its_layout():
    report = profile([M1, M3], reference=dict(REFERENCE_FULL_SCALE))
    # The dict the report's to_dict spelled out field by field.
    expected = {
        "stages": [{"name": s.name, "params": s.params, "flops": s.flops} for s in report.stages],
        "total_params": report.total_params,
        "total_flops": report.total_flops,
        "conventions": report.conventions,
        "machine": report.machine,
        "reference": dict(REFERENCE_FULL_SCALE),
    }
    assert json.dumps(report.to_dict()) == json.dumps(expected)


def test_machine_names_the_blas_kernel_and_the_simd_level(monkeypatch):
    # Float32 bits depend on the kernel OpenBLAS picks, so the report says which.
    machine = profile([M1]).machine
    fields = re.search(r" / blas (\S+) / simd (\S+)$", machine)
    assert fields and all(fields.groups()), machine
    monkeypatch.setattr(profiler_mod.glob, "glob", lambda pattern: [])
    assert " / blas unknown / simd " in profiler_mod._machine_descriptor()


def test_render_table_without_latency():
    table = render_table(profile([M1]))
    assert "m1" in table and "106" in table
    assert "conventions:" in table and "machine:" in table
