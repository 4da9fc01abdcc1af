"""Spans around the program's public calls, recorded from outside the program.

``Tracer.install()`` replaces each traced function where its caller looks it
up (a module attribute, a class attribute, or an entry of the op registry)
and ``uninstall()`` puts the originals back. Layer calls are kept as spans:
name, start, end, parent span, phase and an optional tag such as the stage
name. Op-level calls (``tensor.op_forward`` and the registered forward and
backward kernels) run thousands of times a frame, so they are summed per
phase and kind instead of kept one by one. Everything stays in memory until
``write()``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from importlib import import_module

from crossfuse import metrics as metrics_mod
from crossfuse import ssm as ssm_mod
from crossfuse import fusion as fusion_mod
from crossfuse import temporal as temporal_mod
from crossfuse import tensor as tensor_mod
from crossfuse.harness import model as model_mod
from crossfuse.harness import synthetic as synthetic_mod
from crossfuse.profiler import count_flops

# The harness package re-exports functions named train and evaluate, which
# shadow these submodules as attributes, so take the modules themselves.
evaluate_mod = import_module("crossfuse.harness.evaluate")
train_mod = import_module("crossfuse.harness.train")

# Every op kind the program registers today. A kind registered later is still
# timed inside tensor.op_forward but gets no per-kind metric until it is listed.
OP_KINDS = (
    "add", "mul", "matmul", "linear", "conv1d_causal", "layer_norm", "silu",
    "softplus", "exp", "concat", "slice", "reshape", "transpose", "reduce_sum",
    "reduce_mean", "ssm_scan", "take_rows", "huber",
)
STAGES = ("f1", "f2", "f3")
MIB = float(1 << 20)

# (owner, attribute, span name): each is replaced where its caller looks it up.
LAYER_CALLS = (
    (temporal_mod, "fuse_next", "temporal.fuse_next"),
    (temporal_mod, "stage_forward", "fusion.stage_forward"),
    (fusion_mod, "ocf_flatten", "interleave.ocf_flatten"),
    (fusion_mod, "ocf_unflatten", "interleave.ocf_unflatten"),
    (ssm_mod, "block_forward", "ssm.block_forward"),
    (model_mod.DetectionModel, "backbone_forward", "model.backbone_forward"),
    (model_mod.DetectionModel, "head_forward", "model.head_forward"),
    (model_mod.DetectionModel, "replace_parameters", "model.replace_parameters"),
    (evaluate_mod, "decode_frame", "evaluate.decode_frame"),
    (metrics_mod, "collect_matches", "metrics.collect_matches"),
    (metrics_mod, "mr_fppi_curve", "metrics.mr_fppi_curve"),
    (metrics_mod, "lamr", "metrics.lamr"),
    (metrics_mod, "recall", "metrics.recall"),
    (synthetic_mod.Dataset, "load_frame", "synthetic.Dataset.load_frame"),
    (synthetic_mod, "gen_clips", "synthetic.gen_clips"),
    (train_mod, "clip_loss", "train.clip_loss"),
    (train_mod, "backward", "tensor.backward"),
    (train_mod.SGD, "step", "train.SGD.step"),
    (train_mod, "save_checkpoint", "tensorio.save_checkpoint"),
)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []        # [name, start, end, parent, phase, tag]
        self._stack: list[int] = []
        self.sums: dict = defaultdict(float)  # (phase, key) -> seconds, bytes or count
        self._saved: list = []

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name in LAYER_CALLS:
            self._replace(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        self._replace(tensor_mod, "op_forward", self._op_wrapper(tensor_mod.op_forward))
        registry = tensor_mod._OP_REGISTRY
        self._saved.append((registry, None, dict(registry)))
        for kind, opdef in list(registry.items()):
            registry[kind] = tensor_mod.OpDef(kind, self._kernel_wrapper(kind, "fwd", opdef.forward),
                                              self._kernel_wrapper(kind, "bwd", opdef.backward))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            parent = tracer._stack[-1] if tracer._stack else -1
            tag = args[0].config.name if name == "fusion.stage_forward" else None
            index = len(spans)
            spans.append([name, time.perf_counter(), None, parent, tracer.phase, tag])
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(name, args, out)
            return out

        return traced

    def _after(self, name, args, out):
        sums, phase = self.sums, self.phase
        if name == "tensor.backward":
            sums[(phase, "tape_nodes")] += len(args[0])
            sums[(phase, "backward_calls")] += 1
        elif name == "evaluate.decode_frame":
            sums[(phase, "boxes")] += len(out)
        elif name == "tensorio.save_checkpoint":
            d = args[0]
            size = sum(os.path.getsize(os.path.join(d, f)) for f in ("tensors.bin", "index.json"))
            sums[(phase, "checkpoint_bytes")] += size
            sums[(phase, "checkpoints")] += 1

    def _op_wrapper(self, fn):
        sums = self.sums
        tracer = self

        def op_forward(kind, inputs, **attrs):
            t0 = time.perf_counter()
            out = fn(kind, inputs, **attrs)
            phase = tracer.phase
            sums[(phase, "op_forward")] += time.perf_counter() - t0
            sums[(phase, "op_calls")] += 1
            sums[(phase, "out_bytes")] += out.data.nbytes
            return out

        return op_forward

    def _kernel_wrapper(self, kind, direction, fn):
        sums = self.sums
        tracer = self
        key = f"{direction}.{kind}"

        def kernel(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            phase = tracer.phase
            sums[(phase, key)] += elapsed
            sums[(phase, f"{direction}_kernels")] += elapsed
            if direction == "fwd" and kind == "ssm_scan":
                # d_a, d_bx and h_all, each (L, C, N) like the returned states
                sums[(phase, "scan_state_bytes")] += 3 * out[0].nbytes
            return out

        return kernel

    # -- results ---------------------------------------------------------

    def span_total(self, name, phase, tag=None):
        total, calls = 0.0, 0
        for s in self.spans:
            if s[0] == name and s[4] == phase and (tag is None or s[5] == tag):
                total += s[2] - s[1]
                calls += 1
        return total, calls

    def layer_metrics(self, ops: int, setups: int, fusion_configs) -> dict[str, tuple[float, str]]:
        """Per-layer figures of the measured loop.

        Times are milliseconds per operation (frame or training step), except
        ``tensorio.checkpoint_write_ms`` (per write) and ``synthetic.gen_s``
        (seconds per set-up). Self times subtract the op kernels they enclose.
        """
        get = lambda key: self.sums.get(("loop", key), 0.0)  # noqa: E731
        per_op = lambda seconds: 1e3 * seconds / ops  # noqa: E731
        span_ms = lambda name: per_op(self.span_total(name, "loop")[0])  # noqa: E731
        out: dict[str, tuple[float, str]] = {}
        out["tensor.ops_per_op"] = (get("op_calls") / ops, "count")
        out["tensor.dispatch_self_ms"] = (per_op(get("op_forward") - get("fwd_kernels")), "ms")
        for kind in OP_KINDS:
            out[f"tensor.fwd_ms.{kind}"] = (per_op(get(f"fwd.{kind}")), "ms")
        for kind in OP_KINDS:
            out[f"tensor.bwd_ms.{kind}"] = (per_op(get(f"bwd.{kind}")), "ms")
        backward_s, _ = self.span_total("tensor.backward", "loop")
        out["tensor.backward_self_ms"] = (per_op(backward_s - get("bwd_kernels")), "ms")
        calls = get("backward_calls")
        out["tensor.tape_nodes_per_step"] = (get("tape_nodes") / calls if calls else 0.0, "count")
        out["tensor.out_mb_per_op"] = (get("out_bytes") / MIB / ops, "MB")
        out["ssm.block_ms"] = (span_ms("ssm.block_forward"), "ms")
        out["ssm.scan_state_mb"] = (get("scan_state_bytes") / MIB / ops, "MB")
        out["interleave.flatten_ms"] = (span_ms("interleave.ocf_flatten"), "ms")
        out["interleave.unflatten_ms"] = (span_ms("interleave.ocf_unflatten"), "ms")
        flops = count_flops(fusion_configs)
        for stage in STAGES:
            seconds, calls = self.span_total("fusion.stage_forward", "loop", tag=stage)
            out[f"fusion.stage_ms.{stage}"] = (per_op(seconds), "ms")
            rate = flops[stage] * calls / seconds / 1e9 if seconds else 0.0
            out[f"fusion.gflops_per_s.{stage}"] = (rate, "GFLOP/s")
        out["temporal.fuse_next_ms"] = (span_ms("temporal.fuse_next"), "ms")
        out["model.backbone_ms"] = (span_ms("model.backbone_forward"), "ms")
        out["model.heads_ms"] = (span_ms("model.head_forward"), "ms")
        decode_s, decodes = self.span_total("evaluate.decode_frame", "loop")
        out["evaluate.decode_ms"] = (per_op(decode_s), "ms")
        out["evaluate.boxes_per_frame"] = (get("boxes") / decodes if decodes else 0.0, "count")
        score_s = sum(self.span_total(f"metrics.{fn}", "loop")[0]
                      for fn in ("collect_matches", "mr_fppi_curve", "lamr", "recall"))
        out["metrics.score_ms"] = (per_op(score_s), "ms")
        out["tensorio.frame_load_ms"] = (span_ms("synthetic.Dataset.load_frame"), "ms")
        writes = get("checkpoints")
        write_s, _ = self.span_total("tensorio.save_checkpoint", "loop")
        out["tensorio.checkpoint_write_ms"] = (1e3 * write_s / writes if writes else 0.0, "ms")
        out["tensorio.checkpoint_mb"] = (get("checkpoint_bytes") / MIB / writes if writes else 0.0, "MB")
        out["train.loss_ms"] = (span_ms("train.clip_loss"), "ms")
        out["train.backward_ms"] = (per_op(backward_s), "ms")
        out["train.sgd_ms"] = (span_ms("train.SGD.step"), "ms")
        out["train.rebind_ms"] = (span_ms("model.replace_parameters"), "ms")
        gen_s, _ = self.span_total("synthetic.gen_clips", "setup")
        out["synthetic.gen_s"] = (gen_s / setups, "s")
        return out

    def write(self, path, extra: dict) -> None:
        """One JSON document: the spans, the op-level sums, and ``extra``."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "phase", "tag"],
            "spans": self.spans,
            "sums": {f"{phase}.{key}": value for (phase, key), value in sorted(self.sums.items())},
            **extra,
        }
        with open(path, "w") as fp:
            json.dump(doc, fp)
