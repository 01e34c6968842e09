"""Spans recorded around the program's public functions, from outside.

`Tracer.run()` replaces module attributes with timing wrappers for the
length of one call and then puts the originals back; no source file
changes.
A span is `[name, start, end, parent, attr]`: `parent` indexes the
enclosing span (None for a phase root), and `attr` holds the stage
that created a backward node, the node count of a backward pass, or
the bits of a coded plane. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import time
from collections import defaultdict

from chromacodec import codec, losses, network, pipeline, trainer
from chromacodec import tensor as T

# every differentiable op in `tensor`; ops_per_step counts them all
ALL_OPS = (
    "add", "sub", "mul", "scale", "square", "concat", "mean", "tsum", "l1_norm",
    "l2_norm", "relu", "leaky_relu", "sigmoid", "tanh", "log_floor", "softmax",
    "reshape", "transpose_last2", "matmul", "conv2d", "conv_transpose2d", "maxpool2",
)
REPORTED_OPS = (
    "conv2d", "conv_transpose2d", "matmul", "softmax", "transpose_last2",
    "maxpool2", "concat", "add",
)
STAGES = ("multires", "rc", "att1", "att2", "att3", "att4", "decoder")
LOSSES = ("gan", "mse", "content", "color", "discriminator")

# (module, attribute, span name); a None name means "network." + the prefix argument
_CALLS = (
    (network, "multires_block", "network.multires"),
    (network, "optimized_rc", "network.rc"),
    (network, "self_attention", None),
    (network, "generator_forward", "network.generator"),
    (network, "discriminator_forward", "network.discriminator"),
    (network, "serialize_weights", "network.serialize_weights"),
    (network, "deserialize_weights", "network.deserialize_weights"),
    (losses, "gan_loss", "losses.gan"),
    (losses, "mse_loss", "losses.mse"),
    (losses, "content_loss", "losses.content"),
    (losses, "color_loss", "losses.color"),
    (losses, "discriminator_loss", "losses.discriminator"),
    (trainer, "adam_step", "trainer.adam"),
    (trainer, "build_training_set", "trainer.build_training_set"),
    (codec, "decode_plane", "codec.decode_plane"),
    # pipeline imported these two by name, so its own references are the ones to wrap
    (pipeline, "subsample", "colorspace.subsample"),
    (pipeline, "upsample", "colorspace.upsample"),
    (pipeline, "encode_sequence", "pipeline.encode_sequence"),
    (pipeline, "decode_sequence", "pipeline.decode_sequence"),
    (pipeline, "serialize_video", "pipeline.serialize_video"),
    (pipeline, "deserialize_video", "pipeline.deserialize_video"),
)


def _graph_size(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._stage = []  # names of the enclosing non-op spans
        self._saved = []

    def begin(self, name, attr=None) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, attr])
        self._open.append(i)
        return i

    def end(self, i):
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    def run(self, phase: str, fn, *args):
        """Call fn inside a root span named phase.<phase>, wrappers installed.

        Only calls that go through a module attribute reach a wrapper, so fn
        itself must not be one of the wrapped functions.
        """
        self._install()
        i = self.begin(f"phase.{phase}")
        self._stage.append(f"phase.{phase}")
        try:
            return fn(*args)
        finally:
            self._stage.pop()
            self.end(i)
            self._uninstall()

    def _patch(self, module, attr, wrapper):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper(orig))

    def _install(self):
        for op in ALL_OPS:
            self._patch(T, op, lambda f, n=f"tensor.{op}": self._op(f, n))
        self._patch(T, "backward", self._backward)
        self._patch(codec, "encode_plane", self._encode_plane)
        for module, attr, name in _CALLS:
            self._patch(module, attr, lambda f, n=name: self._call(f, n))

    def _uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _call(self, fn, name):
        def traced(*args, **kw):
            label = name or f"network.{args[1]}"
            i = self.begin(label)
            self._stage.append(label)
            try:
                return fn(*args, **kw)
            finally:
                self._stage.pop()
                self.end(i)

        return traced

    def _op(self, fn, name):
        back = name + ".bwd"

        def traced(*args, **kw):
            i = self.begin(name)
            try:
                out = fn(*args, **kw)
            finally:
                self.end(i)
            if out._backprop is not None:
                out._backprop = self._timed_backprop(out._backprop, back, self._stage[-1])
            return out

        return traced

    def _timed_backprop(self, backprop, name, stage):
        def traced(g):
            i = self.begin(name, stage)
            try:
                backprop(g)
            finally:
                self.end(i)

        return traced

    def _backward(self, fn):
        def traced(loss):
            i = self.begin("tensor.backward", _graph_size(loss))
            try:
                fn(loss)
            finally:
                self.end(i)

        return traced

    def _encode_plane(self, fn):
        def traced(plane, params):
            i = self.begin("codec.encode_plane")
            try:
                out = fn(plane, params)
            finally:
                self.end(i)
            self.spans[i][4] = out.bit_length
            return out

        return traced


def merge(*segments):
    """Concatenate span lists from several tracers, re-basing parent indices."""
    merged = []
    for spans in segments:
        base = len(merged)
        for name, t0, t1, parent, attr in spans:
            merged.append([name, t0, t1, None if parent is None else parent + base, attr])
    return merged


def layer_metrics(spans, steps: int, colorized: int, frames: int):
    """Per-layer figures from the merged spans of one train call and one
    encode and decode round of `frames` frames.

    tensor.* figures are op self time (ops do not nest). network.* figures
    include the ops a stage calls but not nested stages, so `decoder` is
    the generator's time outside the multires, rc and attention stages
    (its up-convolutions, concats, head, and the three max-pools).
    Train figures are per step, decode figures per colorized frame, codec
    and colorspace figures per frame of the round, codec counts per round,
    and (de)serialisation figures per call. Every figure is always there:
    a layer the workload never runs (attention with attention off) reads 0.
    """
    root = []
    for name, _, _, parent, _ in spans:
        root.append(len(root) if parent is None else root[parent])
    total = defaultdict(float)
    count = defaultdict(int)
    nested = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent is not None and name.startswith("network.") and spans[parent][0].startswith("network."):
            nested[parent] += t1 - t0
    for i, (name, t0, t1, parent, attr) in enumerate(spans):
        phase = spans[root[i]][0][len("phase."):]
        dur = t1 - t0 - nested[i]
        total[phase, name] += dur
        count[phase, name] += 1
        if name.endswith(".bwd"):
            total[phase, f"origin:{attr}"] += dur
        elif name in ("tensor.backward", "codec.encode_plane"):
            total[phase, f"attr:{name}"] += attr

    out = {}

    def put(metric, phase, key, per):
        out[metric] = total[phase, key] / per if per else 0.0

    for op in REPORTED_OPS:
        put(f"tensor.{op}.train_fwd_s", "train", f"tensor.{op}", steps)
        put(f"tensor.{op}.train_bwd_s", "train", f"tensor.{op}.bwd", steps)
        put(f"tensor.{op}.decode_s", "decode", f"tensor.{op}", colorized)
    put("tensor.backward.s", "train", "tensor.backward", steps)
    put("tensor.backward.nodes", "train", "attr:tensor.backward", steps)
    for op in ALL_OPS:
        total["train", "ops"] += count["train", f"tensor.{op}"]
    put("tensor.ops_per_step", "train", "ops", steps)
    for stage in STAGES + ("discriminator",):
        span = "network.generator" if stage == "decoder" else f"network.{stage}"
        put(f"network.{stage}.train_fwd_s", "train", span, steps)
        put(f"network.{stage}.train_bwd_s", "train", f"origin:{span}", steps)
        if stage != "discriminator":
            put(f"network.{stage}.decode_s", "decode", span, colorized)
    for name in LOSSES:
        put(f"losses.{name}.train_fwd_s", "train", f"losses.{name}", steps)
    put("trainer.adam.s", "train", "trainer.adam", steps)
    put("trainer.build_training_set.s", "setup", "trainer.build_training_set", 1)
    put("codec.encode_plane.s", "encode", "codec.encode_plane", frames)
    put("codec.decode_plane.s", "decode", "codec.decode_plane", frames)
    out["codec.planes"] = count["encode", "codec.encode_plane"]
    out["codec.coded_bits"] = total["encode", "attr:codec.encode_plane"]
    put("colorspace.subsample.s", "encode", "colorspace.subsample", frames)
    put("colorspace.upsample.s", "decode", "colorspace.upsample", frames)
    for phase, name in (
        ("encode", "network.serialize_weights"),
        ("decode", "network.deserialize_weights"),
        ("encode", "pipeline.serialize_video"),
        ("decode", "pipeline.deserialize_video"),
    ):
        put(f"{name}.s", phase, name, count[phase, name])
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, following the normalisation in layer_metrics."""
    if name.endswith(("train_fwd_s", "train_bwd_s")) or name in (
        "tensor.backward.s", "trainer.adam.s", "trainer.step.sys_s"
    ):
        return "s/step"
    if name in ("tensor.backward.nodes", "tensor.ops_per_step", "trainer.step.minflt"):
        return "count/step"
    if name in ("codec.planes", "codec.coded_bits"):
        return name.split(".")[1].replace("coded_", "") + "/round"
    if name.endswith("decode_s") or name.startswith(("codec.", "colorspace.")):
        return "s/frame"
    if name.endswith("serialize_weights.s") or name.endswith("_video.s"):
        return "s/call"
    return "bits" if name.endswith("_bits") else "s"
