"""Self-tests of the benchmark's checks: each must pass on real output and fail on corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

No training runs here; the streams are tiny and the colorizer untrained.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from chromacodec import colorspace, metrics, network, pipeline  # noqa: E402
from chromacodec import tensor as T  # noqa: E402
from workloads import rectangle_scene  # noqa: E402

QP = 27


@pytest.fixture(scope="module")
def coded():
    frames = rectangle_scene(32, 32, 4, seed=3)
    gop = pipeline.split_gops(len(frames), 2)
    config = network.NetworkConfig(32, 32)
    gen = network.init_generator(config, seed=0)
    video, _ = pipeline.encode_sequence(frames, QP, gop, gen, config)
    data = pipeline.serialize_video(video)
    decoded = pipeline.decode_sequence(pipeline.deserialize_video(data))
    return frames, gop, video, data, decoded


def test_checks_pass_on_real_output(coded):
    frames, gop, video, data, decoded = coded
    checks.check_stream(video, data, "stream")
    checks.check_weights(video.weight_blob, "weights")
    checks.check_bits(pipeline.bitrate_report(video), len(data), "bits")
    checks.check_frames(frames, decoded, QP, {0, 2}, "frames")
    assert math.isfinite(checks.mean_frame_psnr(frames, decoded))


@pytest.mark.parametrize("offset", [-1, -40, 60])
def test_flipped_stream_byte_fails(coded, offset):
    _, _, video, data, _ = coded
    bad = bytearray(data)
    bad[offset] ^= 0x10
    with pytest.raises(checks.CheckFailed):
        checks.check_stream(video, bytes(bad), "stream")


@pytest.mark.parametrize("plane", ["y", "cb"])
def test_pixel_past_codec_bound_fails(coded, plane):
    frames, _, _, _, decoded = coded
    frame = decoded[0]  # an anchor: luma and chroma are both bounded
    planes = {p: getattr(frame, p).samples.copy() for p in ("y", "cb", "cr")}
    src = getattr(frames[0], plane).samples
    # 8·bound off in one sample lifts that block's RMSE past the bound
    push = int(math.ceil(8 * checks.block_rmse_bound(QP))) + 1
    planes[plane][0:2, 0:2] = 255 if src[0, 0] < 128 else 0
    assert abs(int(planes[plane][0, 0]) - int(src[0, 0])) >= push
    bad = colorspace.Frame(
        *(colorspace.Plane(planes[p]) for p in ("y", "cb", "cr")), frame.mode
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_frames(frames, [bad] + decoded[1:], QP, {0, 2}, "frames")


def test_wrong_bit_total_fails(coded):
    _, _, video, data, _ = coded
    report = dict(pipeline.bitrate_report(video))
    report["luma_bits"] += 8
    with pytest.raises(checks.CheckFailed):
        checks.check_bits(report, len(data), "bits")
    with pytest.raises(checks.CheckFailed):
        checks.check_bits(pipeline.bitrate_report(video), len(data) + 1, "bits")


def test_truncated_weights_fail(coded):
    _, _, video, _, _ = coded
    with pytest.raises(checks.CheckFailed):
        checks.check_weights(video.weight_blob[:-3], "weights")


def test_bd_oracle_doubled_rate_is_plus_100_percent():
    base = [(1000.0, 30.0), (1800.0, 33.0), (3100.0, 36.0), (5200.0, 39.0)]
    doubled = [(2.0 * r, p) for r, p in base]
    assert abs(checks.bd_rate_oracle(base, doubled) - 100.0) < 1e-9
    assert abs(checks.bd_rate_oracle(base, base)) < 1e-9


def test_bd_oracle_agrees_with_metrics_and_rejects_a_wrong_value():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = sorted(zip(np.sort(rng.uniform(100, 5000, 4)), np.sort(rng.uniform(28, 40, 4))))
        b = [(r * rng.uniform(0.5, 2.0), p + rng.uniform(-1, 1)) for r, p in a]
        b = sorted(b)
        if any(p2 <= p1 for (_, p1), (_, p2) in zip(b, b[1:])):
            continue
        value = metrics.bd_rate(metrics.curve(a), metrics.curve(b))
        checks.check_bd(a, b, value, "bd")
        with pytest.raises(checks.CheckFailed):
            checks.check_bd(a, b, value + 1e-5, "bd")


def test_psnr_check_rejects_a_wrong_value():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, (16, 16))
    b = np.clip(a + rng.integers(-3, 4, a.shape), 0, 255)
    checks.check_psnr(a, b, metrics.psnr(a, b), "psnr")
    with pytest.raises(checks.CheckFailed):
        checks.check_psnr(a, b, metrics.psnr(a, b) + 1e-6, "psnr")


def test_losses_check_rejects_non_finite():
    checks.check_losses([(0.1, 0.2, 0.3, 0.4, 1.0, 0.5)], "losses")
    with pytest.raises(checks.CheckFailed):
        checks.check_losses([(0.1, float("nan"), 0.3, 0.4, 1.0, 0.5)], "losses")


def test_gray_check_rejects_gray_and_accepts_source(coded):
    frames, _, _, _, _ = coded
    gray = [
        colorspace.Frame(
            f.y, colorspace.Plane(np.full_like(f.cb.samples, 128)),
            colorspace.Plane(np.full_like(f.cr.samples, 128)), f.mode,
        )
        for f in frames
    ]
    checks.check_beats_gray(frames, frames, [1, 3], "gray")
    with pytest.raises(checks.CheckFailed):
        checks.check_beats_gray(frames, gray, [1, 3], "gray")


def test_rectangle_scene_seed0_is_the_acceptance_sequence():
    frames = rectangle_scene(64, 64, 12, seed=0)
    rgb = np.full((64, 64, 3), 120, dtype=np.uint8)
    x, y, g = 33, 22, 3  # frame 11
    rgb[8 + y : 24 + y, x : x + 20] = (255, 32, 32)
    rgb[40:56, 64 - 24 - x : 64 - 4 - x] = (32, 32, 255)
    rgb[26 + g : 34 + g, 20:44] = (32, 200, 64)
    want = colorspace.rgb_to_ycbcr(rgb)
    assert all(
        np.array_equal(getattr(frames[11], p).samples, getattr(want, p).samples)
        for p in ("y", "cb", "cr")
    )


def test_tracer_restores_the_program_and_records_decode(coded):
    _, _, _, data, decoded = coded
    before = (T.conv2d, network.generator_forward, pipeline.upsample)
    tracer = tracing.Tracer()
    out = tracer.run("decode", lambda: pipeline.decode_sequence(pipeline.deserialize_video(data)))
    assert (T.conv2d, network.generator_forward, pipeline.upsample) == before
    assert all(np.array_equal(a.cb.samples, b.cb.samples) for a, b in zip(out, decoded))
    values = tracing.layer_metrics(tracer.spans, steps=0, colorized=2, frames=4)
    assert values["tensor.conv2d.decode_s"] > 0 and values["network.att1.decode_s"] > 0
    assert values["codec.decode_plane.s"] > 0 and values["tensor.conv2d.train_fwd_s"] == 0.0


def test_layer_metrics_cover_the_manifest():
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in manifest["per_layer"]}
    measured_apart = {"trainer.step.sys_s", "trainer.step.minflt", "trace.overhead_s"}
    measured_apart |= {f"pipeline.{part}_bits" for part in ("anchor", "luma", "model", "overhead")}
    assert set(tracing.layer_metrics([], steps=1, colorized=1, frames=1)) == names - measured_apart
    assert all(tracing.unit(m["name"]) == m["unit"] for m in manifest["per_layer"])
