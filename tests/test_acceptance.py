"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints "[criterion NN] PASS|FAIL: label" so a verbose run reads
as a checklist. Tolerances are asserted exactly as stated in the criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from chromacodec import DataError, codec
from chromacodec import colorspace as cs
from chromacodec import losses, metrics, network, pipeline, trainer
from chromacodec import tensor as T

import rd_reference as ref
from test_metrics import oracle_avg_diff, random_curve_pair


class criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.num:02d}] {status}: {self.label}")
        return False


def signed_away_from_zero(rng, shape, low=0.1, high=1.0):
    """Random values with |x| >= low, keeping kink points out of reach."""
    return rng.uniform(low, high, shape) * rng.choice([-1.0, 1.0], shape)


def tiny_config(**kw):
    return network.NetworkConfig(width=16, height=16, base_channels=8, **kw)


def test_criterion_01_gradient_suite():
    with criterion(1, "finite-difference gradients: ops <= 1e-4, networks <= 1e-3, < 2 min"):
        start = time.monotonic()
        rng = np.random.default_rng(101)

        def tensors(*shapes, positive=False, spread=False):
            out = []
            for s in shapes:
                if positive:
                    data = rng.uniform(0.2, 2.0, s)
                elif spread:
                    data = signed_away_from_zero(rng, s)
                else:
                    data = rng.standard_normal(s)
                out.append(T.Tensor(data, requires_grad=True))
            return out

        checks = []

        a, b = tensors((3, 4), (3, 4))
        checks.append(("add", lambda: T.grad_check(lambda x, y: x + y, [a, b], seed=1)))
        checks.append(("sub", lambda: T.grad_check(lambda x, y: x - y, [a, b], seed=2)))
        checks.append(("mul", lambda: T.grad_check(lambda x, y: x * y, [a, b], seed=3)))
        checks.append(("scale", lambda: T.grad_check(lambda x: T.scale(x, 1.7), [a], seed=4)))
        checks.append(("square", lambda: T.grad_check(T.square, [a], seed=5)))
        checks.append(
            ("concat", lambda: T.grad_check(lambda x, y: T.concat([x, y], 1), [a, b], seed=6))
        )
        checks.append(("mean", lambda: T.grad_check(T.mean, [a], seed=7)))
        checks.append(("tsum", lambda: T.grad_check(T.tsum, [a], seed=8)))
        (c,) = tensors((4, 5), spread=True)
        checks.append(("l1_norm", lambda: T.grad_check(T.l1_norm, [c], seed=9)))
        checks.append(("l2_norm", lambda: T.grad_check(T.l2_norm, [c], seed=10)))
        checks.append(("relu", lambda: T.grad_check(T.relu, [c], seed=11)))
        checks.append(("leaky_relu", lambda: T.grad_check(T.leaky_relu, [c], seed=12)))
        checks.append(("sigmoid", lambda: T.grad_check(T.sigmoid, [a], seed=13)))
        checks.append(("tanh", lambda: T.grad_check(T.tanh, [a], seed=14)))
        (p,) = tensors((3, 4), positive=True)
        checks.append(("log_floor", lambda: T.grad_check(T.log_floor, [p], seed=15)))
        checks.append(("softmax", lambda: T.grad_check(T.softmax, [a], seed=16)))
        checks.append(
            ("reshape", lambda: T.grad_check(lambda x: T.reshape(x, (2, 6)), [a], seed=17))
        )
        m1, m2 = tensors((2, 3, 4), (2, 4, 5))
        checks.append(("transpose", lambda: T.grad_check(T.transpose_last2, [m1], seed=18)))
        checks.append(("matmul", lambda: T.grad_check(T.matmul, [m1, m2], seed=19)))
        x, w, bias = tensors((2, 3, 6, 6), (4, 3, 3, 3), (4,))
        checks.append(
            ("conv2d", lambda: T.grad_check(
                lambda *t: T.conv2d(t[0], t[1], t[2], 1, 1), [x, w, bias], seed=20
            ))
        )
        xt, wt, bt = tensors((1, 3, 5, 5), (3, 2, 2, 2), (2,))
        checks.append(
            ("conv_transpose2d", lambda: T.grad_check(
                lambda *t: T.conv_transpose2d(t[0], t[1], t[2], 2), [xt, wt, bt], seed=21
            ))
        )
        (mp,) = tensors((1, 2, 6, 6))
        checks.append(("maxpool2", lambda: T.grad_check(T.maxpool2, [mp], seed=22)))
        qf, kg, vh = tensors((1, 2, 37), (1, 2, 37), (1, 3, 37))
        checks.append(("attention", lambda: T.grad_check(T.attention, [qf, kg, vh], seed=24)))
        (sx,) = tensors((1, 2, 6, 7))
        taps = np.array([0.3, -1.2, 0.7, 2.0, 0.1])
        checks.append(
            ("separable_filter", lambda: T.grad_check(
                lambda x: T.separable_filter(x, taps), [sx], seed=27
            ))
        )

        worst_op = 0.0
        for name, run in checks:
            err = run()
            worst_op = max(worst_op, err)
            assert err <= 1e-4, f"{name} gradient error {err:.3e}"

        cfg = tiny_config()
        gen = network.init_generator(cfg, seed=23)
        luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)), requires_grad=True)
        gen_params = [
            gen["m1.c1.w"], gen["m3.c2.w"], gen["rc2.b1.f3.w"], gen["rc4.glrc.w"],
            gen["att4.gain"], gen["up2.w"], gen["head.w"], luma,
        ]

        def gen_fn(*_):
            return T.mean(T.square(network.generator_forward(gen, cfg, luma)))

        gen_err = T.grad_check(gen_fn, gen_params, seed=24, max_coords=8)
        assert gen_err <= 1e-3, f"generator gradient error {gen_err:.3e}"

        disc = network.init_discriminator(cfg, seed=25)
        img = T.Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)), requires_grad=True)
        disc_params = [disc["c1.w"], disc["c3.w"], disc["c5.w"], disc["c5.b"], img]

        def disc_fn(*_):
            return T.mean(network.discriminator_forward(disc, img))

        disc_err = T.grad_check(disc_fn, disc_params, seed=26, max_coords=8)
        assert disc_err <= 1e-3, f"discriminator gradient error {disc_err:.3e}"

        elapsed = time.monotonic() - start
        assert elapsed <= 120.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_02_attention_identity():
    with criterion(2, "zero-gain attention is a bit-exact identity, matching the no-attention arm"):
        cfg = tiny_config()
        store = network.init_generator(cfg, seed=31)
        rng = np.random.default_rng(31)
        x = T.Tensor(rng.standard_normal((1, 8, 8, 8)))
        out = network.self_attention(store, "att1", x)
        assert np.array_equal(out.data, x.data)

        plain_cfg = tiny_config(use_attention=False)
        plain = network.init_generator(plain_cfg, seed=31)
        luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
        with_attention = network.generator_forward(store, cfg, luma)
        without = network.generator_forward(plain, plain_cfg, luma)
        assert np.array_equal(with_attention.data, without.data)


def test_criterion_03_residual_chain_ablation():
    with criterion(3, "zeroed residual blocks leave the long-skip branch; toggle splits the arms"):
        cfg = tiny_config()
        store = network.init_generator(cfg, seed=32)
        for j in range(1, 5):
            for leaf in ("f3.w", "f3.b", "f1.w", "f1.b"):
                store[f"rc1.b{j}.{leaf}"].data[:] = 0.0
        rng = np.random.default_rng(32)
        x = T.Tensor(rng.standard_normal((1, 8, 8, 8)))
        out = network.optimized_rc(store, "rc1", x, use_glrc=True)
        glrc_only = T.conv2d(x, store["rc1.glrc.w"], store["rc1.glrc.b"])
        assert np.array_equal(out.data, glrc_only.data)

        bare_cfg = tiny_config(use_glrc=False)
        bare = network.init_generator(bare_cfg, seed=33)
        assert "rc1.glrc.w" not in bare and "rc4.glrc.w" not in bare
        full = network.init_generator(tiny_config(), seed=33)
        assert "rc1.glrc.w" in full
        luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
        arm_a = network.generator_forward(full, tiny_config(), luma)
        arm_b = network.generator_forward(bare, bare_cfg, luma)
        assert arm_a.shape == arm_b.shape == (1, 2, 16, 16)
        assert np.all(np.isfinite(arm_a.data)) and np.all(np.isfinite(arm_b.data))
        assert not np.array_equal(arm_a.data, arm_b.data)


def test_criterion_04_loss_identities():
    with criterion(4, "self-comparisons are exactly zero; unit components mix to 1201"):
        rng = np.random.default_rng(33)
        x = T.Tensor(rng.uniform(-1, 1, (1, 2, 12, 12)))
        assert losses.mse_loss(x, x).item() == 0.0
        extractor = losses.FeatureExtractor(seed=33)
        assert losses.content_loss(extractor, x, extractor(x)).item() == 0.0
        assert losses.color_loss(x, x, theta_gen=0.065, theta_target=0.065).item() == 0.0
        unit = [T.Tensor(1.0) for _ in range(4)]
        total = losses.mixed_loss(losses.LossWeights(), *unit)
        assert total.item() == 1201.0


def test_criterion_05_volume_ratio():
    with criterion(5, "luma-only raw volume is exactly 2/3 of 4:2:0 for even dims"):
        for w, h in [(2, 2), (16, 16), (64, 48), (176, 144), (1280, 720)]:
            v400 = cs.mode_volume(w, h, cs.SubsamplingMode.S400)
            v420 = cs.mode_volume(w, h, cs.SubsamplingMode.S420)
            assert 3 * v400 == 2 * v420, (w, h)


def test_criterion_06_codec_properties():
    with criterion(6, "entropy round trip, QP-monotone bitrate, bounded block distortion"):
        rng = np.random.default_rng(66)
        symbols = rng.integers(0, 100_000, 10_000)
        writer = codec.BitWriter()
        for v in symbols:
            codec.exp_golomb_write(writer, int(v))
        payload = writer.payload()
        reader = codec.BitReader(payload.data, payload.bit_length)
        decoded = [codec.exp_golomb_read(reader) for _ in symbols]
        assert decoded == [int(v) for v in symbols]
        with pytest.raises(DataError):
            reader.read(1)

        plane = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        bits = []
        for qp in (27, 32, 37, 42):
            enc = codec.encode_plane(plane, qp)
            bits.append(enc.bit_length)
            out = codec.decode_plane(enc, (64, 64), qp)
            bound = (codec.qstep(qp) / 2.0) ** 2 + 0.5
            err = (out.astype(float) - plane.astype(float)) ** 2
            block_mse = err.reshape(8, 8, 8, 8).mean(axis=(1, 3))
            assert np.all(block_mse <= bound), f"qp {qp}: worst block {block_mse.max():.2f}"
        assert bits[0] > bits[1] > bits[2] > bits[3]


def test_criterion_07_bd_oracle():
    with criterion(7, "BD identities and 1e-6 agreement with a numeric integration oracle"):
        base = metrics.curve(ref.anchor_points("Johnny"))
        assert abs(metrics.bd_psnr(base, base)) < 1e-9
        assert abs(metrics.bd_rate(base, base)) < 1e-6
        shifted = metrics.curve([(p.bitrate, p.psnr + 1.0, p.qp) for p in base.points])
        assert abs(metrics.bd_psnr(base, shifted) - 1.0) < 1e-6
        doubled = metrics.curve([(2.0 * p.bitrate, p.psnr, p.qp) for p in base.points])
        assert abs(metrics.bd_rate(base, doubled) - 100.0) < 0.1
        rng = np.random.default_rng(77)
        for _ in range(100):
            a, b = random_curve_pair(rng)
            want = oracle_avg_diff(np.log10(a.bitrates), a.psnrs, np.log10(b.bitrates), b.psnrs)
            assert abs(metrics.bd_psnr(a, b) - want) < 1e-6
            want_rate = (
                10.0 ** oracle_avg_diff(
                    a.psnrs, np.log10(a.bitrates), b.psnrs, np.log10(b.bitrates)
                ) - 1.0
            ) * 100.0
            assert abs(metrics.bd_rate(a, b) - want_rate) < 1e-6


def test_criterion_08_published_table_arithmetic():
    with criterion(8, "published per-row deltas within 0.01 and Silent BD within 0.5% / 0.05 dB"):
        for seq, qp, br_o, ps_o, br_p, ps_p, dbr, dpsnr in ref.ROWS:
            anchor = metrics.RDPoint(br_o, ps_o, qp)
            proposed = metrics.RDPoint(br_p, ps_p, qp)
            assert abs(metrics.delta_br(proposed, anchor) - dbr) <= 0.01, (seq, qp)
            assert abs(metrics.delta_psnr(proposed, anchor) - dpsnr) <= 0.01, (seq, qp)
        anchor = metrics.curve(ref.anchor_points("Silent"))
        proposed = metrics.curve(ref.proposed_points("Silent"))
        bdbr, bdpsnr = ref.BD_TABLE["Silent"]
        assert abs(metrics.bd_rate(anchor, proposed) - bdbr) < 0.5
        assert abs(metrics.bd_psnr(anchor, proposed) - bdpsnr) < 0.05


def desk_scale_frames(n=12, size=64):
    """Moving constant-hue rectangles over a neutral background."""
    frames = []
    for i in range(n):
        rgb = np.full((size, size, 3), 120, dtype=np.uint8)
        x = (3 * i) % (size - 20)
        y = (2 * i) % (size - 28)
        rgb[8 + y : 24 + y, x : x + 20] = (255, 32, 32)
        rgb[40:56, size - 24 - x : size - 4 - x] = (32, 32, 255)
        g = i % 8
        rgb[26 + g : 34 + g, 20:44] = (32, 200, 64)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames


def test_criterion_09_desk_scale_end_to_end():
    with criterion(9, "desk-scale run: loss halves, colorizer beats gray, container round trips"):
        start = time.monotonic()
        frames = desk_scale_frames()
        qp = 32
        gop = pipeline.split_gops(len(frames), 6)
        pairs = trainer.build_training_set(frames, gop, qp)
        net_config = network.NetworkConfig(width=64, height=64, base_channels=8)
        gen = network.init_generator(net_config, seed=0)
        disc = network.init_discriminator(net_config, seed=0)
        train_config = trainer.TrainConfig(steps=150, seed=0)
        history = trainer.train(gen, disc, net_config, pairs, train_config)

        initial = np.mean([r.total for r in history[:2]])
        final = np.mean([r.total for r in history[-2:]])
        assert final <= 0.5 * initial, f"loss {initial:.3f} -> {final:.3f}"

        video, _ = pipeline.encode_sequence(frames, qp, gop, gen, net_config)
        blob = pipeline.serialize_video(video)
        reread = pipeline.deserialize_video(blob)
        assert pipeline.serialize_video(reread) == blob

        decoded = pipeline.decode_sequence(reread)
        for i, (src, out) in enumerate(zip(frames, decoded)):
            if gop.is_anchor(i):
                continue
            for name in ("cb", "cr"):
                s = getattr(src, name).samples.astype(float)
                o = getattr(out, name).samples.astype(float)
                mse_gen = float(np.mean((s - o) ** 2))
                mse_gray = float(np.mean((s - 128.0) ** 2))
                assert mse_gen < mse_gray, f"frame {i} {name}: {mse_gen:.1f} vs {mse_gray:.1f}"

        elapsed = time.monotonic() - start
        assert elapsed <= 1800.0, f"desk-scale run took {elapsed:.0f}s"


def test_criterion_10_scale_disclosure_and_ablations():
    with criterion(10, "reference-scale results are declared out of reach; ablation arms run"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "-72.05" in text and "4.758" in text
        assert "not reproducible" in text.lower()

        rng = np.random.default_rng(110)
        luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
        for use_attention in (True, False):
            for use_glrc in (True, False):
                cfg = tiny_config(use_attention=use_attention, use_glrc=use_glrc)
                store = network.init_generator(cfg, seed=40)
                out = network.generator_forward(store, cfg, luma)
                assert np.all(np.isfinite(out.data))

        frames = [cs.rgb_to_ycbcr(rng.integers(0, 256, (16, 16, 3)).astype(np.uint8))
                  for _ in range(2)]
        gop = pipeline.split_gops(2, 2)
        pairs = trainer.build_training_set(frames, gop, 32)
        for name in sorted(losses.LOSS_GROUPS):
            cfg = tiny_config()
            gen = network.init_generator(cfg, seed=41)
            disc = network.init_discriminator(cfg, seed=41)
            tc = trainer.TrainConfig(steps=1, seed=41, weights=losses.LOSS_GROUPS[name])
            history = trainer.train(gen, disc, cfg, pairs, tc)
            assert len(history) == 1 and math.isfinite(history[0].total), name
