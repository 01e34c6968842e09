"""Optimizer arithmetic, training-set construction, and loop behavior."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from chromacodec import ConfigError, DimensionError, NumericError
from chromacodec import colorspace as cs
from chromacodec import losses, network, pipeline, trainer
from chromacodec import tensor as T

SRC = Path(__file__).resolve().parent.parent / "src"


def make_sequence(n, w=16, h=16, seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames


def snapshot(store):
    return {name: t.data.copy() for name, t in store.items()}


def stores_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a) and a.keys() == b.keys()


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        t = T.Tensor([1.0, 2.0], requires_grad=True)
        state = trainer.AdamState([t])
        trainer.adam_step([t], state)
        assert np.array_equal(t.data, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_closed_form(self):
        t = T.Tensor(5.0, requires_grad=True)
        t.grad = np.asarray(1.0)
        trainer.adam_step([t], trainer.AdamState([t]))
        # bias correction makes the first step exactly -lr/(1+eps)
        want = 5.0 - trainer.LEARNING_RATE / (1.0 + trainer.EPSILON)
        assert abs(float(t.data) - want) < 1e-15

    def test_moments_decay_without_gradient(self):
        t = T.Tensor(0.0, requires_grad=True)
        state = trainer.AdamState([t])
        t.grad = np.asarray(1.0)
        trainer.adam_step([t], state)
        m1 = state.m[0].copy()
        t.grad = None
        trainer.adam_step([t], state)
        assert float(state.m[0]) == float(m1) * trainer.BETA1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            trainer.TrainConfig(steps=-1)


class TestBuildTrainingSet:
    def test_gop6_12_frames_two_pairs(self):
        frames = make_sequence(12)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(12, 6), qp=32)
        assert len(pairs) == 2

    def test_gop6_13_frames_three_pairs(self):
        frames = make_sequence(13)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(13, 6), qp=32)
        assert len(pairs) == 3

    def test_gop_must_cover_every_frame(self):
        with pytest.raises(DimensionError, match="covers 12 frames, got 1"):
            trainer.build_training_set(make_sequence(1), pipeline.split_gops(12, 6), qp=32)

    def test_420_frame_is_config_error(self):
        frames = [cs.subsample(make_sequence(1)[0])]
        with pytest.raises(ConfigError, match="expected 4:4:4"):
            trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=32)

    def test_input_is_lossy(self):
        frames = make_sequence(1, seed=3)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=37)
        pristine = network.luma_to_unit(frames[0].y.samples)[None, None]
        assert not np.array_equal(pairs[0].luma, pristine)

    def test_target_is_pristine(self):
        frames = make_sequence(1, seed=4)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=37)
        want = network.chroma_to_unit(frames[0].cb.samples)
        assert np.array_equal(pairs[0].chroma[0, 0], want)

    def test_ranges(self):
        frames = make_sequence(1, seed=5)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=27)
        assert pairs[0].luma.min() >= -1.0 and pairs[0].luma.max() <= 1.0
        assert pairs[0].chroma.min() >= -1.0 and pairs[0].chroma.max() <= 1.0


def tiny_setup(w=16, h=16, seed=0, **cfg_kw):
    net_cfg = network.NetworkConfig(width=w, height=h, base_channels=8)
    gen = network.init_generator(net_cfg, seed)
    disc = network.init_discriminator(net_cfg, seed + 1)
    frames = make_sequence(1, w=w, h=h, seed=seed)
    pairs = trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=32)
    return net_cfg, gen, disc, pairs


class TestTrainLoop:
    def test_zero_steps_leaves_weights(self):
        net_cfg, gen, disc, pairs = tiny_setup(seed=10)
        before_g, before_d = snapshot(gen), snapshot(disc)
        history = trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=0))
        assert history == []
        assert stores_equal(snapshot(gen), before_g)
        assert stores_equal(snapshot(disc), before_d)

    def test_history_length_and_fields(self):
        net_cfg, gen, disc, pairs = tiny_setup(seed=11)
        history = trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=3))
        assert len(history) == 3
        assert [r.step for r in history] == [0, 1, 2]
        assert all(np.isfinite(r.total) for r in history)

    def test_loss_decreases_over_50_steps(self):
        net_cfg = network.NetworkConfig(width=32, height=32, base_channels=8)
        gen = network.init_generator(net_cfg, 7)
        disc = network.init_discriminator(net_cfg, 8)
        frames = make_sequence(1, w=32, h=32, seed=7)
        pairs = trainer.build_training_set(frames, pipeline.split_gops(1, 6), qp=32)
        history = trainer.train(
            gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=50, seed=7)
        )
        assert history[-1].total < history[0].total

    def test_deterministic_trajectories(self):
        finals = []
        for _ in range(2):
            net_cfg, gen, disc, pairs = tiny_setup(seed=12)
            trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=4, seed=12))
            finals.append((snapshot(gen), snapshot(disc)))
        assert stores_equal(finals[0][0], finals[1][0])
        assert stores_equal(finals[0][1], finals[1][1])

    def test_64x64_step_does_not_depend_on_attention_workers(self, monkeypatch):
        blobs = []
        for workers in (1, 2):
            monkeypatch.setattr(T, "_WORKERS", workers)
            net_cfg, gen, disc, pairs = tiny_setup(w=64, h=64, seed=14)
            trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=1, seed=14))
            blobs.append(network.serialize_weights(gen, net_cfg))
        assert blobs[0] == blobs[1]

    def test_content_targets_extracted_once_per_call(self, monkeypatch):
        net_cfg, gen, disc, _ = tiny_setup(seed=13)
        pairs = trainer.build_training_set(make_sequence(7, seed=13), pipeline.split_gops(7, 6), qp=32)
        assert len(pairs) == 2
        calls = []
        extract = losses.FeatureExtractor.__call__

        def counted(self, x):
            calls.append(x.requires_grad)
            return extract(self, x)

        monkeypatch.setattr(losses.FeatureExtractor, "__call__", counted)
        trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=5))
        # each pair's fixed target once, then each step's generated chroma
        assert calls == [False, False] + [True] * 5

    def test_nonfinite_aborts_with_step_index(self):
        net_cfg, gen, disc, pairs = tiny_setup(seed=13)
        gen["head.w"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="step 0"):
            trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=1))

    def test_empty_pairs_rejected(self):
        net_cfg, gen, disc, _ = tiny_setup(seed=14)
        with pytest.raises(ConfigError):
            trainer.train(gen, disc, net_cfg, [], trainer.TrainConfig(steps=1))

    def test_pure_mse_converges_on_constant_chroma(self):
        # optimizer sanity floor: fit a constant-chroma target with MSE alone
        net_cfg = network.NetworkConfig(width=8, height=8, base_channels=8)
        gen = network.init_generator(net_cfg, 21)
        disc = network.init_discriminator(net_cfg, 22)
        rng = np.random.default_rng(21)
        luma = rng.uniform(-1, 1, (1, 1, 8, 8))
        chroma = np.full((1, 2, 8, 8), 0.2)
        pairs = [trainer.TrainingPair(luma, chroma)]
        cfg = trainer.TrainConfig(steps=400, weights=losses.LossWeights(0.0, 1.0, 0.0, 0.0))
        history = trainer.train(gen, disc, net_cfg, pairs, cfg)
        assert min(r.total for r in history) < 1e-3

    def test_zero_adversarial_weight_leaves_discriminator(self):
        # the discriminator is never saved, so without L_GAN it must not train
        net_cfg, gen, disc, pairs = tiny_setup(seed=16)
        before_g, before_d = snapshot(gen), snapshot(disc)
        cfg = trainer.TrainConfig(steps=2, weights=losses.LossWeights(0.0, 100.0, 0.0, 0.0))
        history = trainer.train(gen, disc, net_cfg, pairs, cfg)
        assert stores_equal(snapshot(disc), before_d)
        assert not stores_equal(snapshot(gen), before_g)
        assert [r.disc for r in history] == [0.0, 0.0]

    def test_discriminator_gradient_is_its_own_loss_only(self):
        # the generator step runs the discriminator frozen, so it adds no
        # gradient to the discriminator's weights
        net_cfg, gen, disc, pairs = tiny_setup(seed=17)
        gen0 = {k: T.Tensor(v.data.copy(), requires_grad=True) for k, v in gen.items()}
        disc0 = {k: T.Tensor(v.data.copy(), requires_grad=True) for k, v in disc.items()}
        trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=1))
        luma, chroma = T.Tensor(pairs[0].luma), T.Tensor(pairs[0].chroma)
        fake = network.generator_forward(gen0, net_cfg, luma).detach()
        T.backward(
            losses.discriminator_loss(
                network.discriminator_forward(disc0, T.concat([luma, chroma], axis=1)),
                network.discriminator_forward(disc0, T.concat([luma, fake], axis=1)),
            )
        )
        for name, t in disc.items():
            assert np.array_equal(t.grad, disc0[name].grad), name

    def test_176x144_training_peaks_under_90_mb(self):
        # VmHWM of a fresh process: two steps at the README size with
        # attention off (229 MB when backward kept the whole graph, 108 MB
        # when the graph kept every op output until backward; 71 MB now)
        code = textwrap.dedent("""
            import numpy as np
            from chromacodec import colorspace as cs, network, pipeline, trainer

            def frame(i):  # moving rectangles, laid out on a 64×64 grid
                rgb = np.full((144, 176, 3), 120, dtype=np.uint8)
                x, y, g = (3 * i) % 44, (2 * i) % 36, i % 8
                for (y0, y1, x0, x1), color in (
                    ((8 + y, 24 + y, x, x + 20), (255, 32, 32)),
                    ((40, 56, 40 - x, 60 - x), (32, 32, 255)),
                    ((26 + g, 34 + g, 20, 44), (32, 200, 64)),
                ):
                    rgb[round(y0 * 2.25) : round(y1 * 2.25), round(x0 * 2.75) : round(x1 * 2.75)] = color
                return cs.rgb_to_ycbcr(rgb)

            config = network.NetworkConfig(176, 144, use_attention=False)
            pairs = trainer.build_training_set(
                [frame(i) for i in range(12)], pipeline.split_gops(12, 6), qp=32
            )
            trainer.train(
                network.init_generator(config, seed=0), network.init_discriminator(config, seed=0),
                config, pairs, trainer.TrainConfig(steps=2),
            )
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) * 1024 < 90e6  # VmHWM is in KiB

    def test_csv_export(self):
        net_cfg, gen, disc, pairs = tiny_setup(seed=15)
        history = trainer.train(gen, disc, net_cfg, pairs, trainer.TrainConfig(steps=2))
        text = trainer.history_to_csv(history)
        lines = text.strip().splitlines()
        assert lines[0] == "step,L_GAN,L_MSE,L_content,L_color,L_f,L_D"
        assert len(lines) == 3
