"""Loss term identities, kernel values, and mixing arithmetic."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chromacodec import ConfigError, DimensionError
from chromacodec import losses as L
from chromacodec import tensor as T

SRC = Path(__file__).resolve().parent.parent / "src"


def two_filter_color_loss(gen, target, theta_gen=0.062, theta_target=0.065):
    """Reference: the paper's form, each image filtered with its own dense kernel grid."""
    def blur(x, theta):
        c = x.shape[1]
        w = np.zeros((c, c, 21, 21))
        for i in range(c):
            w[i, i] = L.gaussian_kernel(theta)
        return T.conv2d(x, T.Tensor(w), T.Tensor(np.zeros(c)), stride=1, padding=10)

    return T.mean(T.square(blur(gen, theta_gen) - blur(target, theta_target)))


class TestGanLoss:
    def test_confident_real_gives_zero(self):
        assert L.gan_loss(T.Tensor(np.ones((1, 1, 4, 4)))).item() == 0.0

    def test_one_over_e_gives_one(self):
        val = L.gan_loss(T.Tensor(np.full((1, 1, 4, 4), 1.0 / np.e))).item()
        assert abs(val - 1.0) < 1e-12

    def test_half_gives_ln2(self):
        val = L.gan_loss(T.Tensor(np.full((2, 3), 0.5))).item()
        assert abs(val - np.log(2.0)) < 1e-12

    def test_zero_guarded(self):
        val = L.gan_loss(T.Tensor(np.zeros((2, 2)))).item()
        assert np.isfinite(val)

    def test_gradient(self):
        err = T.grad_check(
            lambda d: L.gan_loss(T.sigmoid(d)), [(1, 1, 3, 3)], seed=1
        )
        assert err < 1e-4


class TestDiscriminatorLoss:
    def test_perfect_split_gives_zero(self):
        val = L.discriminator_loss(
            T.Tensor(np.ones((2, 2))), T.Tensor(np.zeros((2, 2)))
        ).item()
        assert val == 0.0

    def test_coin_flip_gives_two_ln2(self):
        half = np.full((2, 2), 0.5)
        val = L.discriminator_loss(T.Tensor(half), T.Tensor(half)).item()
        assert abs(val - 2.0 * np.log(2.0)) < 1e-12

    def test_gradient_pushes_fake_down(self):
        fake = T.Tensor(np.full((2, 2), 0.4), requires_grad=True)
        T.backward(L.discriminator_loss(T.Tensor(np.full((2, 2), 0.9)), fake))
        assert np.all(fake.grad > 0.0)

    def test_gradient(self):
        err = T.grad_check(
            lambda r, f: L.discriminator_loss(T.sigmoid(r), T.sigmoid(f)),
            [(1, 1, 3, 3), (1, 1, 3, 3)],
            seed=2,
        )
        assert err < 1e-4


class TestMseLoss:
    def test_identity_zero(self):
        x = T.Tensor(np.arange(12.0).reshape(3, 4))
        assert L.mse_loss(x, x).item() == 0.0

    def test_constant_difference(self):
        a = T.Tensor(np.zeros((5, 5)))
        b = T.Tensor(np.ones((5, 5)))
        assert L.mse_loss(a, b).item() == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        want = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(6)
        ) / 24.0
        got = L.mse_loss(T.Tensor(a), T.Tensor(b)).item()
        assert abs(got - want) < 1e-12

    def test_gradient(self):
        err = T.grad_check(lambda a, b: L.mse_loss(a, b), [(2, 3), (2, 3)], seed=4)
        assert err < 1e-4


class TestGaussianKernel:
    def test_center_is_theta(self):
        k = L.gaussian_kernel(0.062)
        assert k[10, 10] == 0.062
        k2 = L.gaussian_kernel(0.065)
        assert k2[10, 10] == 0.065

    def test_neighbor_ratio(self):
        k = L.gaussian_kernel(0.062)
        ratio = k[11, 10] / k[10, 10]
        assert abs(ratio - np.exp(-1.0 / 6.0)) < 1e-12

    def test_all_positive_and_unnormalized(self):
        k = L.gaussian_kernel(0.062)
        assert np.all(k > 0.0)
        assert abs(k.sum() - 1.0) > 0.1

    def test_default_size(self):
        assert L.gaussian_kernel(0.062).shape[0] == 21


class TestColorLoss:
    def test_zero_inputs(self):
        z = T.Tensor(np.zeros((1, 2, 8, 8)))
        assert L.color_loss(z, z).item() == 0.0

    def test_equal_inputs_equal_thetas(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.standard_normal((1, 2, 8, 8)))
        assert L.color_loss(x, x, theta_gen=0.062, theta_target=0.062).item() == 0.0

    def test_equal_inputs_default_thetas_positive(self):
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.uniform(0.1, 1.0, (1, 2, 8, 8)))
        assert L.color_loss(x, x).item() > 0.0

    def test_symmetric_when_thetas_match(self):
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.standard_normal((1, 2, 8, 8)))
        b = T.Tensor(rng.standard_normal((1, 2, 8, 8)))
        ab = L.color_loss(a, b, theta_gen=0.07, theta_target=0.07).item()
        ba = L.color_loss(b, a, theta_gen=0.07, theta_target=0.07).item()
        assert abs(ab - ba) < 1e-15

    def test_gradient(self):
        err = T.grad_check(L.color_loss, [(1, 2, 6, 6), (1, 2, 6, 6)], seed=8)
        assert err < 1e-4


class TestColorLossReference:
    @pytest.mark.parametrize("shape", [(1, 2, 24, 40), (1, 2, 144, 176)])
    def test_matches_two_filter_form(self, shape):
        rng = np.random.default_rng(shape[2])
        gen_data = rng.uniform(-1, 1, shape)
        target = T.Tensor(rng.uniform(-1, 1, shape))
        results = []
        for fn in (L.color_loss, two_filter_color_loss):
            gen = T.Tensor(gen_data, requires_grad=True)
            loss = fn(gen, target)
            T.backward(loss)
            results.append((loss.data, gen.grad))
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(1, 2, 8, 4096), (1, 2, 4096, 8)])
    def test_peak_memory_linear_in_pixels(self, shape):
        # a few padded copies of the input at most, at either aspect ratio;
        # a dense H×H or W×W filter matrix grows with the square of one side
        rng = np.random.default_rng(31)
        gen = T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        target = T.Tensor(rng.uniform(-1, 1, shape))
        tracemalloc.start()
        try:
            T.backward(L.color_loss(gen, target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * gen.data.nbytes

    def test_176x144_peaks_under_150_mb(self):
        # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts from this
        # process's own peak, which the 176×144 dense reference above raises
        code = textwrap.dedent("""
            import numpy as np
            from chromacodec import losses, tensor as T
            rng = np.random.default_rng(0)
            gen = T.Tensor(rng.uniform(-1, 1, (1, 2, 144, 176)), requires_grad=True)
            T.backward(losses.color_loss(gen, T.Tensor(rng.uniform(-1, 1, (1, 2, 144, 176)))))
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) * 1024 < 150e6  # VmHWM is in KiB


class TestContentLoss:
    def test_identity_extractor_constant_diff(self):
        a = T.Tensor(np.zeros((1, 2, 4, 4)))
        b = T.Tensor(np.full((1, 2, 4, 4), 2.0))
        assert L.content_loss(lambda x: x, a, b).item() == 2.0

    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(9)
        ext = L.FeatureExtractor(seed=0)
        x = T.Tensor(rng.standard_normal((1, 2, 16, 16)))
        assert L.content_loss(ext, x, ext(x)).item() == 0.0

    def test_target_gets_no_gradient(self):
        rng = np.random.default_rng(10)
        ext = L.FeatureExtractor(seed=0)
        gen = T.Tensor(rng.standard_normal((1, 2, 16, 16)), requires_grad=True)
        tgt = T.Tensor(rng.standard_normal((1, 2, 16, 16)), requires_grad=True)
        T.backward(L.content_loss(ext, gen, ext(tgt)))
        assert gen.grad is not None and np.any(gen.grad != 0.0)
        assert tgt.grad is None

    def test_feature_shape_mismatch_raises(self):
        ext = L.FeatureExtractor(seed=0)
        gen = T.Tensor(np.zeros((1, 2, 16, 16)))
        with pytest.raises(DimensionError):
            L.content_loss(ext, gen, ext(T.Tensor(np.zeros((1, 2, 32, 32)))))

    def test_gradient_wrt_gen(self):
        ext = L.FeatureExtractor(seed=0)
        rng = np.random.default_rng(11)
        ft = ext(T.Tensor(rng.standard_normal((1, 2, 16, 16))))
        err = T.grad_check(lambda g: L.content_loss(ext, g, ft), [(1, 2, 16, 16)], seed=12)
        assert err < 1e-4


class TestMixedLoss:
    def unit_components(self):
        return [T.Tensor(1.0) for _ in range(4)]

    def test_default_weights_give_1201(self):
        total = L.mixed_loss(L.LossWeights(), *self.unit_components())
        assert total.item() == 1201.0

    def test_all_zero(self):
        zeros = [T.Tensor(0.0) for _ in range(4)]
        total = L.mixed_loss(L.LossWeights(), *zeros)
        assert total.item() == 0.0

    def test_gan_only(self):
        total = L.mixed_loss(
            L.LossWeights(1.0, 0.0, 0.0, 0.0),
            T.Tensor(0.7),
            T.Tensor(9.0),
            T.Tensor(9.0),
            T.Tensor(9.0),
        )
        assert abs(total.item() - 0.7) < 1e-15

    def test_linearity_in_each_component(self):
        rng = np.random.default_rng(13)
        vals = rng.uniform(0.1, 2.0, 4)
        weights = L.LossWeights(*rng.uniform(0.0, 10.0, 4))
        total = L.mixed_loss(weights, *(T.Tensor(v) for v in vals))
        want = (
            weights.gan * vals[0]
            + weights.mse * vals[1]
            + weights.content * vals[2]
            + weights.color * vals[3]
        )
        assert abs(total.item() - want) < 1e-12

    def test_groups_table(self):
        assert L.LOSS_GROUPS["G1"] == L.LossWeights(1.0, 100.0, 0.0, 0.0)
        assert L.LOSS_GROUPS["G2"] == L.LossWeights(1.0, 100.0, 0.0, 100.0)
        assert L.LOSS_GROUPS["G3"] == L.LossWeights(1.0, 100.0, 1000.0, 0.0)
        assert L.LOSS_GROUPS["G4"] == L.LossWeights(1.0, 100.0, 1000.0, 100.0)
        assert L.LOSS_GROUPS["G4"] == L.LossWeights()

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            L.LossWeights(-1.0, 0.0, 0.0, 0.0)

    def test_gradient_through_mix(self):
        # target is held constant: the content term detaches it by design
        rng = np.random.default_rng(99)
        b = T.Tensor(rng.standard_normal((1, 2, 4, 4)))

        def fn(a):
            total = L.mixed_loss(
                L.LossWeights(),
                L.gan_loss(T.sigmoid(a)),
                L.mse_loss(a, b),
                L.content_loss(lambda x: x, a, b),
                L.color_loss(a, b),
            )
            return total

        err = T.grad_check(fn, [(1, 2, 4, 4)], seed=14)
        assert err < 1e-4
