"""Adversarial training of the colorizer on anchor-frame pairs.

Training data comes from the frames that travel with full chroma: the
luma input is the codec-decoded (lossy) plane, matching exactly what
the decoder-side generator will see, while the chroma target is
pristine. Each step optionally updates the discriminator, then updates
the generator on the weighted mixed objective. Everything is seeded, so a
(config, pairs, seed) triple always reproduces bit-identical weights on one
host and BLAS setting. Attention's query blocks run on several threads
when BLAS is pinned to one thread (see `tensor.attention`), and the
results do not depend on how many.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import codec, losses, network
from . import tensor as T
from .colorspace import Frame, SubsamplingMode
from .errors import ConfigError, NumericError


# Adam settings; learning rate and β1 as in DCGAN (Radford et al. 2016)
LEARNING_RATE = 2e-4
BETA1 = 0.5
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1
    seed: int = 0
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")


@dataclass(frozen=True)
class TrainingPair:
    """Decoded luma input and pristine chroma target, both in [-1, 1]."""

    luma: np.ndarray  # (1, 1, H, W)
    chroma: np.ndarray  # (1, 2, H, W)


class AdamState:
    """First/second moment buffers for one parameter list."""

    def __init__(self, tensors):
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]
        self.t = 0


def adam_step(tensors, state: AdamState) -> None:
    """One bias-corrected Adam update in place; missing grads count as zero."""
    state.t += 1
    correct1 = 1.0 - BETA1**state.t
    correct2 = 1.0 - BETA2**state.t
    for t, m, v in zip(tensors, state.m, state.v):
        g = t.grad if t.grad is not None else 0.0
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        t.data -= LEARNING_RATE * (m / correct1) / (np.sqrt(v / correct2) + EPSILON)


def build_training_set(frames, gop, qp: int):
    """Anchor-frame pairs: codec-decoded luma inputs, pristine chroma targets."""
    pairs = []
    for idx in gop.anchors:
        frame: Frame = frames[idx]
        if frame.mode is not SubsamplingMode.S444:
            raise ConfigError("training frames must be 4:4:4")
        w, h = frame.y.width, frame.y.height
        decoded = codec.decode_plane(codec.encode_plane(frame.y.samples, qp), (w, h), qp)
        luma = network.luma_to_unit(decoded)[None, None]
        chroma = np.stack(
            [
                network.chroma_to_unit(frame.cb.samples),
                network.chroma_to_unit(frame.cr.samples),
            ]
        )[None]
        pairs.append(TrainingPair(luma, chroma))
    return pairs


@dataclass
class StepRecord:
    step: int
    gan: float
    mse: float
    content: float
    color: float
    total: float
    disc: float


def history_to_csv(history) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "L_GAN", "L_MSE", "L_content", "L_color", "L_f", "L_D"])
    for rec in history:
        writer.writerow(
            [rec.step, rec.gan, rec.mse, rec.content, rec.color, rec.total, rec.disc]
        )
    return buf.getvalue()


def _check_finite(value: float, what: str, step: int) -> float:
    if not np.isfinite(value):
        raise NumericError(f"{what} became non-finite at step {step}")
    return value


def train(
    gen_store: dict[str, T.Tensor],
    disc_store: dict[str, T.Tensor],
    net_config: network.NetworkConfig,
    pairs,
    config: TrainConfig,
):
    """Run the alternating loop; mutates both stores, returns step history.

    Loss components whose weight is zero are skipped entirely (reported
    as 0.0). The discriminator trains only when the adversarial weight is
    positive: it is never saved, so otherwise it could not change the
    generator.
    """
    if not pairs:
        raise ConfigError("training needs at least one pair")
    w = config.weights
    extractor = losses.FeatureExtractor(seed=config.seed) if w.content > 0 else None
    # the extractor is frozen and the targets fixed: each pair's features once per call
    target_features = [extractor(T.Tensor(p.chroma)) for p in pairs] if extractor else []

    gen_params = list(gen_store.values())
    disc_params = list(disc_store.values())
    gen_state = AdamState(gen_params)
    disc_state = AdamState(disc_params)

    history = []
    for step in range(config.steps):
        pair = pairs[step % len(pairs)]
        luma_t = T.Tensor(pair.luma)
        target_t = T.Tensor(pair.chroma)

        gen_out = network.generator_forward(gen_store, net_config, luma_t)

        zero = T.Tensor(0.0)
        gan_term = zero
        d_loss_val = 0.0
        if w.gan > 0:
            real = T.concat([luma_t, target_t], axis=1)
            fake = T.concat([luma_t, gen_out.detach()], axis=1)
            d_loss = losses.discriminator_loss(
                network.discriminator_forward(disc_store, real),
                network.discriminator_forward(disc_store, fake),
            )
            d_loss_val = _check_finite(d_loss.item(), "discriminator loss", step)
            for t in disc_params:
                t.zero_grad()
            T.backward(d_loss)
            adam_step(disc_params, disc_state)

            # frozen: the generator step needs no discriminator weight gradients
            frozen = {k: v.detach() for k, v in disc_store.items()}
            d_fake = network.discriminator_forward(frozen, T.concat([luma_t, gen_out], axis=1))
            gan_term = losses.gan_loss(d_fake)
        mse_term = losses.mse_loss(gen_out, target_t) if w.mse > 0 else zero
        content_term = (
            losses.content_loss(extractor, gen_out, target_features[step % len(pairs)])
            if w.content > 0
            else zero
        )
        color_term = losses.color_loss(gen_out, target_t) if w.color > 0 else zero

        total, _ = losses.mixed_loss(w, gan_term, mse_term, content_term, color_term)
        _check_finite(total.item(), "generator loss", step)
        for t in gen_params:
            t.zero_grad()
        T.backward(total)
        adam_step(gen_params, gen_state)

        history.append(
            StepRecord(
                step,
                gan_term.item(),
                mse_term.item(),
                content_term.item(),
                color_term.item(),
                total.item(),
                d_loss_val,
            )
        )
    return history
