"""Output checks, computed apart from the program wherever possible.

Each check raises `CheckFailed` with a message naming what broke. The
bounds come from properties of the method (an orthonormal transform
with a uniform quantizer, exact bit accounting, byte-exact containers),
never from a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

from chromacodec import ChromaCodecError, metrics, network, pipeline

BLOCK = 8


class CheckFailed(AssertionError):
    attempted = 0  # operations the run had attempted when the check failed


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def qstep(qp: int) -> float:
    """The codec's documented quantizer step: 1 at QP 4, doubling every 6 QP."""
    return 2.0 ** ((qp - 4) / 6.0)


def block_rmse_bound(qp: int) -> float:
    # Rounding each coefficient to a multiple of the step moves it by at most
    # step/2; the orthonormal DCT keeps that as the block's pixel RMSE, and
    # rounding to integers adds at most 0.5 (clipping can only reduce it).
    return qstep(qp) / 2.0 + 0.5


def check_block_rmse(source: np.ndarray, decoded: np.ndarray, qp: int, what: str):
    src = np.asarray(source, dtype=np.float64)
    dec = np.asarray(decoded, dtype=np.float64)
    _require(src.shape == dec.shape, f"{what}: shape {dec.shape} != source {src.shape}")
    h, w = src.shape
    _require(h % BLOCK == 0 and w % BLOCK == 0, f"{what}: {w}×{h} is not whole blocks")
    err = ((dec - src) ** 2).reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
    worst = float(np.sqrt(err.mean(axis=(1, 3))).max())
    bound = block_rmse_bound(qp)
    _require(worst <= bound, f"{what}: block RMSE {worst:.3f} > bound {bound:.3f} at QP {qp}")


def box_420(plane: np.ndarray) -> np.ndarray:
    """2×2 box average, rounded half up: the anchor chroma the encoder codes."""
    a = np.asarray(plane, dtype=np.float64)
    avg = (a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]) / 4.0
    return np.floor(avg + 0.5)


def check_anchor_chroma(source, decoded, qp: int, what: str):
    """Decoded anchor chroma is a nearest-neighbour upsample of a bounded 4:2:0 plane."""
    for name in ("cb", "cr"):
        out = getattr(decoded, name).samples
        sub = out[0::2, 0::2]
        _require(
            np.array_equal(np.repeat(np.repeat(sub, 2, axis=0), 2, axis=1), out),
            f"{what} {name}: not a nearest-neighbour upsample",
        )
        check_block_rmse(box_420(getattr(source, name).samples), sub, qp, f"{what} {name}")


def check_frames(sources, decoded, qp: int, anchors, what: str):
    """Every luma plane, and every anchor's chroma, within the codec bound."""
    _require(len(decoded) == len(sources), f"{what}: {len(decoded)} frames, want {len(sources)}")
    for i, (src, out) in enumerate(zip(sources, decoded)):
        check_block_rmse(src.y.samples, out.y.samples, qp, f"{what} frame {i} y")
        if i in anchors:
            check_anchor_chroma(src, out, qp, f"{what} frame {i}")


def _same_container(a, b) -> bool:
    head = ("width", "height", "qp", "gop_size", "anchor_mode", "weight_blob")
    if any(getattr(a, f) != getattr(b, f) for f in head) or len(a.records) != len(b.records):
        return False
    return all(
        ra.kind == rb.kind and [p.data for p in ra.payloads] == [p.data for p in rb.payloads]
        for ra, rb in zip(a.records, b.records)
    )


def check_stream(video, data: bytes, what: str):
    """The bytes hold exactly the encoder's stream and re-serialize to themselves."""
    try:
        reread = pipeline.deserialize_video(data)
    except ChromaCodecError as exc:
        raise CheckFailed(f"{what}: stream does not parse: {exc}") from exc
    _require(_same_container(reread, video), f"{what}: container differs from the encoder's")
    _require(pipeline.serialize_video(reread) == data, f"{what}: stream does not round-trip")


def check_weights(blob: bytes, what: str):
    try:
        store, config = network.deserialize_weights(blob)
    except ChromaCodecError as exc:
        raise CheckFailed(f"{what}: weights do not parse: {exc}") from exc
    _require(network.serialize_weights(store, config) == blob, f"{what}: weights do not round-trip")


def check_bits(report: dict, stream_bytes: int, what: str):
    parts = ("anchor_bits", "luma_bits", "model_bits", "overhead_bits")
    total = sum(report[p] for p in parts)
    _require(
        total == report["total_bits"] == 8 * stream_bytes,
        f"{what}: components sum to {total}, total_bits {report['total_bits']}, "
        f"stream holds {8 * stream_bytes}",
    )


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2)
    return math.inf if mse == 0 else 10.0 * math.log10(255.0**2 / mse)


def check_psnr(a: np.ndarray, b: np.ndarray, value: float, what: str):
    mine = psnr(a, b)
    _require(
        mine == value or abs(mine - value) <= 1e-9,
        f"{what}: metrics.psnr {value!r} != recomputed {mine!r}",
    )


def bd_rate_oracle(anchor, test) -> float:
    """BD-rate in percent by Gauss-Legendre integration of centred cubic fits.

    `anchor` and `test` are (kbps, dB) pairs. Log-rate is fitted as a cubic
    in PSNR for each curve; the fits' mean difference over the shared PSNR
    interval is the log10 rate ratio.
    """
    def fit(points):
        x = np.array([p[1] for p in points], dtype=np.float64)
        y = np.log10([p[0] for p in points])
        c, s = x.mean(), x.std()
        coef = np.linalg.lstsq(np.vander((x - c) / s, 4), y, rcond=None)[0]
        return x, lambda v: np.vander((v - c) / s, 4) @ coef

    xa, fa = fit(anchor)
    xb, fb = fit(test)
    lo, hi = max(xa.min(), xb.min()), min(xa.max(), xb.max())
    nodes, weights = np.polynomial.legendre.leggauss(4)  # exact for cubics
    v = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    mean_log_ratio = 0.5 * float(weights @ (fb(v) - fa(v)))
    return (10.0**mean_log_ratio - 1.0) * 100.0


def check_bd(anchor, test, value: float, what: str):
    want = bd_rate_oracle(anchor, test)
    _require(abs(value - want) <= 1e-6, f"{what}: metrics.bd_rate {value!r} != oracle {want!r}")


def check_losses(history, what: str):
    _require(len(history) > 0, f"{what}: empty loss history")
    bad = [rec for rec in history if not all(math.isfinite(v) for v in rec)]
    _require(not bad, f"{what}: non-finite loss in {bad[0] if bad else None}")


def check_beats_gray(sources, decoded, colorized, what: str):
    """Colorized chroma must be closer to the source than neutral gray (128)."""
    err = gray = 0.0
    for i in colorized:
        for name in ("cb", "cr"):
            src = getattr(sources[i], name).samples.astype(np.float64)
            out = getattr(decoded[i], name).samples.astype(np.float64)
            err += float(np.sum((src - out) ** 2))
            gray += float(np.sum((src - 128.0) ** 2))
    _require(err < gray, f"{what}: colorized chroma SSE {err:.0f} >= gray {gray:.0f}")


def mean_frame_psnr(sources, decoded):
    """Mean (4·Y + Cb + Cr)/6 PSNR through metrics.psnr_frame, each value re-checked."""
    values = []
    for src, out in zip(sources, decoded):
        p = metrics.psnr_frame(src, out)
        for name in ("y", "cb", "cr"):
            check_psnr(getattr(src, name).samples, getattr(out, name).samples, p[name], name)
        values.append(p["combined"])
    return float(np.mean(values))
