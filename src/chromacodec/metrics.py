"""Quality and rate-distortion measurement.

PSNR and SSIM compare 8-bit planes; the rate-distortion helpers compare
two bitrate/quality curves, either pointwise (percent bitrate change
and dB difference at matched settings) or integrated over the
overlapping quality range with cubic fits in log-rate, the standard
average-difference construction for codec comparisons.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .colorspace import Frame
from .errors import ConfigError, DataError, DimensionError
from .tensor import _correlate_valid


def _plane_data(p) -> np.ndarray:
    arr = p.samples if hasattr(p, "samples") else np.asarray(p)
    return arr.astype(np.float64)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB for 8-bit planes; inf if identical."""
    da, db = _plane_data(a), _plane_data(b)
    if da.shape != db.shape:
        raise DimensionError(f"psnr shapes differ: {da.shape} vs {db.shape}")
    mse = float(np.mean((da - db) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def psnr_frame(a: Frame, b: Frame) -> dict:
    """Per-channel PSNR plus the (4·Y + Cb + Cr)/6 weighted combination."""
    if a.mode is not b.mode:
        raise ConfigError(f"frame modes differ: {a.mode.value} vs {b.mode.value}")
    vals = {
        "y": psnr(a.y, b.y),
        "cb": psnr(a.cb, b.cb),
        "cr": psnr(a.cr, b.cr),
    }
    vals["combined"] = (4.0 * vals["y"] + vals["cb"] + vals["cr"]) / 6.0
    return vals


# the 11-tap, σ 1.5 Gaussian of Wang et al. 2004, unit sum; its 11×11
# window is the outer product, so SSIM filters rows and then columns
_SSIM_TAPS = np.exp(-np.arange(-5.0, 6.0) ** 2 / (2.0 * 1.5**2))
_SSIM_TAPS /= _SSIM_TAPS.sum()


def ssim(a, b) -> float:
    """Structural similarity over the valid (fully covered) region."""
    da, db = _plane_data(a), _plane_data(b)
    if da.shape != db.shape:
        raise DimensionError(f"ssim shapes differ: {da.shape} vs {db.shape}")
    size = len(_SSIM_TAPS)
    if da.shape[0] < size or da.shape[1] < size:
        raise DimensionError(f"plane {da.shape} smaller than the {size}×{size} window")
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    mu_a, mu_b = _correlate_valid(da, _SSIM_TAPS), _correlate_valid(db, _SSIM_TAPS)
    var_a = _correlate_valid(da * da, _SSIM_TAPS) - mu_a * mu_a
    var_b = _correlate_valid(db * db, _SSIM_TAPS) - mu_b * mu_b
    cov = _correlate_valid(da * db, _SSIM_TAPS) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# rate-distortion curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RDPoint:
    bitrate: float  # kbps
    psnr: float  # dB
    qp: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.bitrate) and math.isfinite(self.psnr)):
            raise DataError(f"rd point must be finite, got ({self.bitrate}, {self.psnr})")
        if self.bitrate <= 0:
            raise DataError(f"bitrate must be positive, got {self.bitrate}")


@dataclass(frozen=True)
class RDCurve:
    points: tuple

    def __post_init__(self):
        rates = [p.bitrate for p in self.points]
        if any(r2 <= r1 for r1, r2 in zip(rates, rates[1:])):
            raise DataError(f"bitrates must strictly increase, got {rates}")

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([p.bitrate for p in self.points])

    @property
    def psnrs(self) -> np.ndarray:
        return np.array([p.psnr for p in self.points])


def curve(points) -> RDCurve:
    """Build an RDCurve from (bitrate, psnr[, qp]) tuples, sorting by rate."""
    pts = [p if isinstance(p, RDPoint) else RDPoint(*p) for p in points]
    return RDCurve(tuple(sorted(pts, key=lambda p: p.bitrate)))


def delta_br(proposed: RDPoint, anchor: RDPoint) -> float:
    """Percent bitrate change of proposed relative to anchor."""
    return (proposed.bitrate - anchor.bitrate) / anchor.bitrate * 100.0


def delta_psnr(proposed: RDPoint, anchor: RDPoint) -> float:
    """Quality difference in dB."""
    return proposed.psnr - anchor.psnr


def _require_four(a: RDCurve, b: RDCurve):
    if len(a.points) < 4 or len(b.points) < 4:
        raise DataError(
            f"curve comparison needs ≥ 4 points per curve, got {len(a.points)} and {len(b.points)}"
        )


def _overlap(lo_a, hi_a, lo_b, hi_b):
    # Classical BD integrates max(min)..min(max) even when the ranges barely
    # miss each other: a strong coder can lift every PSNR above the anchor's,
    # and bridging the small gap through the fits is part of the method. Only
    # a gap wider than half the narrower range is pure extrapolation, so that
    # (or a zero-width overlap) is rejected as disjoint data.
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    span = min(hi_a - lo_a, hi_b - lo_b)
    if hi == lo or lo - hi > 0.5 * span:
        raise DataError(f"curves do not overlap: [{lo_a}, {hi_a}] vs [{lo_b}, {hi_b}]")
    return lo, hi


def _avg_poly_diff(x_a, y_a, x_b, y_b):
    """Average (fit_b - fit_a) over the shared x range, cubic fits."""
    with np.errstate(over="ignore"):
        cubes_finite = np.isfinite(x_a**3).all() and np.isfinite(x_b**3).all()
    if not cubes_finite:  # polyfit's x³ column would overflow, and LAPACK would print from C
        raise DataError("cubic fit of the rd curves failed: x³ overflows")
    try:
        with warnings.catch_warnings():
            # fewer than 4 distinct x make the cubic's fit rank-deficient
            warnings.simplefilter("error", np.exceptions.RankWarning)
            poly_a = np.polyfit(x_a, y_a, 3)
            poly_b = np.polyfit(x_b, y_b, 3)
    except (np.linalg.LinAlgError, np.exceptions.RankWarning) as exc:
        raise DataError(f"cubic fit of the rd curves failed: {exc}") from exc
    lo, hi = _overlap(x_a.min(), x_a.max(), x_b.min(), x_b.max())
    anti_a, anti_b = np.polyint(poly_a), np.polyint(poly_b)
    int_a = np.polyval(anti_a, hi) - np.polyval(anti_a, lo)
    int_b = np.polyval(anti_b, hi) - np.polyval(anti_b, lo)
    return (int_b - int_a) / (hi - lo)


def bd_psnr(anchor: RDCurve, test: RDCurve) -> float:
    """Average PSNR gain of test over anchor across the shared rate range."""
    _require_four(anchor, test)
    return float(
        _avg_poly_diff(
            np.log10(anchor.bitrates), anchor.psnrs, np.log10(test.bitrates), test.psnrs
        )
    )


def bd_rate(anchor: RDCurve, test: RDCurve) -> float:
    """Average percent bitrate change of test vs anchor at equal quality."""
    _require_four(anchor, test)
    avg_log = _avg_poly_diff(
        anchor.psnrs, np.log10(anchor.bitrates), test.psnrs, np.log10(test.bitrates)
    )
    return float((10.0**avg_log - 1.0) * 100.0)


# ---------------------------------------------------------------------------
# curve CSV and reports
# ---------------------------------------------------------------------------

CSV_HEADER = "qp,bitrate_kbps,psnr_db"


def curve_to_csv(c: RDCurve) -> bytes:
    lines = [CSV_HEADER]
    for p in c.points:
        qp = "" if p.qp is None else str(p.qp)
        lines.append(f"{qp},{p.bitrate!r},{p.psnr!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def curve_from_csv(data: bytes) -> RDCurve:
    """Parse UTF-8 rows of qp (may be empty), kbps and dB; skip '#' lines and the header.

    A leading byte-order mark, as spreadsheet programs write, is dropped."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"rd curve is not UTF-8 text: {exc}") from exc
    points = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line == CSV_HEADER:
            continue
        parts = [f.strip() for f in line.split(",")]
        if len(parts) != 3:
            raise DataError(f"line {ln}: expected 3 fields, got {len(parts)}")
        try:
            qp = int(parts[0]) if parts[0] else None
            points.append(RDPoint(float(parts[1]), float(parts[2]), qp))
        except ValueError as exc:
            raise DataError(f"line {ln}: {exc}") from exc
    if not points:
        raise DataError("no rd points found in csv")
    return curve(points)


def comparison_report(anchor: RDCurve, test: RDCurve) -> dict:
    """Pointwise and integrated comparison, JSON-serializable; every number is finite.

    Points pair up in rate order: the curves must have equal point counts,
    and a pair whose points both carry a QP must share it.
    """
    if len(anchor.points) != len(test.points):
        raise DataError(f"curves pair points by rate: {len(anchor.points)} and {len(test.points)}")
    per_point = []
    for pa, pb in zip(anchor.points, test.points):
        if None not in (pa.qp, pb.qp) and pa.qp != pb.qp:
            raise DataError(f"rate order pairs anchor qp {pa.qp} with proposed qp {pb.qp}")
        per_point.append(
            {
                "qp": pb.qp if pb.qp is not None else pa.qp,
                "delta_br_percent": delta_br(pb, pa),
                "delta_psnr_db": delta_psnr(pb, pa),
            }
        )
    with np.errstate(all="ignore"):  # extreme curves overflow; reported just below
        bd = {"bd_rate_percent": bd_rate(anchor, test), "bd_psnr_db": bd_psnr(anchor, test)}
    named = list(bd.items()) + [
        (f"point {i} {key}", p[key])
        for i, p in enumerate(per_point)
        for key in ("delta_br_percent", "delta_psnr_db")
    ]
    bad = [name for name, value in named if not math.isfinite(value)]
    if bad:
        raise DataError(f"rd comparison is not finite: {', '.join(bad)}")
    return {"points": per_point, **bd}


def _inf_to_text(value):
    if isinstance(value, dict):
        return {k: _inf_to_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_to_text(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def report_to_json(report: dict) -> str:
    """One line of JSON with sorted keys; infinities become the string "inf"."""
    return json.dumps(_inf_to_text(report), sort_keys=True)
