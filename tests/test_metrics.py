"""Metric checks against analytic values, naive oracles, and published data."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacodec import ChromaCodecError, DataError, DimensionError
from chromacodec import colorspace as cs
from chromacodec import metrics

import rd_reference as ref


def plane(arr):
    return cs.Plane(np.asarray(arr, dtype=np.uint8))


def all_finite(report) -> bool:
    numbers = [report["bd_rate_percent"], report["bd_psnr_db"]]
    numbers += [p[k] for p in report["points"] for k in ("delta_br_percent", "delta_psnr_db")]
    return all(math.isfinite(v) for v in numbers)


class TestPsnr:
    def test_identical_is_infinite(self):
        a = plane(np.full((8, 8), 33))
        assert metrics.psnr(a, a) == math.inf

    def test_uniform_difference_one(self):
        a = plane(np.zeros((8, 8)))
        b = plane(np.ones((8, 8)))
        assert abs(metrics.psnr(a, b) - 48.1308) < 0.001

    def test_uniform_difference_255(self):
        a = plane(np.zeros((8, 8)))
        b = plane(np.full((8, 8), 255))
        assert metrics.psnr(a, b) == 0.0

    def test_symmetric_and_monotone(self):
        base = np.zeros((8, 8))
        vals = []
        for d in (1, 2, 4, 8):
            a, b = plane(base), plane(base + d)
            assert metrics.psnr(a, b) == metrics.psnr(b, a)
            vals.append(metrics.psnr(a, b))
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_accepts_raw_arrays(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.ones((4, 4), dtype=np.uint8)
        assert abs(metrics.psnr(a, b) - 48.1308) < 0.001

    def test_frame_combined_weighting(self):
        rng = np.random.default_rng(1)
        ya, yb = rng.integers(0, 256, (2, 16, 16), dtype=np.uint8)
        ca, cb_ = rng.integers(0, 256, (2, 16, 16), dtype=np.uint8)
        fa = cs.Frame(plane(ya), plane(ca), plane(ca), cs.SubsamplingMode.S444)
        fb = cs.Frame(plane(yb), plane(cb_), plane(cb_), cs.SubsamplingMode.S444)
        out = metrics.psnr_frame(fa, fb)
        want = (4.0 * out["y"] + out["cb"] + out["cr"]) / 6.0
        assert abs(out["combined"] - want) < 1e-12


def naive_ssim(a, b, size=11, sigma=1.5):
    """Direct sliding-window reference, no vectorization."""
    half = size // 2
    win = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            win[i, j] = math.exp(-((i - half) ** 2 + (j - half) ** 2) / (2.0 * sigma**2))
    win /= win.sum()
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    a = a.astype(float)
    b = b.astype(float)
    vals = []
    for i in range(a.shape[0] - size + 1):
        for j in range(a.shape[1] - size + 1):
            wa = a[i : i + size, j : j + size]
            wb = b[i : i + size, j : j + size]
            mu_a = (win * wa).sum()
            mu_b = (win * wb).sum()
            va = (win * wa * wa).sum() - mu_a**2
            vb = (win * wb * wb).sum() - mu_b**2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert abs(metrics.ssim(plane(a), plane(a)) - 1.0) < 1e-9

    def test_constant_shift_below_one(self):
        a = np.full((16, 16), 100, dtype=np.uint8)
        b = np.full((16, 16), 103, dtype=np.uint8)
        assert metrics.ssim(plane(a), plane(b)) < 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, (20, 18), dtype=np.uint8)
        b = np.clip(a.astype(int) + rng.integers(-20, 21, a.shape), 0, 255).astype(np.uint8)
        assert abs(metrics.ssim(plane(a), plane(b)) - naive_ssim(a, b)) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, (14, 14), dtype=np.uint8)
        b = rng.integers(0, 256, (14, 14), dtype=np.uint8)
        assert abs(metrics.ssim(plane(a), plane(b)) - metrics.ssim(plane(b), plane(a))) < 1e-12

    def test_small_plane_rejected(self):
        with pytest.raises(DimensionError):
            metrics.ssim(plane(np.zeros((8, 8))), plane(np.zeros((8, 8))))

    def test_peak_memory_is_a_few_planes(self):
        # two 1-D passes keep a few float64 planes live; copying out every
        # 11×11 window would hold 121 of them
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 256, (2, 720, 1280), dtype=np.uint8)
        tracemalloc.start()
        try:
            metrics.ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * a.size * 8


class TestDeltas:
    def test_identical_points(self):
        p = metrics.RDPoint(100.0, 35.0)
        assert metrics.delta_br(p, p) == 0.0
        assert metrics.delta_psnr(p, p) == 0.0

    def test_simple_arithmetic(self):
        anchor = metrics.RDPoint(100.0, 35.0)
        proposed = metrics.RDPoint(90.0, 36.0)
        assert abs(metrics.delta_br(proposed, anchor) + 10.0) < 1e-12
        assert abs(metrics.delta_psnr(proposed, anchor) - 1.0) < 1e-12

    def test_published_qp27_example(self):
        anchor = metrics.RDPoint(5018.75, 35.232)
        proposed = metrics.RDPoint(4490.90, 39.849)
        assert abs(metrics.delta_br(proposed, anchor) - (-10.52)) < 0.01
        assert abs(metrics.delta_psnr(proposed, anchor) - 4.618) < 0.01

    def test_every_published_row(self):
        for seq, qp, br_o, ps_o, br_p, ps_p, dbr, dpsnr in ref.ROWS:
            anchor = metrics.RDPoint(br_o, ps_o, qp)
            proposed = metrics.RDPoint(br_p, ps_p, qp)
            assert abs(metrics.delta_br(proposed, anchor) - dbr) < 0.01, (seq, qp)
            assert abs(metrics.delta_psnr(proposed, anchor) - dpsnr) < 0.01, (seq, qp)


def oracle_avg_diff(xa, ya, xb, yb, samples=100_001):
    """Trapezoid integration of the same cubic fits."""
    pa = np.polyfit(xa, ya, 3)
    pb = np.polyfit(xb, yb, 3)
    lo = max(xa.min(), xb.min())
    hi = min(xa.max(), xb.max())
    xs = np.linspace(lo, hi, samples)
    diff = np.polyval(pb, xs) - np.polyval(pa, xs)
    integral = float(np.sum((diff[:-1] + diff[1:]) * 0.5) * (xs[1] - xs[0]))
    return integral / (hi - lo)


def random_curve_pair(rng):
    lr0 = rng.uniform(2.0, 3.0)
    lr_a = lr0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.5, 3))])
    lr_b = lr0 + rng.uniform(-0.2, 0.2) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.5, 3))]
    )
    p0 = rng.uniform(30.0, 35.0)
    p_a = p0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, 3))])
    p_b = p0 + rng.uniform(-1.0, 1.0) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.5, 2.0, 3))]
    )
    a = metrics.curve(list(zip(10.0**lr_a, p_a)))
    b = metrics.curve(list(zip(10.0**lr_b, p_b)))
    return a, b


class TestBdMetrics:
    def silent_curves(self):
        anchor = metrics.curve(ref.anchor_points("Silent"))
        proposed = metrics.curve(ref.proposed_points("Silent"))
        return anchor, proposed

    def test_identical_curves(self):
        a, _ = self.silent_curves()
        assert abs(metrics.bd_psnr(a, a)) < 1e-9
        assert abs(metrics.bd_rate(a, a)) < 1e-6

    def test_constant_psnr_shift(self):
        a, _ = self.silent_curves()
        shifted = metrics.curve([(p.bitrate, p.psnr + 1.0, p.qp) for p in a.points])
        assert abs(metrics.bd_psnr(a, shifted) - 1.0) < 1e-6

    def test_doubled_bitrate(self):
        a, _ = self.silent_curves()
        doubled = metrics.curve([(2.0 * p.bitrate, p.psnr, p.qp) for p in a.points])
        assert abs(metrics.bd_rate(a, doubled) - 100.0) < 0.1

    def test_antisymmetry(self):
        a, b = self.silent_curves()
        assert abs(metrics.bd_psnr(a, b) + metrics.bd_psnr(b, a)) < 1e-9

    def test_against_numeric_integration_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            a, b = random_curve_pair(rng)
            want_psnr = oracle_avg_diff(
                np.log10(a.bitrates), a.psnrs, np.log10(b.bitrates), b.psnrs
            )
            assert abs(metrics.bd_psnr(a, b) - want_psnr) < 1e-6
            want_rate = (
                10.0
                ** oracle_avg_diff(a.psnrs, np.log10(a.bitrates), b.psnrs, np.log10(b.bitrates))
                - 1.0
            ) * 100.0
            assert abs(metrics.bd_rate(a, b) - want_rate) < 1e-6

    def test_published_silent_summary(self):
        anchor, proposed = self.silent_curves()
        assert abs(metrics.bd_rate(anchor, proposed) - (-90.46)) < 0.5
        assert abs(metrics.bd_psnr(anchor, proposed) - 6.811) < 0.05

    def test_too_few_points(self):
        a = metrics.curve([(100, 30), (200, 32), (400, 34)])
        with pytest.raises(DataError):
            metrics.bd_psnr(a, a)

    def test_disjoint_curves(self):
        a = metrics.curve([(100, 30), (200, 32), (400, 34), (800, 36)])
        b = metrics.curve([(100, 40), (200, 42), (400, 44), (800, 46)])
        # PSNR ranges never overlap, so the rate comparison has no domain
        with pytest.raises(DataError):
            metrics.bd_rate(a, b)

    def test_disjoint_rate_ranges(self):
        a = metrics.curve([(100, 30), (200, 32), (400, 34), (800, 36)])
        b = metrics.curve([(10_000, 30), (20_000, 32), (40_000, 34), (80_000, 36)])
        with pytest.raises(DataError):
            metrics.bd_psnr(a, b)

    def test_small_gap_is_bridged(self):
        # quality ranges that barely miss are interpolated, like the
        # published summaries this module is checked against
        anchor, proposed = self.silent_curves()
        assert proposed.psnrs.min() > anchor.psnrs.max()
        assert metrics.bd_rate(anchor, proposed) < -80.0

    @pytest.mark.parametrize("psnr", [1e150, 1e200, 1e308])
    def test_fit_that_does_not_converge_is_data_error(self, psnr):
        a, _ = self.silent_curves()
        huge = metrics.curve(
            [(p.bitrate, psnr if i == 0 else p.psnr) for i, p in enumerate(a.points)]
        )
        with pytest.raises(DataError, match="cubic fit"):
            metrics.comparison_report(a, huge)

    def test_non_finite_report_is_data_error(self):
        a, _ = self.silent_curves()
        extreme = metrics.curve(ref.OVERFLOWING_PROPOSED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported, not warned about
            with pytest.raises(DataError, match="not finite: bd_rate_percent"):
                metrics.comparison_report(a, extreme)

    def test_report_rejects_pairs_of_different_qp(self):
        # an anchor run at QP 37-22 against a proposal at QP 42-27: rate
        # order pairs anchor QP 37 with proposed QP 42
        anchor, proposed = self.silent_curves()
        shifted = metrics.curve([(p.bitrate, p.psnr, p.qp - 5) for p in anchor.points])
        with pytest.raises(DataError, match="anchor qp 37 with proposed qp 42"):
            metrics.comparison_report(shifted, proposed)

    def test_report_rejects_unequal_point_counts(self):
        anchor, proposed = self.silent_curves()
        five = metrics.curve([*anchor.points, (9800.0, 38.1, 22)])
        with pytest.raises(DataError, match="5 and 4"):
            metrics.comparison_report(five, proposed)

    def test_benchmark_payload_curves_keep_their_bd_figures(self):
        # the qcif176 seed-0 payload curves (kbps, combined dB) of the
        # benchmark: a check that rejects a fit whose rate falls anywhere in
        # the integration interval would reject both of these
        all_anchor = metrics.curve(
            [(363.32, 35.104), (414.2, 37.5584), (497.78, 39.3883), (590.3, 43.3092)]
        )
        stream = metrics.curve(
            [(255.06, 31.3985), (283.5, 33.3444), (338.3, 34.8166), (394.28, 38.5542)]
        )
        interval = np.linspace(35.104, 38.5542, 1001)
        for c in (all_anchor, stream):
            slope = np.polyder(np.polyfit(c.psnrs, np.log10(c.bitrates), 3))
            assert np.polyval(slope, interval).min() < 0.0
        assert 1.0 + metrics.bd_rate(all_anchor, stream) / 100.0 == pytest.approx(1.003968, abs=1e-6)
        assert metrics.bd_psnr(all_anchor, stream) == pytest.approx(1.0740, abs=1e-4)

    def test_curve_requires_increasing_rates(self):
        with pytest.raises(DataError):
            metrics.RDCurve(
                (metrics.RDPoint(200.0, 30.0), metrics.RDPoint(100.0, 32.0))
            )

    def test_point_validation(self):
        with pytest.raises(DataError):
            metrics.RDPoint(0.0, 30.0)
        with pytest.raises(DataError):
            metrics.RDPoint(100.0, math.nan)


class TestCurveIO:
    def test_csv_round_trip(self):
        c = metrics.curve([(100.5, 30.25, 42), (200.0, 32.5, 37)])
        back = metrics.curve_from_csv(metrics.curve_to_csv(c))
        assert back == c

    def test_csv_header_and_comments_skipped(self):
        data = b"qp,bitrate_kbps,psnr_db\n# comment\n27,100.0,30.0\n,200.0,31.0\n"
        c = metrics.curve_from_csv(data)
        assert len(c.points) == 2
        assert c.points[0].qp == 27
        assert c.points[1].qp is None

    def test_csv_bad_field_count(self):
        with pytest.raises(DataError):
            metrics.curve_from_csv(b"27,100.0\n")

    def test_csv_bad_number(self):
        with pytest.raises(DataError):
            metrics.curve_from_csv(b"27,abc,30.0\n")

    def test_error_line_counts_leading_blank_lines(self):
        data = b"\n\nqp,bitrate_kbps,psnr_db\n27,100.0,30.0\n32,abc,28.0\n"
        with pytest.raises(DataError, match="^line 5: "):
            metrics.curve_from_csv(data)

    def test_csv_with_byte_order_mark(self):
        data = metrics.curve_to_csv(metrics.curve([(100.5, 30.25, 42), (200.0, 32.5, 37)]))
        assert metrics.curve_from_csv(b"\xef\xbb\xbf" + data) == metrics.curve_from_csv(data)

    def test_non_utf8_file_is_data_error(self):
        with pytest.raises(DataError, match="not UTF-8"):
            metrics.curve_from_csv(b"qp,bitrate_kbps,psnr_db\n27,100.0,30.0\xff\n")

    @settings(deadline=None, max_examples=200)
    @given(st.binary(max_size=200))
    def test_any_csv_bytes_give_report_or_error(self, data):
        anchor = metrics.curve(ref.anchor_points("Silent"))
        try:
            report = metrics.comparison_report(anchor, metrics.curve_from_csv(data))
        except ChromaCodecError:
            return
        assert set(report) == {"points", "bd_rate_percent", "bd_psnr_db"}
        assert all_finite(report)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    min_size=1, max_size=6))
    def test_any_csv_numbers_give_report_or_error(self, rows):
        data = "".join(f",{r!r},{q!r}\n" for r, q in rows).encode()
        anchor = metrics.curve(ref.anchor_points("Silent"))
        try:
            report = metrics.comparison_report(anchor, metrics.curve_from_csv(data))
        except ChromaCodecError:
            return
        assert set(report) == {"points", "bd_rate_percent", "bd_psnr_db"}
        assert all_finite(report)

    def test_report_json(self):
        anchor = metrics.curve(ref.anchor_points("Silent"))
        proposed = metrics.curve(ref.proposed_points("Silent"))
        report = metrics.comparison_report(anchor, proposed)
        text = metrics.report_to_json(report)
        assert "bd_rate_percent" in text and "delta_br_percent" in text
        assert "\n" not in text
        text = metrics.report_to_json({"points": [{"delta_br_percent": math.inf}]})
        assert text == '{"points": [{"delta_br_percent": "inf"}]}'
