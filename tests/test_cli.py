"""End-to-end command tests driven through cli.main."""

import json
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from chromacodec import cli, metrics, network, pipeline
from chromacodec import colorspace as cs

import rd_reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"


def synthetic_frames(n=6, size=16):
    """Moving saturated rectangles on a neutral gray background."""
    frames = []
    for i in range(n):
        rgb = np.full((size, size, 3), 120, dtype=np.uint8)
        x = min(2 * i, size - 7)
        rgb[4:12, x : x + 6] = (255, 32, 32)
        rgb[12:16, size - 5 - x : size - 1 - x] = (32, 32, 255)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames


@pytest.fixture
def raw_input(tmp_path):
    path = tmp_path / "input.yuv"
    path.write_bytes(cs.frames_to_bytes(synthetic_frames()))
    return path


def save_curve(path, points):
    path.write_bytes(metrics.curve_to_csv(metrics.curve(points)))


def run(args):
    return cli.main([str(a) for a in args])


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = run(
            ["encode", "--input", tmp_path / "nope.yuv", "--weights", tmp_path / "w.cgwt",
             "--width", 16, "--height", 16, "--out", tmp_path / "s.cgv"]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_raw_input_without_dims(self, raw_input, tmp_path, capsys):
        rc = run(
            ["train", "--input", raw_input, "--steps", 0, "--out", tmp_path / "w.cgwt"]
        )
        assert rc == 2
        assert "--width" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["bogus"])
        assert exc.value.code == 2

    def test_conflicting_loss_flags(self, raw_input, tmp_path):
        rc = run(
            ["train", "--input", raw_input, "--width", 16, "--height", 16,
             "--steps", 0, "--loss-group", "G2", "--loss-weights", "1,1,1,1",
             "--out", tmp_path / "w.cgwt"]
        )
        assert rc == 2

    @pytest.mark.parametrize("width,height", [(-8, -8), (-8, 8)])
    def test_non_positive_raw_dims_are_usage_error(
        self, raw_input, tmp_path, capsys, width, height
    ):
        dims = ["--width", width, "--height", height]
        assert run(["train", "--input", raw_input, *dims, "--steps", 0,
                    "--out", tmp_path / "w.cgwt"]) == 2
        assert run(["eval", "--ref", raw_input, "--test", raw_input, *dims]) == 2
        err = capsys.readouterr().err
        assert "dims must be positive" in err and "Traceback" not in err

    def test_eval_frame_count_mismatch(self, raw_input, tmp_path):
        short = tmp_path / "short.yuv"
        short.write_bytes(cs.frames_to_bytes(synthetic_frames(n=3)))
        rc = run(
            ["eval", "--ref", raw_input, "--test", short, "--width", 16, "--height", 16]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("train", ["--qp", 52]),
            ("train", ["--gop", 0]),
            ("train", ["--steps", -1]),
            ("train", ["--loss-weights=-1,1,1,1"]),
            ("encode", ["--qp", 52]),
            ("encode", ["--gop", 0]),
            ("encode", ["--fps", 0]),
            ("train", ["--channels", 5]),
            ("train", ["--loss-weights=nan,100,1000,100"]),
            ("train", ["--loss-weights=inf,100,1000,100"]),
            ("encode", ["--fps", "inf"]),
            ("train", ["--channels", 65]),
            ("train", ["--channels", 100000]),
        ],
    )
    def test_out_of_range_setting_is_usage_error(self, raw_input, tmp_path, command, flags):
        weights = tmp_path / "w.cgwt"
        dims = ["--input", raw_input, "--width", 16, "--height", 16]
        assert run(["train", *dims, "--steps", 0, "--out", weights]) == 0
        extra = ["--steps", 0] if command == "train" else ["--weights", weights]
        assert run([command, *dims, *extra, *flags, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("command", ["train", "encode", "eval"])
    def test_empty_raw_input_is_data_error(self, raw_input, tmp_path, capsys, command):
        weights = tmp_path / "w.cgwt"
        dims = ["--width", 16, "--height", 16]
        assert run(["train", "--input", raw_input, *dims, "--steps", 0, "--out", weights]) == 0
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        args = {
            "train": ["--input", empty, "--steps", 0, "--out", tmp_path / "w2.cgwt"],
            "encode": ["--input", empty, "--weights", weights, "--out", tmp_path / "s.cgv"],
            "eval": ["--ref", empty, "--test", empty],
        }[command]
        assert run([command, *args, *dims]) == 3
        assert "raw video is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("dims", [b"-4 -2", b"0 0"])
    def test_ppm_dims_below_one_are_data_error(self, tmp_path, capsys, command, dims):
        ppm = tmp_path / "bad.ppm"
        ppm.write_bytes(b"P6\n" + dims + b"\n255\n" + b"\x00" * 24)
        args = {
            "train": ["--input", ppm, "--steps", 0, "--out", tmp_path / "w.cgwt"],
            "eval": ["--ref", ppm, "--test", ppm],
        }[command]
        assert run([command, *args]) == 3
        assert "PPM dims must be at least 1×1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["4:2:2", "4:0:0"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unsupported_raw_mode_is_usage_error(self, raw_input, tmp_path, capsys, command, mode):
        flags = ["--width", 16, "--height", 16, "--mode", mode]
        args = {
            "train": ["--input", raw_input, "--steps", 0, "--out", tmp_path / "w.cgwt"],
            "eval": ["--ref", raw_input, "--test", raw_input],
        }[command]
        assert run([command, *args, *flags]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_truncated_weight_file(self, raw_input, tmp_path, capsys):
        weights = tmp_path / "w.cgwt"
        assert run(["train", "--input", raw_input, "--width", 16, "--height", 16,
                    "--steps", 0, "--out", weights]) == 0
        weights.write_bytes(weights.read_bytes()[:30])
        rc = run(["encode", "--input", raw_input, "--width", 16, "--height", 16,
                  "--weights", weights, "--out", tmp_path / "s.cgv"])
        assert rc == 3
        assert "truncated weight file" in capsys.readouterr().err

    def test_gop_above_header_byte_is_usage_error(self, raw_input, tmp_path, capsys):
        weights = tmp_path / "w.cgwt"
        dims = ["--input", raw_input, "--width", 16, "--height", 16]
        assert run(["train", *dims, "--steps", 0, "--out", weights]) == 0
        rc = run(["encode", *dims, "--weights", weights, "--gop", 300,
                  "--out", tmp_path / "s.cgv"])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def _trained_weights(self, raw_input, tmp_path):
        weights = tmp_path / "w.cgwt"
        assert run(["train", "--input", raw_input, "--width", 16, "--height", 16,
                    "--steps", 0, "--out", weights]) == 0
        return weights

    def _encode(self, raw_input, tmp_path, weights):
        return run(["encode", "--input", raw_input, "--width", 16, "--height", 16,
                    "--weights", weights, "--out", tmp_path / "s.cgv"])

    def test_too_few_channels_in_weight_header_is_data_error(self, raw_input, tmp_path, capsys):
        weights = self._trained_weights(raw_input, tmp_path)
        blob = bytearray(weights.read_bytes())
        blob[14:18] = struct.pack("<I", 4)  # after magic, version, width, height
        weights.write_bytes(bytes(blob))
        assert self._encode(raw_input, tmp_path, weights) == 3
        err = capsys.readouterr().err
        assert "base_channels" in err and "Traceback" not in err

    def test_unknown_weight_flag_bits_are_data_error(self, raw_input, tmp_path, capsys):
        weights = self._trained_weights(raw_input, tmp_path)
        blob = bytearray(weights.read_bytes())
        blob[18:20] = b"\xff\xff"  # the flag word, after magic and the first four fields
        weights.write_bytes(bytes(blob))
        assert self._encode(raw_input, tmp_path, weights) == 3
        err = capsys.readouterr().err
        assert "unknown weight file flag bits" in err and "Traceback" not in err

    def test_version_1_weight_file_is_data_error(self, raw_input, tmp_path, capsys):
        weights = self._trained_weights(raw_input, tmp_path)
        blob = weights.read_bytes()
        weights.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
        assert self._encode(raw_input, tmp_path, weights) == 3
        assert "unsupported weight file version 1" in capsys.readouterr().err

    def test_nonfinite_stored_weight_is_data_error(self, raw_input, tmp_path, capsys):
        weights = self._trained_weights(raw_input, tmp_path)
        weights.write_bytes(weights.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        assert self._encode(raw_input, tmp_path, weights) == 3
        err = capsys.readouterr().err
        assert "weight file" in err and "Traceback" not in err

    def test_nonfinite_colorizer_output_is_numeric_error(self, raw_input, tmp_path, capsys):
        cfg = network.NetworkConfig(width=16, height=16)
        store = network.init_generator(cfg, seed=0)
        store["m1.sc.w"].data[...] = 1e300  # finite, but the generator overflows
        store["att1.gain"].data[...] = 1e300
        weights = tmp_path / "w.cgwt"
        weights.write_bytes(network.serialize_weights(store, cfg))
        stream = tmp_path / "s.cgv"
        dims = ["--input", raw_input, "--width", 16, "--height", 16]
        assert run(["encode", *dims, "--weights", weights, "--out", stream]) == 0
        rc = run(["decode", "--input", stream, "--out", tmp_path / "d.yuv"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "colorizer output is not finite" in err and "Traceback" not in err

    # QP byte, GOP byte, low byte of the 6-frame stream's frame count
    @pytest.mark.parametrize("offset,value", [(10, 60), (11, 0), (12, 0)])
    def test_out_of_range_stream_header_is_data_error(
        self, raw_input, tmp_path, capsys, offset, value
    ):
        weights = tmp_path / "w.cgwt"
        stream = tmp_path / "s.cgv"
        dims = ["--input", raw_input, "--width", 16, "--height", 16]
        assert run(["train", *dims, "--steps", 0, "--out", weights]) == 0
        assert run(["encode", *dims, "--weights", weights, "--out", stream]) == 0
        blob = bytearray(stream.read_bytes())
        blob[offset] = value
        stream.write_bytes(bytes(blob))
        assert run(["decode", "--input", stream, "--out", tmp_path / "d.yuv"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_declared_frame_dims_are_data_error(self, raw_input, tmp_path):
        # 65535×65535 would need 32 GiB of coefficients for the first plane;
        # under the address-space cap such an allocation would be a traceback
        weights = self._trained_weights(raw_input, tmp_path)
        assert self._encode(raw_input, tmp_path, weights) == 0
        stream = tmp_path / "s.cgv"
        blob = bytearray(stream.read_bytes())
        blob[6:10] = struct.pack("<HH", 65535, 65535)  # width, height after magic, version
        stream.write_bytes(bytes(blob))
        code = textwrap.dedent(f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            from chromacodec import cli
            sys.exit(cli.main(["decode", "--input", {str(stream)!r},
                               "--out", {str(tmp_path / "d.yuv")!r}]))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "cannot hold" in proc.stderr and "Traceback" not in proc.stderr

    def test_mutated_stream_is_data_error(self, raw_input, tmp_path, capsys):
        weights = self._trained_weights(raw_input, tmp_path)
        assert self._encode(raw_input, tmp_path, weights) == 0
        stream = tmp_path / "s.cgv"
        blob = bytearray(stream.read_bytes())
        at = 20 + len(weights.read_bytes())  # magic, header, weights
        blob[at : at + 4] = b"\xff\xff\xff\x7f"  # frame 0's luma length: past the end
        stream.write_bytes(bytes(blob))
        assert run(["decode", "--input", stream, "--out", tmp_path / "d.yuv"]) == 3
        err = capsys.readouterr().err
        assert "frame 0 plane 0 payload" in err and "Traceback" not in err

    def test_multi_frame_to_single_ppm(self, tmp_path, capsys, monkeypatch):
        # a usage error, found from the stream header before any frame is decoded
        raw, weights, stream = tmp_path / "in.yuv", tmp_path / "w.cgwt", tmp_path / "s.cgv"
        raw.write_bytes(cs.frames_to_bytes(synthetic_frames(n=2)))
        dims = ["--input", raw, "--width", 16, "--height", 16]
        assert run(["train", *dims, "--steps", 0, "--out", weights]) == 0
        assert run(["encode", *dims, "--weights", weights, "--out", stream]) == 0

        def refuse(video):
            raise AssertionError("decode_sequence ran before the .ppm check")

        monkeypatch.setattr(pipeline, "decode_sequence", refuse)
        assert run(["decode", "--input", stream, "--out", tmp_path / "only.ppm"]) == 2
        err = capsys.readouterr().err
        assert "cannot write 2 frames to a single .ppm" in err and "Traceback" not in err


class TestPipelineCommands:
    def test_train_encode_decode_eval(self, raw_input, tmp_path, capsys):
        weights = tmp_path / "w.cgwt"
        loss_log = tmp_path / "loss.csv"
        rc = run(
            ["train", "--input", raw_input, "--width", 16, "--height", 16,
             "--qp", 32, "--gop", 3, "--steps", 2, "--seed", 1,
             "--loss-log", loss_log, "--out", weights]
        )
        assert rc == 0
        assert weights.stat().st_size > 0
        log_lines = loss_log.read_text().strip().splitlines()
        assert log_lines[0] == "step,L_GAN,L_MSE,L_content,L_color,L_f,L_D"
        assert len(log_lines) == 3

        stream = tmp_path / "s.cgv"
        rc = run(
            ["encode", "--input", raw_input, "--width", 16, "--height", 16,
             "--weights", weights, "--qp", 32, "--gop", 3, "--out", stream]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["total_bits"] == stream.stat().st_size * 8
        assert report["kbps_without_model"] < report["kbps"]

        # identical invocation yields a byte-identical stream
        stream2 = tmp_path / "s2.cgv"
        assert run(
            ["encode", "--input", raw_input, "--width", 16, "--height", 16,
             "--weights", weights, "--qp", 32, "--gop", 3, "--out", stream2]
        ) == 0
        assert stream.read_bytes() == stream2.read_bytes()

        ppm_dir = tmp_path / "decoded"
        assert run(["decode", "--input", stream, "--out", ppm_dir]) == 0
        assert len(sorted(ppm_dir.glob("*.ppm"))) == 6

        decoded = tmp_path / "decoded.yuv"
        assert run(["decode", "--input", stream, "--out", decoded]) == 0
        assert decoded.stat().st_size == 6 * 16 * 16 * 3

        report_path = tmp_path / "report.json"
        rc = run(
            ["eval", "--ref", raw_input, "--test", decoded,
             "--width", 16, "--height", 16, "--out", report_path]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["frame_count"] == 6
        assert len(report["frames"]) == 6
        # luma goes through the transform coder, so its fidelity is bounded
        assert report["average"]["psnr_y"] > 25.0
        assert {"psnr_cb", "psnr_cr", "psnr_combined", "ssim_y"} <= set(report["frames"][0])

    def test_420_raw_input_trains_and_evaluates(self, tmp_path, capsys):
        # decode writes raw 4:4:4, so eval reads a raw --test as 4:4:4 and
        # --mode applies to --ref only
        frames = synthetic_frames()
        raw = tmp_path / "input420.yuv"
        raw.write_bytes(cs.frames_to_bytes([cs.subsample(f) for f in frames]))
        flags = ["--width", 16, "--height", 16, "--mode", "4:2:0"]
        weights, stream, decoded = tmp_path / "w.cgwt", tmp_path / "s.cgv", tmp_path / "d.yuv"
        assert run(["train", "--input", raw, *flags, "--steps", 1, "--out", weights]) == 0
        assert run(["encode", "--input", raw, *flags, "--weights", weights, "--out", stream]) == 0
        assert run(["decode", "--input", stream, "--out", decoded]) == 0
        capsys.readouterr()
        assert run(["eval", "--ref", raw, "--test", decoded, *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frame_count"] == len(frames)
        assert report["average"]["psnr_y"] > 25.0

    def test_anchor_frames_beat_colorized_frames(self, raw_input, tmp_path):
        weights = tmp_path / "w.cgwt"
        stream = tmp_path / "s.cgv"
        decoded = tmp_path / "out.yuv"
        assert run(["train", "--input", raw_input, "--width", 16, "--height", 16,
                    "--steps", 0, "--out", weights]) == 0
        assert run(["encode", "--input", raw_input, "--width", 16, "--height", 16,
                    "--weights", weights, "--qp", 32, "--gop", 3, "--out", stream]) == 0
        assert run(["decode", "--input", stream, "--out", decoded]) == 0
        source = synthetic_frames()
        out = cs.frames_from_bytes(decoded.read_bytes(), 16, 16, cs.SubsamplingMode.S444)
        quality = [metrics.psnr_frame(a, b) for a, b in zip(source, out)]
        anchors = {0, 3}
        combined = [q["combined"] for q in quality]
        anchor_mean = np.mean([combined[i] for i in anchors])
        other_mean = np.mean([c for i, c in enumerate(combined) if i not in anchors])
        assert anchor_mean >= other_mean
        # coded chroma must beat the untrained colorizer on every frame
        chroma = [(q["cb"] + q["cr"]) / 2 for q in quality]
        worst_anchor = min(chroma[i] for i in anchors)
        best_other = max(c for i, c in enumerate(chroma) if i not in anchors)
        assert worst_anchor > best_other

    def test_seed_env_var_overrides_flag(self, raw_input, tmp_path, monkeypatch):
        base = ["train", "--input", raw_input, "--width", 16, "--height", 16,
                "--steps", 1, "--loss-weights", "0,1,0,0"]
        w1, w2, w3 = (tmp_path / n for n in ("a.cgwt", "b.cgwt", "c.cgwt"))
        monkeypatch.delenv("CHROMACODEC_SEED", raising=False)
        assert run(base + ["--seed", 3, "--out", w1]) == 0
        assert run(base + ["--seed", 99, "--out", w3]) == 0
        monkeypatch.setenv("CHROMACODEC_SEED", "3")
        assert run(base + ["--seed", 99, "--out", w2]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert w1.read_bytes() != w3.read_bytes()

    def test_loss_group_selects_published_weights(self, raw_input, tmp_path, capsys):
        rc = run(["train", "--input", raw_input, "--width", 16, "--height", 16,
                  "--steps", 0, "--loss-group", "G2", "--out", tmp_path / "w.cgwt"])
        assert rc == 0
        config_line = capsys.readouterr().err.splitlines()[0]
        cfg = json.loads(config_line.removeprefix("config: "))
        assert cfg["loss_weights"] == [1.0, 100.0, 0.0, 100.0]


class TestRdReport:
    def test_reproduces_published_silent_summary(self, tmp_path):
        anchor_csv = tmp_path / "anchor.csv"
        proposed_csv = tmp_path / "proposed.csv"
        save_curve(anchor_csv, ref.anchor_points("Silent"))
        save_curve(proposed_csv, ref.proposed_points("Silent"))
        out = tmp_path / "bd.json"
        rc = run(["rd-report", "--anchor", anchor_csv, "--proposed", proposed_csv, "--out", out])
        assert rc == 0
        report = json.loads(out.read_text())
        assert abs(report["bd_rate_percent"] - (-90.46)) < 0.5
        assert abs(report["bd_psnr_db"] - 6.811) < 0.05
        assert len(report["points"]) == 4
        assert abs(report["points"][0]["delta_br_percent"] - (-15.70)) < 0.01

    def test_pairs_of_different_qp_are_data_error(self, tmp_path, capsys):
        anchor, proposed = tmp_path / "a.csv", tmp_path / "b.csv"
        save_curve(anchor, [(r, q, qp - 5) for r, q, qp in ref.anchor_points("Silent")])
        save_curve(proposed, ref.proposed_points("Silent"))
        assert run(["rd-report", "--anchor", anchor, "--proposed", proposed]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "anchor qp 37 with proposed qp 42" in captured.err

    def test_unequal_point_counts_are_data_error(self, tmp_path, capsys):
        anchor, proposed = tmp_path / "a.csv", tmp_path / "b.csv"
        save_curve(anchor, [*ref.anchor_points("Silent"), (9800.0, 38.1, 22)])
        save_curve(proposed, ref.proposed_points("Silent"))
        assert run(["rd-report", "--anchor", anchor, "--proposed", proposed]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "by rate: 5 and 4" in captured.err

    def test_missing_curve_file(self, tmp_path, capsys):
        rc = run(["rd-report", "--anchor", tmp_path / "a.csv", "--proposed", tmp_path / "b.csv"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_csv_with_byte_order_mark(self, tmp_path, capsys):
        anchor, proposed = tmp_path / "a.csv", tmp_path / "b.csv"
        save_curve(anchor, ref.anchor_points("Silent"))
        save_curve(proposed, ref.proposed_points("Silent"))
        proposed.write_bytes(b"\xef\xbb\xbf" + proposed.read_bytes())
        assert run(["rd-report", "--anchor", anchor, "--proposed", proposed]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["bd_rate_percent"] - (-90.46)) < 0.5

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        good = tmp_path / "a.csv"
        save_curve(good, ref.anchor_points("Silent"))
        bad = tmp_path / "b.csv"
        bad.write_bytes(b"qp,bitrate_kbps,psnr_db\n\xff\xfe,1,2\n")
        assert run(["rd-report", "--anchor", good, "--proposed", bad]) == 3
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("psnr", [1e200, 1e308])
    def test_non_converging_bd_fit_is_data_error(self, tmp_path, psnr):
        # in a child process, so that a LAPACK complaint, which C buffers on
        # stdout until exit, would show
        anchor = metrics.curve(ref.anchor_points("Silent"))
        good = tmp_path / "a.csv"
        save_curve(good, anchor.points)
        bad = tmp_path / "b.csv"
        points = [(p.bitrate, psnr if i == 0 else p.psnr) for i, p in enumerate(anchor.points)]
        save_curve(bad, points)
        code = "import sys; from chromacodec import cli; sys.exit(cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "rd-report", "--anchor", str(good), "--proposed", str(bad)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "cubic fit" in errors[0] and "DLASCL" not in proc.stderr

    def test_rank_deficient_bd_fit_is_data_error(self, tmp_path, capsys):
        # three equal PSNRs leave two distinct x for the cubic rate fit
        good = tmp_path / "a.csv"
        save_curve(good, ref.anchor_points("Silent"))
        bad = tmp_path / "b.csv"
        bad.write_text(",100,30.0\n,200,30.0\n,400,30.0\n,800,31.0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["rd-report", "--anchor", good, "--proposed", bad]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cubic fit" in captured.err and "Traceback" not in captured.err

    def test_non_finite_report_is_data_error(self, tmp_path, capsys):
        good = tmp_path / "a.csv"
        save_curve(good, ref.anchor_points("Silent"))
        bad = tmp_path / "b.csv"
        save_curve(bad, ref.OVERFLOWING_PROPOSED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["rd-report", "--anchor", good, "--proposed", bad]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite: bd_rate_percent" in captured.err and "Traceback" not in captured.err

    def test_three_point_curves_are_data_error(self, tmp_path, capsys):
        csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in csvs:
            save_curve(path, [(100, 30), (200, 32), (400, 34)])
        assert run(["rd-report", "--anchor", csvs[0], "--proposed", csvs[1]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4 points" in captured.err and "Traceback" not in captured.err

    def test_report_to_stdout(self, tmp_path, capsys):
        curve_csv = tmp_path / "c.csv"
        save_curve(curve_csv, ref.anchor_points("Johnny"))
        rc = run(["rd-report", "--anchor", curve_csv, "--proposed", curve_csv])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["bd_rate_percent"]) < 1e-6
