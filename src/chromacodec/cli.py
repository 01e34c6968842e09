"""Command line front end: train, encode, decode, eval, rd-report."""

import argparse
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

from . import colorspace as cs
from . import losses, metrics, network, pipeline, trainer
from .errors import ConfigError, DataError, DimensionError, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_loss_weights(args) -> tuple:
    group, text = args.loss_group, args.loss_weights
    if group and text:
        raise ConfigError("pass either --loss-group or --loss-weights, not both")
    if group:
        return astuple(losses.LOSS_GROUPS[group])
    if not text:
        return astuple(losses.LossWeights())
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--loss-weights needs 4 comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad --loss-weights {text!r}: {exc}") from exc


def _apply_overrides(args) -> None:
    """CHROMACODEC_SEED replaces --seed; loss flags become four weights."""
    if args.command != "train":
        return
    env_seed = os.environ.get("CHROMACODEC_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"CHROMACODEC_SEED must be an integer, got {env_seed!r}") from exc
    args.loss_weights = _parse_loss_weights(args)


# ---------------------------------------------------------------------------
# input and output helpers
# ---------------------------------------------------------------------------


def _load_frames(path_str: str, args, mode: str):
    """Read a PPM file, a directory of PPM files, or headerless raw video in `mode`.

    Output is always a 4:4:4 frame list; subsampled raw input is upsampled.
    """
    path = Path(path_str)
    if path.is_dir():
        files = sorted(path.glob("*.ppm"))
        if not files:
            raise DataError(f"no .ppm files in directory {path}")
        return [cs.rgb_to_ycbcr(cs.ppm_to_rgb(f.read_bytes())) for f in files]
    if not path.is_file():
        raise DataError(f"input not found: {path}")
    if path.suffix.lower() == ".ppm":
        return [cs.rgb_to_ycbcr(cs.ppm_to_rgb(path.read_bytes()))]
    if not args.width or not args.height:
        raise ConfigError("raw input is headerless: pass --width and --height")
    mode = cs.SubsamplingMode.parse(mode)
    frames = cs.frames_from_bytes(path.read_bytes(), args.width, args.height, mode)
    return [f if f.mode is cs.SubsamplingMode.S444 else cs.upsample(f) for f in frames]


def _write_frames(out_str: str, frames) -> None:
    """PPM directory when the path has no suffix, raw 4:4:4 file otherwise."""
    out = Path(out_str)
    if out.suffix.lower() == ".ppm":
        if len(frames) != 1:
            raise ConfigError(f"cannot write {len(frames)} frames to a single .ppm")
        out.write_bytes(cs.rgb_to_ppm(cs.ycbcr_to_rgb(frames[0])))
    elif out.suffix:
        out.write_bytes(cs.frames_to_bytes(frames))
    else:
        out.mkdir(parents=True, exist_ok=True)
        for i, frame in enumerate(frames):
            (out / f"frame_{i:04d}.ppm").write_bytes(cs.rgb_to_ppm(cs.ycbcr_to_rgb(frame)))


def _emit_json(report: dict, out) -> None:
    text = metrics.report_to_json(report)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    train_config = trainer.TrainConfig(
        steps=args.steps, seed=args.seed, weights=losses.LossWeights(*args.loss_weights)
    )
    frames = _load_frames(args.input, args, args.mode)
    net_config = network.NetworkConfig(
        width=frames[0].y.width,
        height=frames[0].y.height,
        base_channels=args.channels,
        use_attention=not args.no_attention,
        use_glrc=not args.no_glrc,
    )
    gop = pipeline.split_gops(len(frames), args.gop)
    pairs = trainer.build_training_set(frames, gop, args.qp)
    gen = network.init_generator(net_config, args.seed)
    disc = network.init_discriminator(net_config, args.seed)
    history = trainer.train(gen, disc, net_config, pairs, train_config)
    Path(args.out).write_bytes(network.serialize_weights(gen, net_config))
    if args.loss_log:
        Path(args.loss_log).write_text(trainer.history_to_csv(history), encoding="utf-8")
    final = history[-1].total if history else float("nan")
    print(f"trained {args.steps} steps on {len(pairs)} anchor pairs, final loss {final:.6g}")
    return EXIT_OK


def cmd_encode(args) -> int:
    frames = _load_frames(args.input, args, args.mode)
    gen, net_config = network.deserialize_weights(Path(args.weights).read_bytes())
    gop = pipeline.split_gops(len(frames), args.gop)
    video, kbps = pipeline.encode_sequence(frames, args.qp, gop, gen, net_config, args.fps)
    Path(args.out).write_bytes(pipeline.serialize_video(video))
    print(f"encoded {len(frames)} frames at {kbps:.3f} kbps")
    print(metrics.report_to_json(pipeline.bitrate_report(video, args.fps)))
    return EXIT_OK


def cmd_decode(args) -> int:
    video = pipeline.deserialize_video(Path(args.input).read_bytes())
    frames = pipeline.decode_sequence(video)
    _write_frames(args.out, frames)
    print(f"decoded {len(frames)} frames of {video.width}x{video.height}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ref = _load_frames(args.ref, args, args.mode)
    test = _load_frames(args.test, args, "4:4:4")  # the only layout `decode` writes
    if len(ref) != len(test):
        raise DataError(f"frame count mismatch: ref {len(ref)} vs test {len(test)}")
    rows = []
    for a, b in zip(ref, test):
        quality = metrics.psnr_frame(a, b)
        rows.append(
            {
                "psnr_y": quality["y"],
                "psnr_cb": quality["cb"],
                "psnr_cr": quality["cr"],
                "psnr_combined": quality["combined"],
                "ssim_y": metrics.ssim(a.y, b.y),
            }
        )
    average = {
        key: sum(r[key] for r in rows) / len(rows) for key in rows[0]
    }
    _emit_json({"frame_count": len(rows), "frames": rows, "average": average}, args.out)
    return EXIT_OK


def cmd_rd_report(args) -> int:
    anchor = metrics.curve_from_csv(Path(args.anchor).read_bytes())
    proposed = metrics.curve_from_csv(Path(args.proposed).read_bytes())
    _emit_json(metrics.comparison_report(anchor, proposed), args.out)
    return EXIT_OK


_DISPATCH = {
    "train": cmd_train,
    "encode": cmd_encode,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "rd-report": cmd_rd_report,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_raw_flags(sub) -> None:
    sub.add_argument("--width", type=int, help="raw input width in pixels")
    sub.add_argument("--height", type=int, help="raw input height in pixels")
    sub.add_argument("--mode", default="4:4:4", help="raw input subsampling (default 4:4:4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromacodec",
        description="Video compression that drops chroma and restores it with a learned colorizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit colorizer weights on a sequence's anchor frames")
    p.add_argument("--input", required=True, help="raw 4:4:4 file, PPM file, or PPM directory")
    _add_raw_flags(p)
    p.add_argument("--qp", type=int, default=32)
    p.add_argument("--gop", type=int, default=6)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=8, help="base channel width, 6 to 64")
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--no-glrc", action="store_true")
    p.add_argument("--loss-group", choices=sorted(losses.LOSS_GROUPS))
    p.add_argument("--loss-weights", help="gan,mse,content,color")
    p.add_argument("--loss-log", help="write per-step loss CSV here")
    p.add_argument("--out", required=True, help="weights file to write")

    p = sub.add_parser("encode", help="compress a sequence")
    p.add_argument("--input", required=True)
    _add_raw_flags(p)
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--qp", type=int, default=32)
    p.add_argument("--gop", type=int, default=6)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out", required=True, help="compressed stream to write")

    p = sub.add_parser("decode", help="decompress a stream")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="raw file (suffix) or PPM directory (no suffix)")

    p = sub.add_parser("eval", help="compare decoded frames against a reference")
    p.add_argument("--ref", required=True, help="source frames; --mode applies to a raw --ref")
    p.add_argument("--test", required=True, help="decoded frames: raw 4:4:4, PPM file or directory")
    _add_raw_flags(p)
    p.add_argument("--out", help="report JSON (stdout when omitted)")

    p = sub.add_parser("rd-report", help="rate-distortion deltas and BD summary of two curves")
    p.add_argument("--anchor", required=True)
    p.add_argument("--proposed", required=True)
    p.add_argument("--out", help="report JSON (stdout when omitted)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_overrides(args)
        print("config: " + json.dumps(vars(args), sort_keys=True), file=sys.stderr)
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
