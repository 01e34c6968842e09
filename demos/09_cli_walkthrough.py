"""Drive the command line end to end inside a scratch directory.

Run: python3 demos/09_cli_walkthrough.py   (about ten seconds)
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from chromacodec import cli
from chromacodec import colorspace as cs

def clip(n=4, size=16):
    frames = []
    for i in range(n):
        rgb = np.full((size, size, 3), 120, dtype=np.uint8)
        rgb[4:12, 2 * i : 2 * i + 6] = (250, 40, 40)
        frames.append(cs.rgb_to_ycbcr(rgb))
    return frames

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    source = tmp / "clip.yuv"
    source.write_bytes(cs.frames_to_bytes(clip()))
    dims = ["--width", "16", "--height", "16"]

    def run(*args):
        argv = [str(a) for a in args]
        print("$ chromacodec " + " ".join(argv))
        rc = cli.main(argv)
        print(f"  -> exit {rc}")
        assert rc == 0

    run("train", "--input", source, *dims, "--qp", "32", "--gop", "2",
        "--steps", "5", "--seed", "0", "--out", tmp / "weights.cgwt")
    run("encode", "--input", source, *dims, "--weights", tmp / "weights.cgwt",
        "--qp", "32", "--gop", "2", "--out", tmp / "stream.cgv")
    run("decode", "--input", tmp / "stream.cgv", "--out", tmp / "decoded.yuv")
    run("eval", "--ref", source, "--test", tmp / "decoded.yuv", *dims,
        "--out", tmp / "report.json")

    report = json.loads((tmp / "report.json").read_text())
    print("average:", {k: round(v, 2) if isinstance(v, float) else v
                       for k, v in report["average"].items()})

    # Error handling: a missing input maps to the data-error exit code.
    rc = cli.main(["decode", "--input", str(tmp / "missing.cgv"), "--out", str(tmp / "x.yuv")])
    print("missing input exit code:", rc)
    assert rc == 3
