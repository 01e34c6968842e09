"""chromacodec benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload desk64 --seed 0 --seconds 40 --trace 0

One process, one operation at a time, BLAS/OpenMP pinned to one thread.
`--trace 0` times the program with nothing wrapped and prints the
end-to-end metrics; `--trace 1` runs the same fixed work three times,
untraced, traced and untraced again, and prints the per-layer metrics. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the same object, and in traced runs every span, is written
under perfbench/out/.
"""

import os

# fixed before NumPy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "chromacodec" / "__init__.py").is_file():
    # benchmark the checkout's own sources, never an installed copy
    sys.exit(f"perfbench: no chromacodec sources under {SRC}")
sys.path.insert(0, str(SRC))

from chromacodec import metrics, network, pipeline, trainer  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import QPS, REPORT_QP, WORKLOADS, Workload, make_frames, rectangle_scene  # noqa: E402

SETUP_REPEATS = 21
FPS = 30.0


@dataclass
class Setup:
    frames: list
    gop: object
    config: object
    gen: object
    disc: object
    pairs: list


def warm_up(wl: Workload):
    """First calls of every timed path at 16×16, so no timed phase pays for them."""
    frames = rectangle_scene(16, 16, 2, 0)
    gop = pipeline.split_gops(2, min(wl.gop, 2))
    config = network.NetworkConfig(16, 16, use_attention=wl.use_attention)
    gen = network.init_generator(config, seed=0)
    pairs = trainer.build_training_set(frames, gop, REPORT_QP)
    disc = network.init_discriminator(config, seed=0)
    trainer.train(gen, disc, config, pairs, trainer.TrainConfig(steps=1))
    video, _ = pipeline.encode_sequence(frames, REPORT_QP, gop, gen, config)
    pipeline.decode_sequence(pipeline.deserialize_video(pipeline.serialize_video(video)))


def setup(wl: Workload, seed: int) -> Setup:
    frames = make_frames(wl, seed)
    gop = pipeline.split_gops(len(frames), wl.gop)
    config = network.NetworkConfig(wl.width, wl.height, use_attention=wl.use_attention)
    gen = network.init_generator(config, seed=0)
    pairs = trainer.build_training_set(frames, gop, REPORT_QP)
    disc = network.init_discriminator(config, seed=0)
    warm_up(wl)
    return Setup(frames, gop, config, gen, disc, pairs)


def in_child(fn, *args):
    """Run fn(*args) in a forked child; return (its result, the child's peak RSS in MB).

    The child starts from this process's memory, so its high-water mark
    covers exactly the phase it runs plus what the parent already held.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps((True, fn(*args)))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
            code = 1
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    ok, value = pickle.loads(data) if data else (False, f"child exited with status {status}")
    if not ok:
        raise RuntimeError(f"benchmark child failed:\n{value}")
    return value, usage.ru_maxrss / 1024.0


def train_phase(st: Setup, steps: int, tracer=None):
    """One trainer.train call, meant for a child process.

    Untraced, network.generator_forward is wrapped to stamp each call:
    train makes one per step, at the step's start, so the stamps split
    the call's wall time into steps.
    """
    starts = []
    forward = network.generator_forward

    def stamped(*args, **kw):
        starts.append(time.perf_counter())
        return forward(*args, **kw)

    def run():
        return trainer.train(st.gen, st.disc, st.config, st.pairs, trainer.TrainConfig(steps=steps))

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if tracer:
        history = tracer.run("train", run)
    else:
        network.generator_forward = stamped
        try:
            history = run()
        finally:
            network.generator_forward = forward
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    step_times = [b - a for a, b in zip(starts, starts[1:] + [end])]
    seconds = end - start
    return {
        "seconds": seconds,
        # the median step, unless the stamps do not match the steps
        "step_s": statistics.median(step_times) if len(starts) == steps else seconds / steps,
        "sys_s": after.ru_stime - before.ru_stime,
        "minflt": after.ru_minflt - before.ru_minflt,
        "history": [(r.gan, r.mse, r.content, r.color, r.total, r.disc) for r in history],
        "blob": network.serialize_weights(st.gen, st.config),
        "spans": tracer.spans if tracer else None,
    }


def encode_round(frames, gop, gen, config):
    """encode_sequence + serialize_video at every QP: the encoder as a user runs it."""
    out = []
    for qp in QPS:
        video, _ = pipeline.encode_sequence(frames, qp, gop, gen, config)
        out.append((video, pipeline.serialize_video(video)))
    return out


def decode_round(streams):
    return [pipeline.decode_sequence(pipeline.deserialize_video(data)) for data in streams]


class Encoder:
    """Encodes the frames one stream at a time, cycling through the QPs.

    Each stream is `encode_sequence` + `serialize_video`, the encoder as a
    user runs it. The first full round is kept for decoding and checking.
    """

    def __init__(self, st: Setup, gen):
        self.st, self.gen = st, gen
        self.times, self.first_round = [], []

    def one(self) -> float:
        st = self.st
        qp = QPS[len(self.times) % len(QPS)]
        start = time.perf_counter()
        video, _ = pipeline.encode_sequence(st.frames, qp, st.gop, self.gen, st.config)
        data = pipeline.serialize_video(video)
        self.times.append(time.perf_counter() - start)
        if len(self.first_round) < len(QPS):
            self.first_round.append((video, data))
        return self.times[-1]

    def burst(self, budget: float):
        """Whole streams until the next would overrun budget seconds; at least one."""
        spent = self.one()
        while spent + statistics.fmean(self.times) <= budget:
            spent += self.one()

    def finish_round(self):
        while len(self.times) % len(QPS):
            self.one()


def decode_phase(streams, tracer=None):
    start = time.perf_counter()
    decoded = tracer.run("decode", decode_round, streams) if tracer else decode_round(streams)
    seconds = time.perf_counter() - start
    return {"decoded": decoded, "seconds": seconds, "spans": tracer.spans if tracer else None}


class Run:
    """One pass over a workload: train once, then encode and decode.

    Without a budget, encode and decode run exactly one round each (every
    QP once), each under its own tracer when a tracer factory is given.
    With a budget in seconds, encoded and decoded streams interleave for
    their shares of it. An untraced pass ends with the all-anchor
    reference sweep, outside the timed phases.
    Training is a fixed number of steps in one trainer.train call and is
    not part of the budget. An operation that raises ends the run.
    """

    def __init__(self, wl: Workload, st: Setup, budget=None, tracer_factory=None):
        self.wl, self.st = wl, st
        new_tracer = tracer_factory or (lambda: None)
        start = time.perf_counter()
        self.train, self.train_rss = in_child(train_phase, st, wl.train_steps, new_tracer())
        self.attempted = 1
        self.gen, _ = network.deserialize_weights(self.train["blob"])
        segments = [self.train["spans"]]

        if budget is None:
            tracer = new_tracer()
            args = (st.frames, st.gop, self.gen, st.config)
            self.encoded = tracer.run("encode", encode_round, *args) if tracer else encode_round(*args)
            segments.append(tracer and tracer.spans)
            streams = [data for _, data in self.encoded]
            result, self.decode_rss = in_child(decode_phase, streams, new_tracer())
            self.decoded = result["decoded"]
            segments.append(result["spans"])
            self.attempted += 2 * len(QPS)
        else:
            self._interleave(budget, wl.encode_share)
            self.attempted += len(self.enc_times) + len(self.dec_times)
        self.wall = time.perf_counter() - start
        self.spans = tracing.merge(*segments) if tracer_factory else None

        self.reference = self.reference_decoded = None
        if not tracer_factory:
            # all-anchor (GOP 1) streams of the same frames: the BD-rate baseline
            gop = pipeline.split_gops(len(st.frames), 1)
            self.reference = encode_round(st.frames, gop, self.gen, st.config)
            self.reference_decoded = decode_round([data for _, data in self.reference])
            self.attempted += 2 * len(QPS)

    def _interleave(self, budget: float, share: float):
        """Decode one stream at a time, each in its own child and cycling
        through the QPs, with an encode burst after every stream that
        takes `share` of the time the two take together.

        The host's CPU speed drifts by ±10% over tens of seconds, so both
        phases are spread over the whole run rather than one stretch of it.
        A stream starts only if it and its burst still fit the budget at
        the mean pace so far; every QP is decoded at least once.
        """
        encoder = Encoder(self.st, self.gen)
        for _ in QPS:
            encoder.one()
        streams = [data for _, data in encoder.first_round]
        ratio = share / (1.0 - share)
        self.decoded, self.dec_times, self.decode_rss = [], [], 0.0
        while len(self.dec_times) < len(QPS) or (
            sum(self.dec_times) + statistics.fmean(self.dec_times)
        ) * (1.0 + ratio) <= budget:
            result, rss = in_child(decode_phase, [streams[len(self.dec_times) % len(QPS)]])
            self.decode_rss = max(self.decode_rss, rss)
            if len(self.decoded) < len(QPS):
                self.decoded += result["decoded"]
            self.dec_times.append(result["seconds"])
            encoder.burst(ratio * result["seconds"])
        encoder.finish_round()
        self.encoded, self.enc_times = encoder.first_round, encoder.times


def colorized(wl: Workload, gop):
    return [i for i in range(wl.frames) if not gop.is_anchor(i)]


def verify(run: Run):
    """Run every check; return the rate/quality metrics they vouch for, and the QP 32 report."""
    try:
        return _verify(run)
    except checks.CheckFailed as exc:
        exc.attempted = run.attempted
        raise


def _verify(run: Run):
    wl, st = run.wl, run.st
    anchors = {i for i in range(wl.frames) if st.gop.is_anchor(i)}
    checks.check_losses(run.train["history"], "training")
    checks.check_weights(run.train["blob"], "trained weights")
    sweeps = [
        ("stream", run.encoded, run.decoded, anchors),
        ("all-anchor", run.reference, run.reference_decoded, set(range(wl.frames))),
    ]
    curves = {}
    for label, encoded, decoded, anchor_set in sweeps:
        for qp, (video, data), frames in zip(QPS, encoded, decoded):
            what = f"{label} QP {qp}"
            checks.check_stream(video, data, what)
            report = pipeline.bitrate_report(video, FPS)
            checks.check_bits(report, len(data), what)
            checks.check_frames(st.frames, frames, qp, anchor_set, what)
            curves[label, qp] = (report, checks.mean_frame_psnr(st.frames, frames))
    report, psnr = curves["stream", REPORT_QP]
    decoded = run.decoded[QPS.index(REPORT_QP)]
    painted = colorized(wl, st.gop)
    checks.check_beats_gray(st.frames, decoded, painted, f"QP {REPORT_QP}")
    chroma = []
    for i in painted:
        for name in ("cb", "cr"):
            a, b = getattr(st.frames[i], name).samples, getattr(decoded[i], name).samples
            value = metrics.psnr(a, b)
            checks.check_psnr(a, b, value, f"frame {i} {name}")
            chroma.append(value)
    out = {
        "stream_kbps": report["kbps"],
        "payload_kbps": report["kbps_without_model"],
        "psnr_db": psnr,
        "chroma_psnr_db": statistics.fmean(chroma),
    }
    anchor = [
        (curves["all-anchor", qp][0]["kbps_without_model"], curves["all-anchor", qp][1])
        for qp in QPS
    ]
    for metric, key in (("bd_rate_ratio", "kbps"), ("bd_rate_payload_ratio", "kbps_without_model")):
        proposed = [(curves["stream", qp][0][key], curves["stream", qp][1]) for qp in QPS]
        value = metrics.bd_rate(metrics.curve(anchor), metrics.curve(proposed))
        checks.check_bd(anchor, proposed, value, metric)
        out[metric] = 1.0 + value / 100.0
    return out, report


UNITS = {
    "setup_s": "s",
    "train_step_s": "s/step",
    "train_peak_rss_mb": "MB",
    "encode_fps": "frames/s",
    "decode_fps": "frames/s",
    "decode_peak_rss_mb": "MB",
    "stream_kbps": "kbit/s",
    "payload_kbps": "kbit/s",
    "psnr_db": "dB",
    "chroma_psnr_db": "dB",
    "bd_rate_ratio": "ratio",
    "bd_rate_payload_ratio": "ratio",
}


def end_to_end(wl: Workload, seed: int, seconds: float):
    setups = []

    def timed_setup():
        start = time.perf_counter()
        st = setup(wl, seed)
        setups.append(time.perf_counter() - start)
        return st

    # set-up repeats before and after the timed phases, which spreads it over
    # the run for the same reason encode and decode interleave
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        st = timed_setup()
    run = Run(wl, st, seconds)
    for _ in range(SETUP_REPEATS // 2):
        timed_setup()
    values, _ = verify(run)
    frames = wl.frames * len(QPS)
    values["setup_s"] = statistics.median(setups)
    # medians, so that a stretch of slow host moves a few samples, not the figure
    rounds = [sum(run.enc_times[i : i + len(QPS)]) for i in range(0, len(run.enc_times), len(QPS))]
    values["encode_fps"] = frames / statistics.median(rounds)
    values["decode_fps"] = wl.frames / statistics.median(run.dec_times)
    values["decode_peak_rss_mb"] = run.decode_rss
    values["train_step_s"] = run.train["step_s"]
    values["train_peak_rss_mb"] = run.train_rss
    return run.attempted, {k: (v, UNITS[k]) for k, v in values.items()}, None


def traced(wl: Workload, seed: int):
    """The same fixed work untraced, traced, and untraced again.

    Per-layer figures come from the traced pass. The untraced passes on
    either side of it give the baseline for trace.overhead_s, so that
    neither a first-pass cost nor a drift of the host lands in it.
    """
    st = setup(wl, seed)
    plain = Run(wl, st)
    _, report = verify(plain)
    inner = Run(wl, st, tracer_factory=tracing.Tracer)
    after = Run(wl, st)
    attempted = plain.attempted + inner.attempted + after.attempted
    if [d for _, d in inner.encoded] != [d for _, d in plain.encoded] or (
        inner.train["blob"] != plain.train["blob"]
    ):
        exc = checks.CheckFailed("the traced pass produced different weights or streams")
        exc.attempted = attempted
        raise exc
    spans = inner.spans
    steps = wl.train_steps
    setup_tracer = tracing.Tracer()
    # looked up at call time, so that the wrapper the tracer installs is the one called
    setup_tracer.run("setup", lambda: trainer.build_training_set(st.frames, st.gop, REPORT_QP))
    spans = tracing.merge(setup_tracer.spans, spans)
    values = tracing.layer_metrics(
        spans,
        steps=steps,
        colorized=len(colorized(wl, st.gop)) * len(QPS),
        frames=wl.frames * len(QPS),
    )
    values["trainer.step.sys_s"] = plain.train["sys_s"] / steps
    values["trainer.step.minflt"] = plain.train["minflt"] / steps
    for part in ("anchor", "luma", "model", "overhead"):
        values[f"pipeline.{part}_bits"] = report[f"{part}_bits"]
    values["trace.overhead_s"] = inner.wall - (plain.wall + after.wall) / 2
    return attempted, {k: (v, tracing.unit(k)) for k, v in values.items()}, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    correct = True
    try:
        if args.trace:
            attempted, values, spans = traced(wl, args.seed)
        else:
            attempted, values, spans = end_to_end(wl, args.seed, args.seconds)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, attempted, values, spans = False, max(exc.attempted, 1), {}, None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        with open(out_dir / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attr"], "spans": spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
