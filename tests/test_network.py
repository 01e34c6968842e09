"""Generator/discriminator geometry, ablation identities, and weight I/O."""

import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chromacodec import ConfigError, DataError, DimensionError
from chromacodec import network as net
from chromacodec import tensor as T

SRC = Path(__file__).resolve().parent.parent / "src"


def small_config(**kw):
    base = dict(width=16, height=16, base_channels=8)
    base.update(kw)
    return net.NetworkConfig(**base)


def unrolled_generator_forward(store, config, luma):
    """Reference: the generator with every stage output named until it
    returns, and each residual block written as one sum."""

    def skip(level, x):
        r = x
        for j in range(1, 5):
            prefix = f"rc{level}.b{j}"
            r = net._conv(store, f"{prefix}.f3", r, 1, 1) + net._conv(store, f"{prefix}.f1", r)
        if config.use_glrc:
            r = net._conv(store, f"rc{level}.glrc", x) + r
        if config.use_attention:
            r = net.self_attention(store, f"att{level}", r)
        return r

    m1 = net.multires_block(store, "m1", luma)
    m2 = net.multires_block(store, "m2", T.maxpool2(m1))
    m3 = net.multires_block(store, "m3", T.maxpool2(m2))
    m4 = net.multires_block(store, "m4", T.maxpool2(m3))
    d1 = T.concat([m4, skip(4, m4)], axis=1)
    u1 = T.relu(T.conv_transpose2d(d1, store["up1.w"], store["up1.b"], 2))
    d2 = T.concat([u1, skip(3, m3)], axis=1)
    u2 = T.relu(T.conv_transpose2d(d2, store["up2.w"], store["up2.b"], 2))
    d3 = T.concat([u2, skip(2, m2)], axis=1)
    u3 = T.relu(T.conv_transpose2d(d3, store["up3.w"], store["up3.b"], 2))
    d4 = T.concat([u3, skip(1, m1)], axis=1)
    return T.tanh(net._conv(store, "head", d4))


class TestConfig:
    def test_frame_dims_are_neither_checked_nor_compared(self):
        # the weights fit any frame size: the frame check is pipeline._frame_dims
        assert net.NetworkConfig(20, 20) == net.NetworkConfig(16, 24) == net.NetworkConfig()
        assert hash(net.NetworkConfig(20, 20)) == hash(net.NetworkConfig())
        assert net.NetworkConfig(20, 20) != net.NetworkConfig(20, 20, base_channels=12)

    def test_min_channels(self):
        for channels in (3, 5):  # 6 is the narrowest multires split
            with pytest.raises(ConfigError):
                net.NetworkConfig(width=16, height=16, base_channels=channels)

    def test_max_channels(self):
        assert net.NetworkConfig(width=16, height=16, base_channels=64).base_channels == 64
        for channels in (65, 100_000):
            with pytest.raises(ConfigError, match="6..64"):
                net.NetworkConfig(width=16, height=16, base_channels=channels)

    def test_split_rule(self):
        assert net.multires_split(12) == (2, 4, 6)
        assert net.multires_split(6) == (1, 2, 3)
        assert net.multires_split(16) == (2, 5, 9)


class TestMultiresBlock:
    def test_zero_input_zero_bias_gives_zero(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=3)
        x = T.Tensor(np.zeros((1, 1, 16, 16)))
        out = net.multires_block(store, "m1", x)
        assert np.all(out.data == 0.0)

    def test_output_channels(self):
        cfg = small_config(base_channels=12)
        store = net.init_generator(cfg, seed=3)
        x = T.Tensor(np.random.default_rng(0).standard_normal((1, 1, 16, 16)))
        assert net.multires_block(store, "m1", x).shape == (1, 12, 16, 16)

    def test_gradient(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=4)
        params = [store["m1.c1.w"], store["m1.c3.b"], store["m1.sc.w"]]
        rng = np.random.default_rng(1)
        x = T.Tensor(rng.standard_normal((1, 1, 8, 8)), requires_grad=True)

        def fn(*_):
            return T.mean(T.square(net.multires_block(store, "m1", x)))

        err = T.grad_check(fn, params + [x], seed=2, max_coords=10)
        assert err < 1e-4


class TestOptimizedRC:
    def test_zero_blocks_leave_glrc_only(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=5)
        for j in range(1, 5):
            for leaf in ("f3.w", "f3.b", "f1.w", "f1.b"):
                store[f"rc1.b{j}.{leaf}"].data[:] = 0.0
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.standard_normal((1, 8, 8, 8)))
        out = net.optimized_rc(store, "rc1", x, use_glrc=True)
        glrc = T.conv2d(x, store["rc1.glrc.w"], store["rc1.glrc.b"])
        assert np.array_equal(out.data, glrc.data)

    def test_no_glrc_is_residual_stack_only(self):
        cfg = small_config(use_glrc=False)
        store = net.init_generator(cfg, seed=6)
        assert "rc1.glrc.w" not in store
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.standard_normal((1, 8, 8, 8)))
        out = net.optimized_rc(store, "rc1", x, use_glrc=False)
        r = x
        for j in range(1, 5):
            r = T.conv2d(r, store[f"rc1.b{j}.f3.w"], store[f"rc1.b{j}.f3.b"], 1, 1) + T.conv2d(
                r, store[f"rc1.b{j}.f1.w"], store[f"rc1.b{j}.f1.b"]
            )
        assert np.array_equal(out.data, r.data)

    def test_gradient_through_chain(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=7)
        params = [store["rc1.b1.f3.w"], store["rc1.b4.f1.w"], store["rc1.glrc.w"]]
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal((1, 8, 6, 6)), requires_grad=True)

        def fn(*_):
            return T.mean(T.square(net.optimized_rc(store, "rc1", x, True)))

        err = T.grad_check(fn, params + [x], seed=5, max_coords=10)
        assert err < 1e-4


class TestSelfAttention:
    def test_zero_gain_is_identity(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=8)
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.standard_normal((1, 8, 6, 6)))
        out = net.self_attention(store, "att1", x)
        assert np.array_equal(out.data, x.data)

    def test_attention_rows_normalized(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=9)
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.standard_normal((1, 8, 4, 4)))
        f = T.reshape(T.conv2d(x, store["att1.f.w"], store["att1.f.b"]), (1, -1, 16))
        g = T.reshape(T.conv2d(x, store["att1.g.w"], T.Tensor(np.zeros(1))), (1, -1, 16))
        attn = T.softmax(T.matmul(T.transpose_last2(f), g))
        assert np.max(np.abs(attn.data.sum(axis=-1) - 1.0)) < 1e-9

    def test_key_channels_round_up(self):
        cfg = small_config(base_channels=12)
        store = net.init_generator(cfg, seed=10)
        assert store["att1.f.w"].shape == (2, 12, 1, 1)  # ceil(12/8) = 2

    def test_keys_carry_no_bias(self):
        # a per-channel constant on the keys shifts each query's scores by a
        # constant along the softmax's key axis, so the output cannot move
        rng = np.random.default_rng(17)
        for k in (1, 2):  # one key channel takes attention's sorted-query path
            f, g = (T.Tensor(rng.standard_normal((1, k, 64))) for _ in "fg")
            h = T.Tensor(rng.standard_normal((1, 8, 64)))
            c = T.Tensor(np.repeat(rng.normal(0.0, 3.0, (1, k, 1)), 64, axis=2))
            shifted = T.attention(f, g + c, h).data
            assert np.max(np.abs(shifted - T.attention(f, g, h).data)) <= 1e-14
        store = net.init_generator(small_config(), seed=10)
        assert [n for n in store if n.startswith("att1.")] == [
            "att1.f.w", "att1.f.b", "att1.g.w", "att1.h.w", "att1.h.b", "att1.gain"
        ]

    def test_gradient_including_gain(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=11)
        store["att1.gain"].data[()] = 0.37  # off the λ=0 saddle
        params = [store["att1.gain"], store["att1.f.w"], store["att1.h.w"]]
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((1, 8, 4, 4)), requires_grad=True)

        def fn(*_):
            return T.mean(T.square(net.self_attention(store, "att1", x)))

        err = T.grad_check(fn, params + [x], seed=8, max_coords=10)
        assert err < 1e-4


class TestGenerator:
    def test_output_shape_64(self):
        cfg = net.NetworkConfig(width=64, height=64, base_channels=8)
        store = net.init_generator(cfg, seed=12)
        luma = T.Tensor(np.zeros((1, 1, 64, 64)))
        assert net.generator_forward(store, cfg, luma).shape == (1, 2, 64, 64)

    def test_output_range(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=13)
        rng = np.random.default_rng(8)
        out = net.generator_forward(store, cfg, T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16))))
        assert np.all(out.data >= -1.0) and np.all(out.data <= 1.0)

    @pytest.mark.parametrize("w,h,c", [(64, 64, 8), (16, 24, 6), (32, 16, 12)])
    def test_stage_shapes_match_size_table(self, w, h, c, monkeypatch):
        cfg = net.NetworkConfig(width=w, height=h, base_channels=c)
        gstore = net.init_generator(cfg, seed=14)
        dstore = net.init_discriminator(cfg, seed=14)
        seen = {}

        def spy(module, name, stages):
            # wrap a module function so each call records the stage sizes it produced
            real = getattr(module, name)

            def wrapper(*args, **kw):
                out = real(*args, **kw)
                seen.update(stages(args, out))
                return out

            monkeypatch.setattr(module, name, wrapper)

        def decoder_join(args, out):
            # the decoder's skip joins are the only two-way concatenations
            if len(args[0]) != 2:
                return {}
            return {f"D{sum(k[0] == 'D' for k in seen) + 1}": out.shape[1:]}

        spy(net, "multires_block", lambda a, out: {"M" + a[1][1:]: out.shape[1:]})
        spy(net, "_skip", lambda a, out: {f"P{a[2]}": a[3].shape[1:], f"A{a[2]}": out.shape[1:]})
        spy(T, "concat", decoder_join)
        spy(net, "_conv", lambda a, out: {a[1].upper(): out.shape[1:]} if a[0] is dstore else {})
        rng = np.random.default_rng(9)
        net.generator_forward(gstore, cfg, T.Tensor(rng.uniform(-1, 1, (1, 1, h, w))))
        net.discriminator_forward(dstore, T.Tensor(rng.uniform(-1, 1, (1, 3, h, w))))
        assert seen == net.generator_level_shapes(cfg)

    @pytest.mark.parametrize("attention", [True, False], ids=["att", "no_att"])
    @pytest.mark.parametrize("glrc", [True, False], ids=["glrc", "no_glrc"])
    @pytest.mark.parametrize("w,h", [(16, 24), (40, 32)])
    def test_matches_unrolled_reference(self, w, h, attention, glrc):
        # same values and same gradients, bit for bit, as the unrolled graph
        cfg = net.NetworkConfig(width=w, height=h, use_attention=attention, use_glrc=glrc)
        rng = np.random.default_rng(19)
        luma = rng.uniform(-1, 1, (1, 1, h, w))
        target = T.Tensor(rng.uniform(-1, 1, (1, 2, h, w)))
        results = []
        for forward in (net.generator_forward, unrolled_generator_forward):
            store = net.init_generator(cfg, seed=20)
            for name in ("att1.gain", "att3.gain"):
                if name in store:  # a nonzero gain, so attention reaches the output
                    store[name].data[...] = 0.5
            out = forward(store, cfg, T.Tensor(luma))
            T.backward(T.mean(T.square(out - target)))
            results.append([out.data] + [store[k].grad for k in sorted(store)])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    # no graph at decode: each activation goes once its last reader has run.
    # Before the level loop, the 176×144 forward peaked at 11.76 MiB and the
    # 64×64 one with attention, on the benchmark's two workers, at 3.76 MiB.
    # Before strip-wise im2col, a whole-frame padded copy put 176×144 at 6.72 MiB
    @pytest.mark.parametrize("w,h,attention,limit_mib", [(176, 144, False, 6.5), (64, 64, True, 3.4)])
    def test_decode_forward_peak_memory(self, w, h, attention, limit_mib, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 2)
        cfg = net.NetworkConfig(width=w, height=h, use_attention=attention)
        blob = net.serialize_weights(net.init_generator(cfg, seed=21), cfg)
        store, _ = net.deserialize_weights(blob)
        luma = T.Tensor(np.random.default_rng(14).uniform(-1, 1, (1, 1, h, w)))
        tracemalloc.start()
        try:
            net.generator_forward(store, cfg, luma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    def test_deterministic_given_seed(self):
        cfg = small_config()
        rng = np.random.default_rng(10)
        luma = rng.uniform(-1, 1, (1, 1, 16, 16))
        outs = []
        for _ in range(2):
            store = net.init_generator(cfg, seed=15)
            outs.append(net.generator_forward(store, cfg, T.Tensor(luma)).data)
        assert np.array_equal(outs[0], outs[1])

    def test_attention_off_matches_zero_gain(self):
        # gains start at zero, so enabling attention must not change outputs
        rng = np.random.default_rng(11)
        luma = rng.uniform(-1, 1, (1, 1, 16, 16))
        cfg_on = small_config(use_attention=True)
        cfg_off = small_config(use_attention=False)
        out_on = net.generator_forward(net.init_generator(cfg_on, 16), cfg_on, T.Tensor(luma))
        out_off = net.generator_forward(net.init_generator(cfg_off, 16), cfg_off, T.Tensor(luma))
        assert np.array_equal(out_on.data, out_off.data)

    def test_bad_input_dims(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=17)
        with pytest.raises(DimensionError):
            net.generator_forward(store, cfg, T.Tensor(np.zeros((1, 1, 12, 16))))
        with pytest.raises(DimensionError):
            net.generator_forward(store, cfg, T.Tensor(np.zeros((1, 2, 16, 16))))

    def test_weight_gradient_small_config(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=18)
        rng = np.random.default_rng(12)
        luma = T.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)))
        params = [store["m1.c1.w"], store["head.w"], store["up2.w"], store["att4.gain"]]

        def fn(*_):
            return T.mean(T.square(net.generator_forward(store, cfg, luma)))

        err = T.grad_check(fn, params, seed=13, max_coords=6)
        assert err < 1e-3

    def test_attention_at_176x144_peaks_under_1_5_gb(self):
        # a dense level-1 score matrix alone would be 25344² × 8 B = 4.8 GiB;
        # the address-space cap turns such a regression into a MemoryError.
        # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts from this
        # process's own peak
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
            import numpy as np
            from chromacodec import network, tensor as T
            cfg = network.NetworkConfig(width=176, height=144, use_attention=True)
            store = network.init_generator(cfg, seed=0)
            luma = np.random.default_rng(0).uniform(-1, 1, (1, 1, 144, 176))
            out = network.generator_forward(store, cfg, T.Tensor(luma))
            assert out.shape == (1, 2, 144, 176)
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) * 1024 < 1.5e9  # VmHWM is in KiB


class TestDiscriminator:
    def test_patch_map_shape_and_range(self):
        cfg = net.NetworkConfig(width=64, height=64, base_channels=8)
        store = net.init_discriminator(cfg, seed=19)
        rng = np.random.default_rng(14)
        out = net.discriminator_forward(store, T.Tensor(rng.uniform(-1, 1, (1, 3, 64, 64))))
        assert out.shape == (1, 1, 8, 8)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_gradient_reaches_input(self):
        cfg = small_config()
        store = net.init_discriminator(cfg, seed=20)
        rng = np.random.default_rng(15)
        img = T.Tensor(rng.uniform(-1, 1, (1, 3, 16, 16)), requires_grad=True)
        T.backward(T.mean(net.discriminator_forward(store, img)))
        assert img.grad is not None and np.any(img.grad != 0.0)

    def test_grad_check_at_one_patch(self):
        # an 8×8 input gives a (1, 1, 1, 1) patch map, checked without a projection
        store = net.init_discriminator(small_config(), seed=22)
        img = T.Tensor(np.random.default_rng(16).uniform(-1, 1, (1, 3, 8, 8)), requires_grad=True)
        params = [store["c1.w"], store["c5.b"], img]
        err = T.grad_check(lambda *_: net.discriminator_forward(store, img), params, max_coords=8)
        assert err < 1e-4

    def test_channel_check(self):
        cfg = small_config()
        store = net.init_discriminator(cfg, seed=21)
        with pytest.raises(DimensionError):
            net.discriminator_forward(store, T.Tensor(np.zeros((1, 2, 16, 16))))


class TestWeightIO:
    def test_round_trip_byte_exact(self):
        cfg = small_config(use_attention=True, use_glrc=False)
        store = net.init_generator(cfg, seed=22)
        blob = net.serialize_weights(store, cfg)
        store2, cfg2 = net.deserialize_weights(blob)
        assert cfg2 == cfg
        assert list(store2) == list(store)
        assert net.serialize_weights(store2, cfg2) == blob

    def test_blob_is_header_and_values(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=31)
        blob = net.serialize_weights(store, cfg)
        params = sum(t.size for t in store.values())
        assert blob[:12] == b"CGWT" + struct.pack("<HIH", 3, 8, 3)  # no frame dims
        assert len(blob) == 4 + struct.calcsize("<HIH") + 8 * params
        values = np.concatenate([t.data.ravel() for t in store.values()])
        assert blob[12:] == values.astype("<f8").tobytes()

    def test_33451_values_at_base_8(self):
        store = net.init_generator(net.NetworkConfig(base_channels=8), seed=0)
        assert sum(t.size for t in store.values()) == 33_451  # 33,457 with the key biases

    def test_blob_does_not_depend_on_frame_dims(self):
        store = net.init_generator(small_config(), seed=36)
        blobs = {net.serialize_weights(store, net.NetworkConfig(w, h)) for w, h in
                 [(16, 16), (176, 144), (20, 20), (None, None)]}
        assert len(blobs) == 1

    def test_forward_identical_after_reload(self):
        cfg = small_config()
        store = net.init_generator(cfg, seed=23)
        rng = np.random.default_rng(16)
        luma = rng.uniform(-1, 1, (1, 1, 16, 16))
        out1 = net.generator_forward(store, cfg, T.Tensor(luma)).data
        store2, cfg2 = net.deserialize_weights(net.serialize_weights(store, cfg))
        out2 = net.generator_forward(store2, cfg2, T.Tensor(luma)).data
        assert np.array_equal(out1, out2)

    def test_reloaded_weights_are_constants(self):
        cfg = small_config()
        store, cfg = net.deserialize_weights(net.serialize_weights(net.init_generator(cfg, 24), cfg))
        assert not any(t.requires_grad for t in store.values())
        luma = T.Tensor(np.zeros((1, 1, 16, 16)))
        out = net.generator_forward(store, cfg, luma)
        assert not out.requires_grad and out._parents == ()

    def test_bad_magic_rejected(self):
        with pytest.raises(DataError):
            net.deserialize_weights(b"XXXX" + b"\x00" * 32)

    def test_version_1_rejected(self):
        cfg = small_config()
        blob = net.serialize_weights(net.init_generator(cfg, seed=32), cfg)
        with pytest.raises(DataError, match="version 1"):
            net.deserialize_weights(blob[:4] + struct.pack("<H", 1) + blob[6:])

    def test_truncated_rejected(self):
        # every strict prefix, of the smallest generator so the loop stays short
        cfg = net.NetworkConfig(width=8, height=8, base_channels=6,
                                use_attention=False, use_glrc=False)
        blob = net.serialize_weights(net.init_generator(cfg, seed=24), cfg)
        for n in range(len(blob)):
            with pytest.raises(DataError):
                net.deserialize_weights(blob[:n])

    def test_bad_header_geometry_is_data_error(self):
        # a valid header whose network has fewer or more values than the file
        cfg = small_config()
        blob = net.serialize_weights(net.init_generator(cfg, seed=29), cfg)
        channels_at = 4 + 2  # magic, version
        for channels, problem in ((6, "trailing bytes"), (12, "truncated")):
            with pytest.raises(DataError, match=problem):
                net.deserialize_weights(
                    blob[:channels_at] + struct.pack("<I", channels) + blob[channels_at + 4 :]
                )

    @pytest.mark.parametrize("channels", [4, 5])
    def test_too_few_header_channels_is_data_error(self, channels):
        cfg = small_config()
        blob = net.serialize_weights(net.init_generator(cfg, seed=33), cfg)
        channels_at = 4 + 2  # magic, version
        with pytest.raises(DataError, match="base_channels"):
            net.deserialize_weights(
                blob[:channels_at] + struct.pack("<I", channels) + blob[channels_at + 4 :]
            )

    def test_unknown_flag_bits_are_data_error(self):
        cfg = small_config(use_attention=True, use_glrc=True)
        blob = net.serialize_weights(net.init_generator(cfg, seed=35), cfg)
        flags_at = 4 + struct.calcsize("<HI")  # magic, version, channels
        assert blob[flags_at : flags_at + 2] == struct.pack("<H", 3)
        with pytest.raises(DataError, match="flag bits 0xffff"):
            net.deserialize_weights(blob[:flags_at] + b"\xff\xff" + blob[flags_at + 2 :])

    def test_huge_declared_network_allocates_nothing(self):
        # 64 base channels, the widest allowed, declare 2.1 M values (17 MB);
        # the reader must find them missing before building any tensor
        code = textwrap.dedent("""
            import resource, struct
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            from chromacodec import DataError, network
            blob = b"CGWT" + struct.pack("<HIH", 3, 64, 3)
            try:
                network.deserialize_weights(blob)
            except DataError as exc:
                print(exc)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "truncated weight file: weight values"

    def test_oversized_declared_network_is_header_error(self):
        # 100,000 base channels would need 37 GiB of weights: the header is refused
        blob = b"CGWT" + struct.pack("<HIH", 3, 100_000, 3)
        with pytest.raises(DataError, match="bad weight file header: base_channels"):
            net.deserialize_weights(blob)

    def test_nonfinite_value_is_data_error(self):
        cfg = small_config()
        blob = net.serialize_weights(net.init_generator(cfg, seed=34), cfg)
        with pytest.raises(DataError, match="weight file"):
            net.deserialize_weights(blob[:-8] + struct.pack("<d", float("nan")))

    def test_trailing_garbage_rejected(self):
        cfg = small_config()
        blob = net.serialize_weights(net.init_generator(cfg, seed=25), cfg)
        with pytest.raises(DataError):
            net.deserialize_weights(blob + b"\x00")

    def test_attention_flag_must_match_entries(self):
        cfg = small_config(use_attention=False)
        blob = net.serialize_weights(net.init_generator(cfg, seed=30), cfg)
        flags_at = 4 + struct.calcsize("<HI")  # magic, version, channels
        with pytest.raises(DataError):
            net.deserialize_weights(blob[:flags_at] + struct.pack("<H", 3) + blob[flags_at + 2 :])

    def test_per_name_seeding_isolates_components(self):
        # shared layers get identical values whether or not attention exists
        a = net.init_generator(small_config(use_attention=True), seed=26)
        b = net.init_generator(small_config(use_attention=False), seed=26)
        assert np.array_equal(a["m3.c2.w"].data, b["m3.c2.w"].data)
        assert np.array_equal(a["head.w"].data, b["head.w"].data)
