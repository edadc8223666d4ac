import importlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solocancel import (
    AudioBuffer, MawSsConfig, SbwConfig, istft, make_window, maw_ss_cancel, sbw_cancel,
    sbw_simo_cancel, snrf, stft,
)
from solocancel.stft import SpectralFrameSeq

# The module, which the package's ``stft`` function shadows as an attribute.
stft_module = importlib.import_module("solocancel.stft")

#: The least KBD shape whose window is non-finite: I0(pi * shape) overflows from here.
KBD_EDGE = 225.93085455631527


def kbd_reference(length, shape):
    """Independent KBD evaluation: Bessel-series Kaiser kernel, cumulative
    sums in plain Python."""

    def bessel_i0(x):
        total, term, k = 1.0, 1.0, 0
        while True:
            k += 1
            term *= (x / (2.0 * k)) ** 2
            total += term
            if term < 1e-18 * total:
                return total

    half = length // 2
    beta = np.pi * shape
    kernel = []
    for j in range(half + 1):
        r = 2.0 * j / half - 1.0
        kernel.append(bessel_i0(beta * np.sqrt(max(0.0, 1.0 - r * r))) / bessel_i0(beta))
    csum = [0.0]
    for v in kernel:
        csum.append(csum[-1] + v)
    out = [np.sqrt(csum[j + 1] / csum[half + 1]) for j in range(half)]
    return np.array(out + out[::-1])


class TestMakeWindow:
    def test_is_a_float64_array(self):
        w = make_window(64, 6.0)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (64,)

    def test_kbd_princen_bradley(self):
        w = make_window(4096, 4.0)
        half = 2048
        pb = w[:half] ** 2 + w[half:] ** 2
        assert np.ptp(pb) < 1e-9

    def test_kbd_matches_independent_construction(self):
        w = make_window(8, 4.0)
        assert np.allclose(w, kbd_reference(8, 4.0), atol=1e-10)
        w = make_window(256, 4.0)
        assert np.allclose(w, kbd_reference(256, 4.0), atol=1e-10)

    def test_symmetry(self):
        w = make_window(128, 4.0)
        assert np.allclose(w, w[::-1], atol=1e-12)

    @pytest.mark.parametrize("length", [0, 3, 7, 1024.0, True])
    def test_bad_length_rejected(self, length):
        # a ValueError, not a TypeError from np.kaiser, for a length that is no integer
        with pytest.raises(ValueError):
            make_window(length)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            make_window(64, -1.0)
        with pytest.raises(ValueError):
            make_window(64, np.nan)

    @pytest.mark.parametrize("shape,message", [
        (226.0, "non-finite window"),
        (300.0, "non-finite window"),
        (np.inf, r"^shape must be finite and >= 0, got inf$"),  # the rule's, before any window
    ], ids=["226.0", "300.0", "inf"])
    def test_shape_with_non_finite_window_rejected(self, shape, message):
        # np.kaiser overflows from about 226 up; that window would zero every estimate
        with pytest.raises(ValueError, match=message):
            make_window(4096, shape)
        assert np.all(np.isfinite(make_window(4096, 225.0)))

    @settings(max_examples=200, deadline=None)
    @given(half=st.integers(1, 4096), shape=st.floats(0.0, 300.0))
    @example(half=1, shape=KBD_EDGE)
    @example(half=1, shape=np.nextafter(KBD_EDGE, 0.0))
    @example(half=2048, shape=np.nextafter(KBD_EDGE, 0.0))
    @example(half=2048, shape=KBD_EDGE)
    @example(half=4096, shape=np.nextafter(KBD_EDGE, np.inf))
    @example(half=4096, shape=np.nextafter(KBD_EDGE, 0.0))
    def test_rejected_exactly_when_the_window_is_not_finite(self, half, shape):
        # the shape rule is one scalar test; this holds it to the window np.kaiser builds
        length = 2 * half
        with np.errstate(all="ignore"):
            finite = np.isfinite(stft_module._kbd(length, shape)).all()
        if finite:
            assert np.array_equal(make_window(length, shape), stft_module._kbd(length, shape))
        else:
            rule = f"KBD shape {shape} gives a non-finite window"
            with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
                make_window(length, shape)


def test_configs_build_no_window(monkeypatch):
    def no_window(*args):
        raise AssertionError("a config built a window to check its settings")

    monkeypatch.setattr(stft_module, "_kbd", no_window)
    SbwConfig()
    SbwConfig(window_shape=6)
    MawSsConfig(16, 1024, 100, window_shape=6)


@pytest.mark.parametrize("run", [
    lambda x: sbw_cancel(x, x, SbwConfig(fft_size=256)),
    lambda x: sbw_simo_cancel(x, x, x, SbwConfig(fft_size=256), kappa=0.0),
    lambda x: maw_ss_cancel(x, x, MawSsConfig(8, 256, 128, fft_size=256)),
    lambda x: snrf(x, x, fft_size=256),
], ids=["sbw", "sbw-simo", "maw-ss", "snrf"])
def test_one_window_per_call(run, monkeypatch):
    built = []
    kbd = stft_module._kbd
    monkeypatch.setattr(stft_module, "_kbd", lambda *args: built.append(args) or kbd(*args))
    run(AudioBuffer(np.random.default_rng(5).standard_normal(2048)))
    assert len(built) == 1


class TestStft:
    def test_integer_window_is_taken_as_float(self):
        x = AudioBuffer(np.random.default_rng(3).standard_normal(256))
        seq = stft(x, np.ones(64, dtype=int), 32)
        assert seq.window.dtype == np.float64 and seq.fft_size == 64
        assert np.array_equal(seq.frames, stft(x, np.ones(64), 32).frames)

    def test_zero_signal_gives_zero_frames(self):
        w = np.hanning(64)
        seq = stft(AudioBuffer(np.zeros(400)), w, 32)
        assert np.all(seq.frames == 0)

    def test_impulse_flat_spectrum_with_rect(self):
        w = np.ones(64)
        x = np.zeros(256)
        x[0] = 1.0
        seq = stft(AudioBuffer(x), w, 32)
        assert np.allclose(np.abs(seq.frames[0]), 1.0, atol=1e-12)

    def test_sine_peak_bin(self):
        fs = 44100
        n_fft = 4096
        t = np.arange(fs) / fs
        x = AudioBuffer(np.sin(2 * np.pi * 1000.0 * t), fs)
        seq = stft(x, np.hanning(n_fft), 2048)
        expected_bin = round(1000 * n_fft / fs)
        for frame in seq.frames[1:-1]:
            assert np.argmax(np.abs(frame)) == expected_bin

    def test_zero_hop_rejected(self):
        with pytest.raises(ValueError):
            stft(AudioBuffer(np.zeros(128)), np.hanning(64), 0)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(AudioBuffer(np.zeros(63)), np.hanning(64), 32)

    def test_tail_padding_keeps_every_sample(self):
        # 100 samples, 64-window, hop 32: frames at 0, 32, 64 (padded).
        seq = stft(AudioBuffer(np.ones(100)), np.ones(64), 32)
        assert seq.num_frames == 3

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        w = make_window(256, 4.0)
        lhs = stft(AudioBuffer(2.5 * x - 1.25 * y), w, 128).frames
        rhs = 2.5 * stft(AudioBuffer(x), w, 128).frames - 1.25 * stft(
            AudioBuffer(y), w, 128
        ).frames
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048)
        w = make_window(512, 4.0)
        seq = stft(AudioBuffer(x), w, 256)
        for t in range(seq.num_frames - 1):  # last frame is zero-padded
            windowed = w * x[t * 256 : t * 256 + 512]
            spec = seq.frames[t]
            full = np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2 + 2 * np.sum(
                np.abs(spec[1:-1]) ** 2
            )
            assert full == pytest.approx(512 * np.sum(windowed**2), rel=1e-9)


class TestIstft:
    def test_round_trip_kbd(self):
        rng = np.random.default_rng(2)
        fs = 44100
        x = AudioBuffer(rng.standard_normal(fs), fs)
        seq = stft(x, make_window(4096, 4.0), 2048)
        y = istft(seq)
        inner = slice(4096, len(x) - 4096)
        err = np.linalg.norm(y.samples[inner] - x.samples[inner])
        ref = np.linalg.norm(x.samples[inner])
        assert 20 * np.log10(err / ref) < -60.0
        assert err / ref < 1e-3

    def test_round_trip_output_length(self):
        seq = stft(AudioBuffer(np.ones(300)), np.hanning(64), 32)
        assert len(istft(seq)) == (seq.num_frames - 1) * 32 + 64

    def test_zero_frames_give_zero_signal(self):
        w = make_window(64, 4.0)
        seq = SpectralFrameSeq(np.zeros((5, 33), dtype=complex), 32, 44100, w)
        assert seq.fft_size == 64
        assert np.all(istft(seq).samples == 0.0)

    def test_metadata_validation(self):
        w = make_window(64, 4.0)
        with pytest.raises(ValueError):
            SpectralFrameSeq(np.zeros((5, 30), dtype=complex), 32, 44100, w)
        with pytest.raises(ValueError):
            SpectralFrameSeq(np.zeros((5, 33), dtype=complex), 96, 44100, w)


def test_frames_must_be_a_stack():
    with pytest.raises(ValueError, match="2-D"):
        SpectralFrameSeq(np.zeros(3), 2, 44100, make_window(4))
