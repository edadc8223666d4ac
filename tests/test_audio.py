import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solocancel as sc
from solocancel import AudioBuffer

FS = 44100

#: Each canceller and the metrics on small settings, as f(mixture, reference).
RUNNERS = {
    "anc": lambda x, r: sc.anc_cancel(x, r, sc.AncConfig(taps=8, mu=0.1)),
    "anc-pw": lambda x, r: sc.anc_cancel(
        x, r, sc.AncConfig(taps=8, mu=0.01, prewhiten=True, lp_order=4, refresh_interval=1024)
    ),
    "maw": lambda x, r: sc.maw_cancel(x, r, sc.BlockWienerConfig(15, 256, 64)),
    "maw-ss": lambda x, r: sc.maw_ss_cancel(
        x, r, sc.MawSsConfig(15, 256, 64, fft_size=256, fft_hop=128)
    ),
    "sbw": lambda x, r: sc.sbw_cancel(x, r, sc.SbwConfig(fft_size=256, hop=128)),
    "sbw-simo": lambda x, r: sc.sbw_simo_cancel(x, x.copy(), r, sc.SbwConfig(fft_size=256, hop=128)),
    "measure": lambda x, r: sc.measure(x, r, block_size=256, fft_size=256, hop=128),
}


def test_all_is_the_public_names_but_the_submodules():
    assert "MawSsConfig" in sc.__all__ and len(set(sc.__all__)) == len(sc.__all__)
    assert not [name for name in sc.__all__ if isinstance(getattr(sc, name), types.ModuleType)]


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize("where", ["mixture", "reference"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(runner, where, bad):
    rng = np.random.default_rng(0)
    x, r = 0.1 * rng.standard_normal((2, FS // 4))
    (x if where == "mixture" else r)[1000] = bad
    with pytest.raises(FloatingPointError):
        RUNNERS[runner](AudioBuffer(x, FS), AudioBuffer(r, FS))


def direct_fir(taps, x):
    """The direct convolution that ``FirFilter.apply`` replaced, kept as its oracle."""
    return np.convolve(x, taps)[: len(x)]


def silent_windows(taps, x):
    """True where the ``len(taps)`` input samples ending at the output are all zero."""
    return np.convolve(x != 0, np.ones(len(taps)))[: len(x)] == 0


def parent_silence(out: np.ndarray, x: np.ndarray, start: int, m: int) -> None:
    """``audio._silence`` as it was, reading the whole input; part of ``parent_fir_apply``."""
    lo = start - m + 1
    window = x[max(lo, 0) : start + len(out)]
    if window.all():
        return
    nonzero = np.zeros(len(window) + max(-lo, 0) + 1, dtype=np.intp)
    np.cumsum(window != 0, out=nonzero[len(nonzero) - len(window) :])
    out[nonzero[m:] == nonzero[: len(out)]] = 0.0


def parent_fir_apply(fir, buf):
    """``FirFilter.apply`` as it was, filtering into a new output while the input stays
    whole; the byte oracle of the in-place loop and of scene synthesis."""
    import scipy.fft

    x = buf.samples
    n = len(x)
    if n == 0:
        raise ValueError("cannot filter an empty buffer")
    h = fir.taps[:n]  # later taps never reach the kept outputs
    m = len(h)
    size = max(sc.audio._FIR_MIN_FFT, 1 << (4 * m - 1).bit_length())
    size = min(size, scipy.fft.next_fast_len(n + m - 1, real=True))
    step = size - m + 1
    spectrum_h = scipy.fft.rfft(h, size)
    out = np.zeros(n)
    for start in range(0, n, step):
        stop = min(n, start + step)
        spectrum = scipy.fft.rfft(x[start:stop], size)
        spectrum *= spectrum_h
        block = scipy.fft.irfft(spectrum, size)
        end = min(n, start + size)
        out[start:end] += block[: end - start]
        # out[start:stop] is final: later blocks begin at stop
        parent_silence(out[start:stop], x, start, m)
    return AudioBuffer(out, buf.sample_rate)


@st.composite
def fir_problems(draw):
    """Taps and an input with runs of exact zeros, over the length regimes: one tap,
    input shorter than the filter, one sample, inputs of many FFT blocks."""
    m = draw(st.sampled_from([1, 2, 17, 606, 1500]) | st.integers(1, 700))
    n = draw(st.sampled_from([1, 2, max(1, m - 1), m, m + 1, 3 * sc.audio._FIR_MIN_FFT])
             | st.integers(1, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.standard_normal(m) * 10.0 ** draw(st.floats(-3.0, 3.0))
    x = rng.standard_normal(n) * 10.0 ** draw(st.floats(-3.0, 3.0))
    for _ in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, n - 1))
        x[start : start + draw(st.sampled_from([m - 1, m, m + 1, 2 * m]) | st.integers(0, n))] = 0.0
    if draw(st.booleans()) and n > 1:
        x[draw(st.integers(0, n - 1))] = -0.0
    return taps, x


class TestFirFilterApply:
    @settings(max_examples=150, deadline=None)
    @given(fir_problems())
    def test_matches_direct_convolution(self, problem):
        taps, x = problem
        out = sc.FirFilter(taps).apply(AudioBuffer(x, 8000))
        assert out.sample_rate == 8000 and out.samples.shape == x.shape
        silent = silent_windows(taps, x)
        assert np.all(out.samples[silent] == 0.0)
        scale = np.abs(taps).sum() * np.abs(x).max()
        error = np.abs(out.samples - direct_fir(taps, x))
        assert np.all(error[~silent] <= 1e-12 * scale)

    @settings(max_examples=150, deadline=None)
    @given(fir_problems())
    @example((np.array([0.5]), np.array([1.0, -0.0, 0.0, -2.0])))  # one tap: an empty carry
    @example((np.array([1.0, -2.0, 3.0]), np.array([-0.0, 2.0])))  # input shorter than the filter
    @example((np.array([-2e-200]), np.array([-2e-201, -9e-201, 3.3e-200])))  # underflow to −0.0
    @example((np.linspace(-1.0, 1.0, 40), np.concatenate([  # silence across block boundaries
        np.ones(4000), np.zeros(300), -np.zeros(300), np.ones(4000), np.zeros(4200)])))
    def test_in_place_gives_the_parent_bytes(self, problem):
        taps, x = problem
        fir = sc.FirFilter(taps)
        expected = parent_fir_apply(fir, AudioBuffer(x, 8000)).samples.tobytes()
        assert fir.apply(AudioBuffer(x, 8000)).samples.tobytes() == expected
        y = x.copy()
        fir.apply_in_place(y)
        assert y.tobytes() == expected

    @pytest.mark.parametrize("x", [np.zeros(4, np.float32), np.zeros((2, 2)), np.zeros(4, int)],
                             ids=["float32", "two-dimensional", "integer"])
    def test_in_place_needs_a_float64_vector(self, x):
        with pytest.raises(ValueError, match="in place"):
            sc.FirFilter(np.ones(3)).apply_in_place(x)

    def test_zeros_where_direct_convolution_has_them(self):
        # the recorded solo of a generated take: its rests are digitally silent
        solo = sc.noise_plus_tones(3.0, FS, seed=4)
        ir = sc.make_mic_ir(seed=4)
        out = ir.apply(solo).samples
        direct = direct_fir(ir.taps, solo.samples)
        assert np.count_nonzero(direct == 0) > FS // 2
        assert np.array_equal(out == 0, direct == 0)
        scale = np.abs(ir.taps).sum() * np.abs(solo.samples).max()
        assert np.max(np.abs(out - direct)) <= 1e-12 * scale

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            sc.FirFilter(np.ones(3)).apply(AudioBuffer(np.zeros(0)))

    def test_peak_memory_is_the_output_and_one_block(self):
        # 60 s at 44.1 kHz through the 606-tap mic response: one take-length array
        # (the output) and one FFT block of temporaries (spectra, block output, counts)
        n = 60 * FS
        x = np.random.default_rng(6).standard_normal(n)
        x[FS : 3 * FS] = 0.0
        ir = sc.make_mic_ir()
        size = sc.audio._FIR_MIN_FFT
        assert 4 * len(ir) <= size
        ir.apply(AudioBuffer(x[:64]))  # scipy.fft is imported before tracing
        tracemalloc.start()
        try:
            ir.apply(AudioBuffer(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 * 8 * n + 16 * 8 * size


@pytest.mark.parametrize("build,message", [
    (lambda: AudioBuffer(np.zeros((4, 2))), "mono"),
    (lambda: AudioBuffer(np.zeros(4), 0), "sample_rate"),
    (lambda: sc.FirFilter(np.zeros(0)), "non-empty"),
    (lambda: sc.FirFilter(np.ones((2, 2))), "non-empty"),
    (lambda: sc.FirFilter([1.0, np.nan]), "finite"),
], ids=["two-dimensional-buffer", "zero-rate", "no-taps", "two-dimensional-taps",
        "non-finite-taps"])
def test_bad_buffer_or_filter_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
