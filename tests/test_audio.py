import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solocancel as sc
from solocancel import AudioBuffer
from solocancel.cli import _SimoConfig
from test_anc import LmsState

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


def _scene_config(**settings):
    return sc.SceneConfig(AudioBuffer(np.ones(64)), AudioBuffer(np.ones(64)), sc.FirFilter([1.0]),
                          **settings)


_TINY = AudioBuffer(np.zeros(8))

#: Every real-valued setting checked by ``audio._check_reals``: the field its ValueError
#: names, its bound ("" for finite only) and a call that sets it, all else valid.
REAL_SETTINGS = {
    "AncConfig.mu": ("mu", ">= 0", lambda v: sc.AncConfig(taps=4, mu=v)),
    # the per-sample LMS oracle of test_anc, which takes its settings by the same rules
    "LmsState.create.mu": ("mu", ">= 0", lambda v: LmsState.create(4, v)),
    "SbwConfig.p": ("p", "> 0", lambda v: sc.SbwConfig(p=v)),
    "SbwConfig.wiener_exponent": ("wiener_exponent", ">= 0",
                                  lambda v: sc.SbwConfig(wiener_exponent=v)),
    "SbwConfig.window_shape": ("window_shape", ">= 0", lambda v: sc.SbwConfig(window_shape=v)),
    "BlockWienerConfig.regularization": ("regularization", ">= 0",
                                         lambda v: sc.BlockWienerConfig(15, 256, 64, v)),
    "MawSsConfig.p": ("p", "> 0", lambda v: sc.MawSsConfig(15, 256, 64, p=v)),
    "MawSsConfig.window_shape": ("window_shape", ">= 0",
                                 lambda v: sc.MawSsConfig(15, 256, 64, window_shape=v)),
    "block_wiener.regularization": ("regularization", ">= 0", lambda v: sc.block_wiener(
        AudioBuffer(np.ones(67)), AudioBuffer(np.ones(64)), 4, v)),
    "spectral_subtract.p": ("p", "> 0", lambda v: sc.spectral_subtract(np.ones(3), np.ones(3), v)),
    "make_window.shape": ("shape", ">= 0", lambda v: sc.make_window(64, v)),
    "make_partition.sample_rate": ("sample_rate", "> 0", lambda v: sc.make_partition(256, v)),
    "rtf.elapsed": ("elapsed", ">= 0", lambda v: sc.rtf(v, 1.0)),
    "rtf.duration": ("duration", "> 0", lambda v: sc.rtf(0.5, v)),
    "ArrayGeometry.spacing": ("spacing", "> 0", lambda v: sc.ArrayGeometry(v)),
    "ArrayGeometry.f_max": ("f_max", "> 0", lambda v: sc.ArrayGeometry(0.01, v)),
    "sbw_simo_cancel.kappa": ("kappa", "", lambda v: sc.sbw_simo_cancel(
        _TINY, _TINY, _TINY, None, None, v)),
    "mrc_combine.kappa": ("kappa", "", lambda v: sc.mrc_combine(
        np.ones(5, complex), np.ones(5, complex), v)),
    "_SimoConfig.spacing": ("spacing", "> 0", lambda v: _SimoConfig(spacing=v)),
    "_SimoConfig.f_max": ("f_max", "> 0", lambda v: _SimoConfig(spacing=0.01, f_max=v)),
    "_SimoConfig.kappa": ("kappa", "", lambda v: _SimoConfig(spacing=0.0214, kappa=v)),
    "make_mic_ir.rt_ms": ("rt_ms", "> 0", lambda v: sc.make_mic_ir(v)),
    "fractional_delay.delay": ("delay", "", lambda v: sc.fractional_delay(np.ones(4), v)),
    "SidoLayout.spacing": ("spacing", "> 0", lambda v: sc.SidoLayout(v, 0.0)),
    "SidoLayout.f_max": ("f_max", "> 0", lambda v: sc.SidoLayout(0.01, 0.0, f_max=v)),
    "SidoLayout.solo_angle_deg": ("solo_angle_deg", "", lambda v: sc.SidoLayout(0.01, v)),
    "SidoLayout.accomp_angle_deg": ("accomp_angle_deg", "", lambda v: sc.SidoLayout(0.01, 0.0, v)),
    "SceneConfig.channel_delay": ("channel_delay", ">= 0",
                                  lambda v: _scene_config(channel_delay=v)),
    "SceneConfig.level_diff_db": ("level_diff_db", "", lambda v: _scene_config(level_diff_db=v)),
    "SceneConfig.accompaniment_gain": ("accompaniment_gain", ">= 0", lambda v: _scene_config(
        level_diff_db=None, accompaniment_gain=v)),
    "noise_plus_tones.duration": ("duration", "", lambda v: sc.noise_plus_tones(v)),
    "broadband_accompaniment.duration": ("duration", "",
                                         lambda v: sc.broadband_accompaniment(v)),
}

#: Settings where None is a value: no fixed delay, or no level difference or gain given.
_NONE_ALLOWED = ("sbw_simo_cancel.kappa", "_SimoConfig.kappa", "SceneConfig.level_diff_db",
                 "SceneConfig.accompaniment_gain")

#: The value just outside each bound.
_OUTSIDE = {"": -math.inf, ">= 0": math.nextafter(0.0, -1.0), "> 0": 0.0}


@pytest.mark.parametrize("setting,bad", [
    pytest.param(setting, bad, id=f"{setting}-{name}")
    for setting in REAL_SETTINGS
    for name, bad in {"str": "1", "None": None, "True": True, "nan": math.nan, "inf": math.inf,
                      "10**400": 10**400, "outside": "outside"}.items()
    if not (bad is None and setting in _NONE_ALLOWED)
])
def test_real_setting_rejected_by_the_rule(setting, bad):
    # a ValueError naming the field, never a TypeError, a warning or an accepted value
    field, bound, build = REAL_SETTINGS[setting]
    bad = _OUTSIDE[bound] if bad == "outside" else bad
    rule = f"must be finite{bound and ' and ' + bound}, got {bad!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{field}\b.*{re.escape(rule)}$"):
            build(bad)


#: The counts given ``audio._check_counts`` besides the configs' fields: the name its
#: ValueError gives and a call that sets it, all else valid.
COUNT_SETTINGS = {
    "AudioBuffer.sample_rate": ("sample_rate", lambda v: AudioBuffer(np.zeros(4), v)),
    "make_partition.fft_size": ("fft_size", lambda v: sc.make_partition(v, 44100)),
    "block_wiener.taps": ("taps", lambda v: sc.block_wiener(
        AudioBuffer(np.ones(65)), AudioBuffer(np.ones(64)), v)),
    "fit_whitener.order": ("order", lambda v: sc.fit_whitener(AudioBuffer(np.ones(100)), v)),
    "LmsState.create.taps": ("taps", lambda v: LmsState.create(v, 0.1)),  # test_anc's oracle
    "make_mic_ir.length": ("length", lambda v: sc.make_mic_ir(length=v)),
    "make_mic_ir.sample_rate": ("sample_rate", lambda v: sc.make_mic_ir(sample_rate=v)),
    "ArrayGeometry.sample_rate": ("sample_rate", lambda v: sc.ArrayGeometry(0.01, sample_rate=v)),
    "SpectralFrameSeq.sample_rate": ("sample_rate", lambda v: sc.SpectralFrameSeq(
        np.zeros((1, 9)), 16, v, sc.make_window(16))),
    "snrf.num_bands": ("num_bands", lambda v: sc.snrf(_TINY, _TINY, v, 256)),
    "measure.num_bands": ("num_bands", lambda v: sc.measure(_TINY, _TINY, 256, v, 256)),
}


@pytest.mark.parametrize("bad", [0, -1, 2.0, 44100.5, math.nan, math.inf, True, None, "1"])
@pytest.mark.parametrize("setting", list(COUNT_SETTINGS))
def test_count_rejected_by_the_rule(setting, bad):
    name, build = COUNT_SETTINGS[setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = f"{name} must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            build(bad)


@pytest.mark.parametrize("rate", [0, 44100.5, math.nan])
def test_write_wav_rate_checked_before_the_file_opens(rate, tmp_path):
    # 44100.5 raised struct.error, which the CLI does not handle; 0 wrote a 0-Hz file
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=rf"^sample_rate must be an integer >= 1, got {rate!r}$"):
        sc.write_wav(path, np.zeros(4), rate)
    assert not path.exists()


def test_numpy_scalars_are_reals():
    assert sc.AncConfig(taps=4, mu=np.float32(0.5)).mu == 0.5
    assert sc.SbwConfig(p=np.float64(2.0), wiener_exponent=np.int64(0)).p == 2.0
