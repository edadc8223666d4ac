"""The three spectral cancellers against the hand-built pipelines they replaced.

``sbw_cancel``, ``sbw_simo_cancel`` and ``maw_ss_cancel`` run their frame maps
through ``stft._wola``. The oracles below are the pipelines each canceller
wrote out by hand before that: ``stft`` of each input, the frame map,
``istft`` of a frame sequence with the first input's framing, and a cut to
the input length. The outputs must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    ArrayGeometry,
    AudioBuffer,
    BlockWienerConfig,
    SbwConfig,
    make_window,
    maw_ss_cancel,
    sbw_cancel,
    sbw_simo_cancel,
    spectral_subtract,
)
from solocancel.sbw import cancel_frames
from solocancel.simo import _frame_delays, half_wavelength_spacing, mrc_combine
from solocancel.stft import SpectralFrameSeq, istft, stft
from solocancel.wiener import matched_accompaniment

FS = 44100


def resynthesize(spec: SpectralFrameSeq, frames: np.ndarray) -> AudioBuffer:
    """``istft`` of ``frames`` with the framing of ``spec``."""
    return istft(SpectralFrameSeq(frames, spec.fft_size, spec.hop, spec.sample_rate, spec.window))


def hand_built_sbw_cancel(mixture, reference, cfg, hop):
    """Oracle: ``sbw_cancel`` before the shared pipeline, framed with ``hop`` or, when
    it is None, half the frame."""
    window = cfg.window
    hop = cfg.fft_size // 2 if hop is None else hop
    partition = cfg.partition_for(mixture.sample_rate)

    spec_x = stft(mixture, window, hop)
    spec_ref = stft(reference, window, hop)
    est = cancel_frames(spec_x.frames, spec_ref.frames, partition, cfg)
    out = resynthesize(spec_x, est)
    return AudioBuffer(out.samples[: len(mixture)], mixture.sample_rate)


def hand_built_sbw_simo_cancel(mixture1, mixture2, reference, cfg, hop, geometry, kappa):
    """Oracle: ``sbw_simo_cancel`` before the shared pipeline, framed with ``hop`` or,
    when it is None, half the frame."""
    window = cfg.window
    hop = cfg.fft_size // 2 if hop is None else hop
    partition = cfg.partition_for(mixture1.sample_rate)

    spec1 = stft(mixture1, window, hop)
    spec2 = stft(mixture2, window, hop)
    spec_ref = stft(reference, window, hop)
    est1 = cancel_frames(spec1.frames, spec_ref.frames, partition, cfg)
    est2 = cancel_frames(spec2.frames, spec_ref.frames, partition, cfg)

    if kappa is not None:
        delays = np.full(est1.shape[0], float(kappa))
    else:
        delays = _frame_delays(est1, est2, geometry)
    out = resynthesize(spec1, mrc_combine(est1, est2, delays))
    return AudioBuffer(out.samples[: len(mixture1)], mixture1.sample_rate)


def hand_built_maw_ss_cancel(mixture, reference, cfg, fft_size, fft_hop, window, p):
    """Oracle: ``maw_ss_cancel`` before the shared pipeline."""
    if window is None:
        window = make_window("kbd", fft_size)
    if fft_hop is None:
        fft_hop = fft_size // 2
    y = matched_accompaniment(mixture, reference, cfg)
    spec_x = stft(mixture, window, fft_hop)
    spec_y = stft(y, window, fft_hop)
    est = spectral_subtract(spec_x.frames, spec_y.frames, p)
    out = resynthesize(spec_x, est)
    return AudioBuffer(out.samples[: len(mixture)], mixture.sample_rate)


@st.composite
def framings(draw):
    """(fft_size, hop, length, window): an even FFT size from 64 to 2048, the default
    hop (None) or a hop of at least an eighth of it (most do not divide it), a length
    from one window to four, odd or even, and the default window or a Hann window."""
    fft_size = 2 * draw(st.integers(32, 1024))
    hop = draw(st.none() | st.integers(max(1, fft_size // 8), fft_size))
    n = draw(st.integers(fft_size, 4 * fft_size + 1))
    window = draw(st.sampled_from([None, make_window("hann", fft_size)]))
    return fft_size, hop, n, window


@st.composite
def sbw_configs(draw, fft_size, hop, window):
    return SbwConfig(
        fft_size=fft_size,
        hop=hop,
        window=window,
        num_bands=draw(st.integers(1, 39)),
        cutoff=draw(st.sampled_from([None, 8000.0])),
        p=draw(st.sampled_from([0.5, 1.0, 2.0])),
        wiener_exponent=draw(st.sampled_from([0.0, 0.5, 1.0, 1.7])),
        cross_cov=draw(st.sampled_from(["magnitude", "complex"])),
    )


def two_mic_take(seed: int, n: int):
    """Mixtures whose solo reaches channel 2 one sample late, and a reference
    that feeds both through a short response."""
    rng = np.random.default_rng(seed)
    solo = 0.3 * rng.standard_normal(n + 1)
    accomp = rng.standard_normal(n)
    heard = np.convolve(accomp, [0.6, -0.2, 0.1])[:n]
    mix1 = AudioBuffer(solo[1:] + heard, FS)
    mix2 = AudioBuffer(solo[:-1] + heard, FS)
    return mix1, mix2, AudioBuffer(accomp, FS)


def same_bytes(got: AudioBuffer, want: AudioBuffer) -> bool:
    return got.sample_rate == want.sample_rate and got.samples.tobytes() == want.samples.tobytes()


class TestSbwCancel:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), framing=framings(), seed=st.integers(0, 2**32 - 1))
    def test_matches_hand_built_pipeline(self, data, framing, seed):
        fft_size, hop, n, window = framing
        cfg = data.draw(sbw_configs(fft_size, hop, window))
        mix, _, ref = two_mic_take(seed, n)
        assert same_bytes(sbw_cancel(mix, ref, cfg), hand_built_sbw_cancel(mix, ref, cfg, hop))


class TestSbwSimoCancel:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        framing=framings(),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.one_of(st.none(), st.floats(-3.0, 3.0)),
    )
    def test_matches_hand_built_pipeline(self, data, framing, seed, kappa):
        fft_size, hop, n, window = framing
        cfg = data.draw(sbw_configs(fft_size, hop, window))
        geometry = ArrayGeometry(spacing=half_wavelength_spacing(8000.0), sample_rate=FS)
        mix1, mix2, ref = two_mic_take(seed, n)
        got = sbw_simo_cancel(mix1, mix2, ref, cfg, geometry, kappa=kappa)
        want = hand_built_sbw_simo_cancel(mix1, mix2, ref, cfg, hop, geometry, kappa)
        assert same_bytes(got, want)


class TestMawSsCancel:
    @settings(max_examples=50, deadline=None)
    @given(
        framing=framings(),
        seed=st.integers(0, 2**32 - 1),
        taps=st.integers(1, 32),
        block_extra=st.integers(1, 480),
        hop_fraction=st.floats(0.25, 1.0),
        interpolate=st.booleans(),
        p=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_hand_built_pipeline(
        self, framing, seed, taps, block_extra, hop_fraction, interpolate, p
    ):
        fft_size, fft_hop, n, window = framing
        block_size = taps + block_extra
        cfg = BlockWienerConfig(
            taps, block_size, max(1, int(hop_fraction * block_size)), interpolate=interpolate
        )
        mix, _, ref = two_mic_take(seed, n)
        got = maw_ss_cancel(mix, ref, cfg, fft_size, fft_hop, window, p)
        want = hand_built_maw_ss_cancel(mix, ref, cfg, fft_size, fft_hop, window, p)
        assert same_bytes(got, want)
