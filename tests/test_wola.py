"""The spectral cancellers and the SNRF against the whole-file pipelines they replaced.

``sbw_cancel``, ``sbw_simo_cancel`` and ``maw_ss_cancel`` run their frame maps
through ``stft._wola``. The oracles below are the pipelines each canceller
wrote out by hand before that, with each input given ``ceil(fft_size / hop) - 1``
hops of zeros before and after it as the engine frames a take: ``stft`` of
each padded input, the frame map, ``istft`` of a frame sequence with the
first input's framing, and a cut to the input's own samples. The outputs
must agree bit for bit, also when the engine
runs its frames in blocks of any size; ``istft`` itself must agree bit for
bit with a frame-by-frame overlap-add loop.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    ArrayGeometry,
    AudioBuffer,
    BlockWienerConfig,
    MawSsConfig,
    SbwConfig,
    SceneConfig,
    SidoLayout,
    broadband_accompaniment,
    make_mic_ir,
    make_partition,
    make_window,
    maw_ss_cancel,
    noise_plus_tones,
    sbw_cancel,
    sbw_simo_cancel,
    snrf,
    spectral_subtract,
    synth_sido,
)
from solocancel.sbw import cancel_frames
from solocancel.simo import half_wavelength_spacing, mrc_combine
from solocancel.stft import SpectralFrameSeq, istft, stft
from solocancel.wiener import matched_accompaniment
from test_simo import causal_track

# The module, which the package's ``stft`` function shadows as an attribute.
stft_module = importlib.import_module("solocancel.stft")

FS = 44100


def resynthesize(spec: SpectralFrameSeq, frames: np.ndarray) -> AudioBuffer:
    """``istft`` of ``frames`` with the framing of ``spec``."""
    return istft(SpectralFrameSeq(frames, spec.hop, spec.sample_rate, spec.window))


def edge_padded(fft_size, hop, *signals):
    """The lead, ``ceil(fft_size / hop) - 1`` hops, and ``signals`` with that many zeros
    before and after each: a take as the engine frames it."""
    lead = (-(-fft_size // hop) - 1) * hop
    pad = np.zeros(lead)
    return lead, [AudioBuffer(np.concatenate((pad, s.samples, pad)), s.sample_rate) for s in signals]


def unpadded(out: AudioBuffer, lead: int, take: AudioBuffer) -> AudioBuffer:
    """The samples of ``out`` that belong to ``take``, past the ``lead`` zeros."""
    return AudioBuffer(out.samples[lead : lead + len(take)], take.sample_rate)


def hand_built_sbw_cancel(mixture, reference, cfg, hop):
    """Oracle: ``sbw_cancel`` before the shared pipeline, framed with ``hop`` or, when
    it is None, half the frame."""
    window = make_window(cfg.fft_size, cfg.window_shape)
    hop = cfg.fft_size // 2 if hop is None else hop
    partition = cfg.partition_for(mixture.sample_rate)
    lead, (padded_x, padded_ref) = edge_padded(cfg.fft_size, hop, mixture, reference)

    spec_x = stft(padded_x, window, hop)
    spec_ref = stft(padded_ref, window, hop)
    est = cancel_frames(spec_x.frames, spec_ref.frames, partition, cfg)
    return unpadded(resynthesize(spec_x, est), lead, mixture)


def hand_built_sbw_simo_cancel(mixture1, mixture2, reference, cfg, hop, geometry, kappa):
    """Oracle: ``sbw_simo_cancel`` before the shared pipeline, framed with ``hop`` or,
    when it is None, half the frame."""
    window = make_window(cfg.fft_size, cfg.window_shape)
    hop = cfg.fft_size // 2 if hop is None else hop
    partition = cfg.partition_for(mixture1.sample_rate)
    lead, padded = edge_padded(cfg.fft_size, hop, mixture1, mixture2, reference)

    spec1, spec2, spec_ref = (stft(signal, window, hop) for signal in padded)
    est1 = cancel_frames(spec1.frames, spec_ref.frames, partition, cfg)
    est2 = cancel_frames(spec2.frames, spec_ref.frames, partition, cfg)

    if kappa is not None:
        delays = np.full(est1.shape[0], float(kappa))
    else:
        delays = causal_track(spec1.frames, est1, est2, geometry)
    return unpadded(resynthesize(spec1, mrc_combine(est1, est2, delays)), lead, mixture1)


def hand_built_maw_ss_cancel(mixture, reference, cfg, fft_size, fft_hop, shape, p):
    """Oracle: ``maw_ss_cancel`` before the shared pipeline."""
    window = make_window(fft_size, shape)
    if fft_hop is None:
        fft_hop = fft_size // 2
    y = matched_accompaniment(mixture, reference, cfg)
    lead, (padded_x, padded_y) = edge_padded(fft_size, fft_hop, mixture, y)
    spec_x = stft(padded_x, window, fft_hop)
    spec_y = stft(padded_y, window, fft_hop)
    est = spectral_subtract(spec_x.frames, spec_y.frames, p)
    return unpadded(resynthesize(spec_x, est), lead, mixture)


def frame_by_frame_istft(seq: SpectralFrameSeq) -> AudioBuffer:
    """Oracle: ``istft`` as a loop that adds one windowed frame at a time."""
    n_fft = seq.fft_size
    hop = seq.hop
    w = seq.window
    out_len = (seq.num_frames - 1) * hop + n_fft

    pieces = np.fft.irfft(seq.frames, n=n_fft, axis=1) * w[None, :]
    out = np.zeros(out_len)
    envelope = np.zeros(out_len)
    wsq = w * w
    for t in range(seq.num_frames):
        start = t * hop
        out[start : start + n_fft] += pieces[t]
        envelope[start : start + n_fft] += wsq

    live = envelope > 1e-12
    out[live] /= envelope[live]
    out[~live] = 0.0
    return AudioBuffer(out, seq.sample_rate)


def whole_file_snrf(estimate, ref_solo, fft_size, hop):
    """Oracle: ``snrf`` from the ``stft`` of whole files, framed with KBD(4)."""
    partition = make_partition(fft_size, estimate.sample_rate)
    window = make_window(fft_size)
    mag_est = np.abs(stft(estimate, window, hop).frames)
    mag_ref = np.abs(stft(ref_solo, window, hop).frames)
    psi_signal = partition.band_mean(mag_ref**2)
    psi_noise = partition.band_mean((mag_est - mag_ref) ** 2)
    keep = psi_signal > 0.0
    ratio_db = np.full(psi_signal.shape, 100.0)
    measurable = keep & (psi_noise > 0.0)
    ratio_db[measurable] = 10.0 * np.log10(psi_signal[measurable] / psi_noise[measurable])
    np.clip(ratio_db, -100.0, 100.0, out=ratio_db)
    return float(np.mean(ratio_db[keep]))


#: KBD window shapes: the default, one of a rectangular kernel, and any up to 12.
window_shapes = st.sampled_from([4.0, 0.0]) | st.floats(0.0, 12.0)


@st.composite
def framings(draw):
    """(fft_size, hop, length, window_shape): an even FFT size from 64 to 2048, the
    default hop (None) or a hop of at least an eighth of it (most do not divide it), a
    length from one window to four, odd or even, and a KBD window shape."""
    fft_size = 2 * draw(st.integers(32, 1024))
    hop = draw(st.none() | st.integers(max(1, fft_size // 8), fft_size))
    n = draw(st.integers(fft_size, 4 * fft_size + 1))
    return fft_size, hop, n, draw(window_shapes)


@st.composite
def sbw_configs(draw, fft_size, hop, shape):
    return SbwConfig(
        fft_size=fft_size,
        hop=hop,
        window_shape=shape,
        num_bands=draw(st.integers(1, 39)),
        p=draw(st.sampled_from([0.5, 1.0, 2.0])),
        wiener_exponent=draw(st.sampled_from([0.0, 0.5, 1.0, 1.7])),
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
        fft_size, hop, n, shape = framing
        cfg = data.draw(sbw_configs(fft_size, hop, shape))
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
        fft_size, hop, n, shape = framing
        cfg = data.draw(sbw_configs(fft_size, hop, shape))
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
        fft_size, fft_hop, n, shape = framing
        block_size = taps + block_extra
        cfg = MawSsConfig(
            taps, block_size, max(1, int(hop_fraction * block_size)), interpolate=interpolate,
            fft_size=fft_size, fft_hop=fft_hop, window_shape=shape, p=p,
        )
        mix, _, ref = two_mic_take(seed, n)
        got = maw_ss_cancel(mix, ref, cfg)
        want = hand_built_maw_ss_cancel(mix, ref, cfg, fft_size, fft_hop, shape, p)
        assert same_bytes(got, want)


@st.composite
def small_framings(draw):
    """(fft_size, hop, length, window_shape) with a small FFT size, a hop of a quarter,
    half, three quarters or all of the frame, a length from one window to a dozen hops
    past it, often shorter than one hop past a window and odd or even alike, and a KBD
    window shape."""
    fft_size = draw(st.sampled_from([8, 16, 32, 64]))
    hop = fft_size * draw(st.sampled_from([1, 2, 3, 4])) // 4
    past = draw(st.integers(0, hop - 1) | st.integers(0, 12 * hop))
    return fft_size, hop, fft_size + past, draw(window_shapes)


def num_frames(n, fft_size, hop):
    return 1 + -(-(n - fft_size) // hop)


class TestEveryBlockSize:
    """The engine at every block size from one frame to the whole take, against the
    whole-file oracles."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        framing=small_framings(),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.one_of(st.none(), st.floats(-3.0, 3.0)),
        maw_taps=st.integers(1, 8),
        maw_p=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_whole_file_oracles(self, data, framing, seed, kappa, maw_taps, maw_p):
        fft_size, hop, n, shape = framing
        cfg = data.draw(sbw_configs(fft_size, hop, shape))
        geometry = ArrayGeometry(spacing=half_wavelength_spacing(8000.0), sample_rate=FS)
        maw_cfg = MawSsConfig(
            maw_taps, maw_taps + 16, 8, fft_size=fft_size, fft_hop=hop, window_shape=shape, p=maw_p
        )
        mix1, mix2, ref = two_mic_take(seed, n)
        want = {
            "sbw": hand_built_sbw_cancel(mix1, ref, cfg, hop),
            "sbw-simo": hand_built_sbw_simo_cancel(mix1, mix2, ref, cfg, hop, geometry, kappa),
            "maw-ss": hand_built_maw_ss_cancel(mix1, ref, maw_cfg, fft_size, hop, shape, maw_p),
        }
        want_snrf = whole_file_snrf(mix1, mix2, fft_size, hop)
        lead, _ = edge_padded(fft_size, hop)  # the cancellers frame the padded take
        for block in range(1, num_frames(n + 2 * lead, fft_size, hop) + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(stft_module, "_BLOCK_FRAMES", block)
                got = {
                    "sbw": sbw_cancel(mix1, ref, cfg),
                    "sbw-simo": sbw_simo_cancel(mix1, mix2, ref, cfg, geometry, kappa=kappa),
                    "maw-ss": maw_ss_cancel(mix1, ref, maw_cfg),
                }
                value = snrf(mix1, mix2, 39, fft_size, hop)
            for name, buf in got.items():
                assert same_bytes(buf, want[name]), (name, block)
            assert value == want_snrf, block


class TestIstft:
    @settings(max_examples=100, deadline=None)
    @given(framing=small_framings(), seed=st.integers(0, 2**32 - 1))
    def test_matches_frame_by_frame_loop(self, framing, seed):
        fft_size, hop, n, shape = framing
        window = make_window(fft_size, shape)
        rng = np.random.default_rng(seed)
        frames = stft(AudioBuffer(rng.standard_normal(n), FS), window, hop).frames
        # a modified spectrum, as the cancellers hand to the overlap-add
        frames *= rng.uniform(0.0, 1.0, frames.shape)
        seq = SpectralFrameSeq(frames, hop, FS, window)
        assert same_bytes(istft(seq), frame_by_frame_istft(seq))


class TestBoundedMemory:
    def test_sbw_working_set_does_not_grow_with_length(self):
        """Beyond its 8-byte-per-sample output, ``sbw_cancel`` holds one block of frames:
        its traced peak past the output is the same for 5 s and 20 s of noise."""

        def peak_beyond_output(seconds):
            rng = np.random.default_rng(5)
            n = int(seconds * FS)
            mix = AudioBuffer(rng.standard_normal(n), FS)
            ref = AudioBuffer(rng.standard_normal(n), FS)
            tracemalloc.start()
            try:
                sbw_cancel(mix, ref)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 8 * n

        assert peak_beyond_output(20.0) <= peak_beyond_output(5.0) + 2 * 2**20

    def test_sbw_simo_working_set_does_not_grow_with_length(self):
        """``sbw_simo_cancel`` holds one block of both channels' frames and a five-value
        delay track: past the output, its traced peak is the same for 4 s and 16 s.
        (Both takes span more than one 64-frame block; a take of one partial block
        holds less.)"""

        def peak_beyond_output(seconds):
            n = int(seconds * FS)
            mix1, mix2, ref = two_mic_take(5, n)
            tracemalloc.start()
            try:
                sbw_simo_cancel(mix1, mix2, ref)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 8 * n

        assert peak_beyond_output(16.0) <= peak_beyond_output(4.0) + 2 * 2**20


class TestTakeEdges:
    @pytest.mark.parametrize("past", [0, 777], ids=["ends-on-a-frame", "ends-mid-frame"])
    def test_estimates_stay_bounded_at_both_ends(self, past):
        """A take cut out of a scene's middle, whose last frame ends at its last sample or
        not: in the first and last frame every estimate stays within twice the mixture's
        peak. Framed without the zeros before and after the take, a sample there was divided
        by one window's edge, and the estimates peaked 10-100 times above the mixture."""
        scene = synth_sido(SceneConfig(
            noise_plus_tones(3.0, FS, seed=3), broadband_accompaniment(3.0, FS, seed=3),
            make_mic_ir(13.7, 606, seed=3), sido=SidoLayout(0.0214, 21.3),
        ))
        fft_size, n = 4096, 4096 + 40 * 2048 + past  # default frame and hop
        take = slice(FS // 2, FS // 2 + n)
        mix1, mix2, ref = (
            AudioBuffer(part.samples[take], FS)
            for part in (scene.mixture, scene.mixture2, scene.reference)
        )
        estimates = {
            "sbw": sbw_cancel(mix1, ref),
            "sbw p=2": sbw_cancel(mix1, ref, SbwConfig(p=2.0)),
            "sbw-simo": sbw_simo_cancel(mix1, mix2, ref),
            "maw-ss": maw_ss_cancel(mix1, ref, BlockWienerConfig(255, 4096, 1024)),
        }
        bound = 2 * np.abs(mix1.samples).max()
        for name, estimate in estimates.items():
            for end in (slice(0, fft_size), slice(n - fft_size, n)):
                peak = np.abs(estimate.samples[end]).max()
                assert peak <= bound, (name, end, peak, bound)
