"""Exact scale equivariance: every canceller commutes with a power-of-two gain.

Scaling both inputs by 2^k is exact in floating point, and each canceller's rule is
homogeneous of degree one in (mixture, reference): the band gains, the block Wiener
taps, the NLMS step and the whitener are ratios of the inputs' own products, and each
guard or floor is relative to the signal. So an exact implementation returns exactly
2^k times its output, byte for byte. The property needs no oracle. It fails on the
slip a fast path tends to add: an absolute epsilon, floor or threshold.

Plain LMS (``AncConfig(normalized=False)``) is left out. Its update mu * e * u is of
degree two in the inputs, so its trajectory, and its stable step bound, depend on the
input level; it is not scale-equivariant by design. ``sbw`` runs at p = 1 and 2 only,
where |X|^p and its p-th root commute with a power-of-two gain; at other p they round
apart by an ulp.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solocancel import (
    AncConfig,
    AudioBuffer,
    BlockWienerConfig,
    MawSsConfig,
    SbwConfig,
    SceneConfig,
    SidoLayout,
    anc_cancel,
    broadband_accompaniment,
    half_wavelength_spacing,
    make_mic_ir,
    maw_cancel,
    maw_ss_cancel,
    noise_plus_tones,
    sbw_cancel,
    sbw_simo_cancel,
    synth_sido,
)

#: Each canceller as ``run(mixture1, mixture2, reference)``, with frames and filters
#: short enough for a 0.2-s take at 8 kHz.
CANCELLERS = {
    "sbw-p1": lambda x1, x2, r: sbw_cancel(x1, r, SbwConfig(fft_size=1024, p=1.0)),
    "sbw-p2": lambda x1, x2, r: sbw_cancel(x1, r, SbwConfig(fft_size=1024, p=2.0)),
    "sbw-simo": lambda x1, x2, r: sbw_simo_cancel(x1, x2, r, SbwConfig(fft_size=1024)),
    "maw": lambda x1, x2, r: maw_cancel(x1, r, BlockWienerConfig(63, 1024, 256)),
    "maw-ss": lambda x1, x2, r: maw_ss_cancel(x1, r, MawSsConfig(63, 1024, 256, fft_size=1024)),
    "anc": lambda x1, x2, r: anc_cancel(x1, r, AncConfig(taps=32, mu=0.1)),
    "anc-pw": lambda x1, x2, r: anc_cancel(
        x1, r, AncConfig(taps=32, mu=0.01, prewhiten=True, refresh_interval=1024)),
}


def generated_take(seconds: float, sample_rate: int, seed: int):
    """The scene generator's two-microphone take: both mixtures and the reference."""
    solo = noise_plus_tones(seconds, sample_rate, seed)
    accompaniment = broadband_accompaniment(seconds, sample_rate, seed + 1)
    layout = SidoLayout(half_wavelength_spacing(8000.0), 21.3)
    scene = synth_sido(SceneConfig(solo, accompaniment, make_mic_ir(seed=seed + 2,
                                   sample_rate=sample_rate), sido=layout))
    return scene.mixture, scene.mixture2, scene.reference


def scaled(buffer: AudioBuffer, k: int) -> AudioBuffer:
    return AudioBuffer(np.ldexp(buffer.samples, k), buffer.sample_rate)


@settings(max_examples=6, deadline=None)
@given(
    seconds=st.floats(0.2, 1.2),
    sample_rate=st.sampled_from([8000, 22050, 44100, 48000]),
    seed=st.integers(0, 2**16),
    k=st.integers(-40, 40),
)
def test_every_canceller_commutes_with_a_power_of_two_gain(seconds, sample_rate, seed, k):
    take = generated_take(seconds, sample_rate, seed)
    for name, run in CANCELLERS.items():
        want = np.ldexp(run(*take).samples, k)
        got = run(*(scaled(buffer, k) for buffer in take)).samples
        assert got.tobytes() == want.tobytes(), name
