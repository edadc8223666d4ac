"""Accompaniment cancellation for live solo recordings.

Given a recording of a soloist playing over a known backing track and the
clean backing-track reference, these modules estimate the isolated solo.
Six cancellers are provided (adaptive LMS/NLMS with optional pre-whitening,
block Wiener filtering with time-domain or spectral subtraction, short-time
ERB-band Wiener filtering, and a two-microphone MRC variant), together with
a scene simulator and the matching objective metrics.
"""

from types import ModuleType as _ModuleType

from .audio import AudioBuffer, FirFilter
from .erb import ErbPartition, erbs, make_partition
from .errors import NoSignalError, SolverError
from .anc import AncConfig, anc_cancel, fit_whitener
from .metrics import MetricsReport, measure, rmsd, rtf, snrf
from .sbw import SbwConfig, sbw_cancel
from .scenes import (
    Scene,
    SceneConfig,
    SidoLayout,
    broadband_accompaniment,
    calibrate_latency,
    fractional_delay,
    make_mic_ir,
    noise_plus_tones,
    synth_sido,
    synth_siso,
)
from .simo import (
    ArrayGeometry,
    DelayEstimate,
    delay_from_angle,
    estimate_delay,
    half_wavelength_spacing,
    mrc_combine,
    sbw_simo_cancel,
)
from .stft import SpectralFrameSeq, istft, make_window, stft
from .wavio import read_channels, read_mono, read_wav, write_wav
from .wiener import (
    BlockWienerConfig,
    MawSsConfig,
    block_wiener,
    matched_accompaniment,
    maw_cancel,
    maw_ss_cancel,
    spectral_subtract,
)

__version__ = "0.1.0"

#: The names imported above: every public attribute but the submodules.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
