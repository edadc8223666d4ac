import numpy as np
import pytest

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
        x, r, sc.BlockWienerConfig(15, 256, 64), fft_size=256, fft_hop=128
    ),
    "sbw": lambda x, r: sc.sbw_cancel(x, r, sc.SbwConfig(fft_size=256, hop=128)),
    "sbw-simo": lambda x, r: sc.sbw_simo_cancel(x, x.copy(), r, sc.SbwConfig(fft_size=256, hop=128)),
    "measure": lambda x, r: sc.measure(x, r, block_size=256, fft_size=256, hop=128),
}


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize("where", ["mixture", "reference"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(runner, where, bad):
    rng = np.random.default_rng(0)
    x, r = 0.1 * rng.standard_normal((2, FS // 4))
    (x if where == "mixture" else r)[1000] = bad
    with pytest.raises(FloatingPointError):
        RUNNERS[runner](AudioBuffer(x, FS), AudioBuffer(r, FS))

