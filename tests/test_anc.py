import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solocancel import (
    AncConfig, AudioBuffer, anc_cancel, broadband_accompaniment, fit_whitener, noise_plus_tones,
)
from solocancel import anc as anc_module
from solocancel.anc import _levinson, _peak_window_energy
from solocancel.audio import _check_counts, _check_reals, require_matched


def planted_system(n, taps=4, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    ref = sigma * rng.standard_normal(n)
    h = rng.standard_normal(taps)
    h /= np.linalg.norm(h)
    mix = np.convolve(ref, h)[:n]
    return ref, mix, h


# The per-sample recursion that anc_cancel computes block-exact, kept as its oracle.
@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises below instead
def loop_anc_cancel(mixture: AudioBuffer, reference: AudioBuffer, cfg: AncConfig) -> AudioBuffer:
    """Run the full adaptive recursion over a recording.

    Returns the error sequence e(k) = x(k) - w(k) . n0(k), which is the solo
    estimate. The filter is causal on the reference; no latency is added.
    Raises FloatingPointError when the recursion diverges to a non-finite
    estimate.
    """
    require_matched(mixture, reference)
    x = mixture.samples
    ref = reference.samples
    n = len(x)
    m = cfg.taps
    mu = cfg.mu

    pw = cfg.prewhiten
    p = cfg.lp_order if pw else 0
    pad = max(m - 1, p)
    rp = np.concatenate((np.zeros(pad), ref))
    w = np.zeros(m)  # oldest-first, matching the window slices below
    out = np.empty(n)

    # NLMS guard: skip the update while the regressor norm is zero or
    # vanishing relative to the loudest window in the whole recording, else a
    # faded-in reference turns 1/||n0||^2 into a divergent step. Relative, so
    # the guard is invariant under common scaling of the inputs.
    if cfg.normalized:
        nsq_floor = 1e-10 * _peak_window_energy(ref, m)
    else:
        nsq_floor = 0.0

    if pw:
        a = np.zeros(p)  # identity whitener until the first refit
        wp = np.zeros(pad + n)  # whitened reference, same padding as rp
        e_hist = np.zeros(p)  # past raw errors, newest first
    for k in range(n):
        if pw and k > 0 and k % cfg.refresh_interval == 0:
            seg = AudioBuffer(ref[k - cfg.refresh_interval : k], reference.sample_rate)
            a = fit_whitener(seg, p)
        win = rp[pad + k - m + 1 : pad + k + 1]
        e = x[k] - np.dot(w, win)
        out[k] = e
        # The update's regressor and error: the window and the raw error, or
        # both passed through the whitener.
        u, e_u = win, e
        if pw:
            wp[pad + k] = rp[pad + k] - np.dot(a, rp[pad + k - p : pad + k][::-1])
            u = wp[pad + k - m + 1 : pad + k + 1]
            e_u = e - np.dot(a, e_hist)
            e_hist[1:] = e_hist[:-1]
            e_hist[0] = e
        if cfg.normalized:
            nsq = np.dot(u, u)
            if nsq > nsq_floor:
                w += (mu * e_u / nsq) * u
        else:
            w += (mu * e_u) * u
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("adaptive filter diverged: the estimate is not finite")
    return AudioBuffer(out, mixture.sample_rate)


# One sample of the plain LMS/NLMS recursion, the oracle of criterion 2 and of
# anc_cancel without whitening.
@dataclass
class LmsState:
    """Adaptive filter state: weights, reference delay line (newest first),
    step size, and whether the update is normalized (NLMS). :func:`lms_step`
    advances it in place."""

    weights: np.ndarray
    delay_line: np.ndarray
    mu: float
    normalized: bool = False

    @classmethod
    def create(cls, taps: int, mu: float, normalized: bool = False) -> "LmsState":
        _check_counts(taps=taps)
        _check_reals(0, mu=mu)
        return cls(np.zeros(taps), np.zeros(taps), float(mu), normalized)

    @property
    def taps(self) -> int:
        return self.weights.shape[0]


def lms_step(state: LmsState, x_k: float, n0_k: float) -> tuple[LmsState, float]:
    """Advance the recursion by one sample.

    Shifts ``n0_k`` into the delay line, forms y = w . n0, emits the error
    e = x_k - y, and updates the weights with mu * n0 * e (LMS) or
    mu * n0 / ||n0||^2 * e (NLMS; skipped while the delay line is all zero).
    Mutates ``state`` and returns it along with the error sample.
    """
    if not (np.isfinite(x_k) and np.isfinite(n0_k)):
        raise ValueError("input samples must be finite")
    dl = state.delay_line
    dl[1:] = dl[:-1]
    dl[0] = n0_k
    y = float(np.dot(state.weights, dl))
    e = float(x_k) - y
    if state.mu != 0.0:
        if state.normalized:
            nsq = float(np.dot(dl, dl))
            if nsq > 0.0:
                state.weights += (state.mu * e / nsq) * dl
        else:
            state.weights += (state.mu * e) * dl
    return state, e


def click_fade_reference(n, rng):
    """A click, silence, then noise fading in: window energies that jump, vanish
    and creep up through the NLMS guard floor."""
    ref = np.zeros(n)
    if n:
        ref[n // 10] = 5.0
    start = n // 2
    ref[start:] = rng.standard_normal(n - start) * np.linspace(0.0, 1.0, n - start) ** 3
    return ref


def assert_matches_loop(mix, ref, cfg):
    """anc_cancel within rtol 1e-9, atol 1e-12 of the loop, raising exactly when
    the loop's estimate is not finite."""
    try:
        want = loop_anc_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg).samples
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            anc_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
        return
    got = anc_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg).samples
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def recursion_inputs(n, seed, reference, silence):
    """A mixture and reference of n samples; the reference is noise with a
    leading silence, or the click-silence-fade one."""
    rng = np.random.default_rng(seed)
    if reference == "click":
        ref = click_fade_reference(n, rng)
    else:
        ref = rng.standard_normal(n)
        ref[: int(silence * n)] = 0.0  # leading silence trips the NLMS guard
    # the appended zero keeps np.convolve's input non-empty when n = 0
    mix = np.convolve(np.r_[ref, 0.0], rng.standard_normal(4))[:n] + 0.1 * rng.standard_normal(n)
    return mix, ref


class TestLmsStep:
    def test_zero_history_passes_input_through(self):
        state = LmsState.create(4, 0.1)
        state, e = lms_step(state, 0.7, 0.0)
        assert e == 0.7
        assert np.all(state.weights == 0.0)

    def test_zero_mu_freezes_weights(self):
        state = LmsState.create(4, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            state, _ = lms_step(state, rng.standard_normal(), rng.standard_normal())
        assert np.all(state.weights == 0.0)

    def test_nlms_skips_update_on_zero_norm(self):
        state = LmsState.create(3, 0.5, normalized=True)
        state, e = lms_step(state, 1.0, 0.0)
        assert np.all(state.weights == 0.0) and e == 1.0

    def test_system_identification(self):
        ref, mix, h = planted_system(50_000, taps=4, seed=1)
        state = LmsState.create(4, 0.01)
        for k in range(50_000):
            state, _ = lms_step(state, mix[k], ref[k])
        assert np.linalg.norm(state.weights - h) / np.linalg.norm(h) < 0.05

    def test_non_finite_input_rejected(self):
        state = LmsState.create(4, 0.1)
        with pytest.raises(ValueError):
            lms_step(state, np.nan, 0.0)
        with pytest.raises(ValueError):
            lms_step(state, 0.0, np.inf)

    @pytest.mark.parametrize("mu", [-0.1, np.nan, np.inf])
    def test_invalid_step_size_rejected(self, mu):
        with pytest.raises(ValueError):
            LmsState.create(4, mu)
        with pytest.raises(ValueError):
            AncConfig(taps=4, mu=mu)


class TestFitWhitener:
    def test_white_noise_near_identity(self):
        hits = 0
        for seed in range(10):
            frame = AudioBuffer(np.random.default_rng(seed).standard_normal(4000))
            hits += np.max(np.abs(fit_whitener(frame, 15))) < 0.1
        assert hits == 10

    def test_ar1_pole_recovered(self):
        rng = np.random.default_rng(3)
        x = np.zeros(20000)
        for k in range(1, len(x)):
            x[k] = 0.9 * x[k - 1] + rng.standard_normal()
        assert 0.85 <= fit_whitener(AudioBuffer(x), 1)[0] <= 0.95

    def test_zero_frame_gives_identity(self):
        assert np.all(fit_whitener(AudioBuffer(np.zeros(500)), 10) == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_raises(self, bad):
        # a NaN returned a NaN predictor, with no error
        x = np.random.default_rng(6).standard_normal(500)
        x[17] = bad
        with pytest.raises(FloatingPointError, match="frame"):
            fit_whitener(AudioBuffer(x), 4)

    def test_returns_the_predictor_vector(self):
        a = fit_whitener(AudioBuffer(np.random.default_rng(4).standard_normal(500)), 6)
        assert a.shape == (6,) and a.dtype == np.float64

    def test_whitening_reduces_lag1_correlation(self):
        rng = np.random.default_rng(5)
        x = np.zeros(8000)
        for k in range(1, len(x)):
            x[k] = 0.8 * x[k - 1] + rng.standard_normal()
        a = fit_whitener(AudioBuffer(x), 8)
        y = np.convolve(x, np.concatenate(([1.0], -a)))[: len(x)]

        def rho1(v):
            return np.dot(v[1:], v[:-1]) / np.dot(v, v)

        assert abs(rho1(y)) <= abs(rho1(x))

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            fit_whitener(AudioBuffer(np.ones(100)), 15)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            fit_whitener(AudioBuffer(np.ones(100)), order)

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 40),
        extra=st.integers(2, 3000),
        kind=st.sampled_from(["noise", "ar2", "tone", "silent", "scene"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_correlation_oracle(self, order, extra, kind, seed):
        # The lags 0..order of the full np.correlate, then the same Levinson recursion.
        rng = np.random.default_rng(seed)
        n = 10 * order + extra
        if kind == "noise":
            x = rng.standard_normal(n)
        elif kind == "ar2":
            x = np.zeros(n)
            drive = rng.standard_normal(n)
            for k in range(2, n):
                x[k] = 1.2 * x[k - 1] - 0.5 * x[k - 2] + drive[k]
        elif kind == "tone":
            x = np.sin(0.05 * np.arange(n)) + 1e-6 * rng.standard_normal(n)
        elif kind == "silent":
            x = np.zeros(n)
        else:
            x = broadband_accompaniment(1.0, 8000, seed=seed % 1000).samples[:n]
            n = len(x)
            if n <= 10 * order:
                return
        r = np.correlate(x, x, mode="full")[n - 1 : n + order] / n
        got = fit_whitener(AudioBuffer(x), order)
        assert got.tobytes() == _levinson(r, order).tobytes()

    def test_eleven_sample_frame_matches_to_rounding(self):
        # np.correlate sums the zero lag of a frame of at most 11 samples in its own
        # loop rather than BLAS's dot: the one frame fit_whitener accepts at that
        # length (order 1) may differ from it in the last bits of r[0].
        x = np.random.default_rng(0).standard_normal(11)
        r = np.correlate(x, x, mode="full")[10:12] / 11
        assert np.allclose(fit_whitener(AudioBuffer(x), 1), _levinson(r, 1), rtol=1e-14, atol=0)

    def test_matches_direct_normal_equations(self):
        import scipy.linalg

        rng = np.random.default_rng(6)
        x = np.zeros(6000)
        drive = rng.standard_normal(6000)
        for k in range(2, len(x)):
            x[k] = 1.2 * x[k - 1] - 0.5 * x[k - 2] + drive[k]
        order = 4
        a = fit_whitener(AudioBuffer(x), order)
        r = np.correlate(x, x, mode="full")[len(x) - 1 : len(x) + order] / len(x)
        direct = np.linalg.solve(scipy.linalg.toeplitz(r[:order]), r[1 : order + 1])
        assert np.allclose(a, direct, rtol=1e-8)


class TestAncCancel:
    def test_zero_reference_passes_mixture_through(self):
        rng = np.random.default_rng(6)
        mix = AudioBuffer(rng.standard_normal(2000))
        ref = AudioBuffer(np.zeros(2000))
        out = anc_cancel(mix, ref, AncConfig(taps=8, mu=0.5, normalized=True))
        assert np.array_equal(out.samples, mix.samples)

    def test_divergence_raises(self):
        # NLMS on a whitened one-tap regressor: the guard floor comes from the
        # raw reference, the step divides by the far smaller whitened energy
        fs = 44100
        ref = broadband_accompaniment(0.1, fs, seed=17)
        mix = AudioBuffer(noise_plus_tones(0.1, fs, seed=17).samples + ref.samples, fs)
        cfg = AncConfig(taps=1, mu=0.05, prewhiten=True, lp_order=4, refresh_interval=441)
        with pytest.raises(FloatingPointError):
            anc_cancel(mix, ref, cfg)

    def test_planted_scene_residual(self):
        fs = 44100
        ref, mix, _ = planted_system(10 * fs, taps=16, seed=7, sigma=0.3)
        out = anc_cancel(
            AudioBuffer(mix, fs),
            AudioBuffer(ref, fs),
            AncConfig(taps=16, mu=0.005, normalized=True),
        )
        tail = out.samples[-fs:]
        mix_rms = np.sqrt(np.mean(mix**2))
        assert np.sqrt(np.mean(tail**2)) < 0.05 * mix_rms

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            anc_cancel(
                AudioBuffer(np.zeros(10)),
                AudioBuffer(np.zeros(11)),
                AncConfig(taps=4, mu=0.1),
            )

    def test_nlms_scale_invariance(self):
        rng = np.random.default_rng(8)
        n = 44100
        ref = rng.standard_normal(n)
        mix = np.convolve(ref, [0.5, -0.2, 0.1])[:n] + 0.1 * rng.standard_normal(n)
        cfg = AncConfig(taps=8, mu=0.4, normalized=True)
        base = anc_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
        for c in (0.1, 10.0):
            scaled = anc_cancel(AudioBuffer(c * mix), AudioBuffer(c * ref), cfg)
            assert np.allclose(scaled.samples, c * base.samples, rtol=1e-9, atol=1e-12)

    def test_lms_stability_under_step_bound(self):
        # white reference, mu < 1/(3 M sigma^2): no blow-up over 1e6 steps
        m, sigma = 8, 1.0
        mu = 0.9 / (3 * m * sigma**2)
        ref, mix, h = planted_system(1_000_000, taps=m, seed=9, sigma=sigma)
        out = anc_cancel(
            AudioBuffer(mix), AudioBuffer(ref), AncConfig(taps=m, mu=mu, normalized=False)
        )
        assert np.all(np.isfinite(out.samples))
        assert np.sqrt(np.mean(out.samples[-10_000:] ** 2)) < 10 * sigma

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
        taps=st.integers(1, 64),
        mu=st.sampled_from([0.0, 0.005, 0.2]),
        normalized=st.booleans(),
        lp_order=st.integers(1, 20),
        silence=st.floats(0.0, 1.0),
    )
    @example(n=3000, seed=None, taps=4, mu=0.2, normalized=True, lp_order=2, silence=0.0)
    def test_prewhitened_matches_plain_when_identity(
        self, n, seed, taps, mu, normalized, lp_order, silence
    ):
        # refresh_interval exceeds the signal length, so the whitener stays
        # at its identity initialization and both paths must agree exactly
        if seed is None:  # the original fixed case
            rng = np.random.default_rng(10)
            ref = rng.standard_normal(n)
            mix = np.convolve(ref, [0.3, 0.1])[:n]
        else:
            rng = np.random.default_rng(seed)
            ref = rng.standard_normal(n)
            ref[: int(silence * n)] = 0.0  # leading silence trips the NLMS guard
            mix = np.convolve(ref, rng.standard_normal(3))[:n] + 0.1 * rng.standard_normal(n)
        if not normalized:
            mu /= taps  # LMS stays stable on unit-power input
        plain = anc_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            AncConfig(taps=taps, mu=mu, normalized=normalized, prewhiten=False),
        )
        whitened = anc_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            AncConfig(taps=taps, mu=mu, normalized=normalized, prewhiten=True,
                      lp_order=lp_order, refresh_interval=max(n + 1, 10 * lp_order + 1)),
        )
        assert np.array_equal(plain.samples, whitened.samples)
        assert plain.samples.tobytes() == whitened.samples.tobytes()

    def test_negative_zero_samples_keep_the_whitened_paths_bytes(self):
        # Without a whitener the block solve skips B h, whose zero sum turned a -0 of
        # d into +0; the plain path keeps the identity-whitened path's bytes anyway.
        rng = np.random.default_rng(11)
        n = 700
        ref = rng.standard_normal(n)
        ref[:100] = 0.0
        mix = np.convolve(ref, [0.3, 0.1])[:n]
        mix[:200] = -0.0
        plain, whitened = (
            anc_cancel(AudioBuffer(mix), AudioBuffer(ref),
                       AncConfig(taps=16, mu=0.5, prewhiten=pw, refresh_interval=n + 1))
            for pw in (False, True)
        )
        assert plain.samples.tobytes() == whitened.samples.tobytes()

    def test_prewhitening_speeds_convergence_on_colored_reference(self):
        rng = np.random.default_rng(11)
        n = 120_000
        drive = rng.standard_normal(n)
        ref = np.zeros(n)
        for k in range(1, n):  # strongly colored AR(1) reference
            ref[k] = 0.95 * ref[k - 1] + drive[k]
        ref *= 0.1
        h = rng.standard_normal(32)
        h /= np.linalg.norm(h)
        mix = np.convolve(ref, h)[:n]
        plain = anc_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            AncConfig(taps=32, mu=0.002, normalized=False),
        )
        whitened = anc_cancel(
            AudioBuffer(mix), AudioBuffer(ref),
            AncConfig(taps=32, mu=0.002, normalized=False, prewhiten=True,
                      lp_order=4, refresh_interval=8192),
        )
        tail = slice(-20_000, None)
        assert np.sqrt(np.mean(whitened.samples[tail] ** 2)) < np.sqrt(
            np.mean(plain.samples[tail] ** 2)
        )

    def test_matches_lms_step_recursion(self):
        n = 400
        # (seed, taps, mu, normalized); the first is the original LMS case
        for seed, taps, mu, normalized in [
            (12, 6, 0.05, False), (13, 1, 0.05, False), (14, 32, 0.01, False),
            (15, 6, 0.5, True), (16, 1, 0.5, True), (17, 32, 0.2, True), (18, 6, 0.0, True),
        ]:
            rng = np.random.default_rng(seed)
            ref = rng.standard_normal(n)
            mix = rng.standard_normal(n)
            cfg = AncConfig(taps=taps, mu=mu, normalized=normalized)
            batch = anc_cancel(AudioBuffer(mix), AudioBuffer(ref), cfg)
            state = LmsState.create(taps, mu, normalized)
            stepped = np.empty(n)
            for k in range(n):
                state, stepped[k] = lms_step(state, mix[k], ref[k])
            assert np.allclose(batch.samples, stepped, rtol=1e-9, atol=1e-12)


class TestBlockExactRecursion:
    """anc_cancel's block recursion against the per-sample loop it replaced.

    Pre-whitened NLMS at one tap is left out: it diverges because the guard
    floor comes from the raw reference while the step divides by the whitened
    energy, an open defect whose fix changes the bytes of the estimate.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(0, 1500),
        taps=st.integers(1, 300),
        mu=st.sampled_from([0.0, 0.005, 0.2]),
        normalized=st.booleans(),
        whitening=st.one_of(
            st.none(),
            st.tuples(st.one_of(st.integers(1, 12), st.just(80)), st.integers(1, 300)),
        ),
        reference=st.sampled_from(["noise", "click"]),
        silence=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=63, taps=64, mu=0.2, normalized=True, whitening=None, reference="noise",
             silence=0.0, seed=0)
    @example(n=64, taps=64, mu=0.2, normalized=True, whitening=None, reference="noise",
             silence=0.0, seed=0)
    @example(n=65, taps=65, mu=0.005, normalized=False, whitening=(4, 1), reference="click",
             silence=0.0, seed=1)
    @example(n=1500, taps=300, mu=0.2, normalized=True, whitening=(80, 7), reference="noise",
             silence=0.3, seed=2)
    @example(n=1200, taps=100, mu=0.005, normalized=True, whitening=(15, 99), reference="click",
             silence=0.0, seed=3)
    @example(n=1500, taps=300, mu=0.2, normalized=False, whitening=None, reference="noise",
             silence=0.0, seed=4)  # LMS far above its step bound: both raise
    def test_matches_loop(self, n, taps, mu, normalized, whitening, reference, silence, seed):
        assume(not (whitening and normalized and taps == 1))
        mix, ref = recursion_inputs(n, seed, reference, silence)
        cfg = AncConfig(taps=taps, mu=mu, normalized=normalized)
        if whitening:
            lp_order, extra = whitening
            cfg = AncConfig(taps=taps, mu=mu, normalized=normalized, prewhiten=True,
                            lp_order=lp_order, refresh_interval=10 * lp_order + extra)
        assert_matches_loop(mix, ref, cfg)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 120),
        taps=st.integers(1, 40),
        mu=st.sampled_from([0.005, 0.2]),
        normalized=st.booleans(),
        whitening=st.one_of(st.none(), st.tuples(st.integers(1, 8), st.integers(1, 30))),
        reference=st.sampled_from(["noise", "click"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_block_size(self, n, taps, mu, normalized, whitening, reference, seed):
        # At one sample per block the recursion is the per-sample loop; at n the
        # whole take (or the whole whitener span) is one block.
        assume(not (whitening and normalized and taps == 1))
        mix, ref = recursion_inputs(n, seed, reference, 0.2)
        cfg = AncConfig(taps=taps, mu=mu, normalized=normalized)
        if whitening:
            lp_order, extra = whitening
            cfg = AncConfig(taps=taps, mu=mu, normalized=normalized, prewhiten=True,
                            lp_order=lp_order, refresh_interval=10 * lp_order + extra)
        for block in range(1, n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(anc_module, "_BLOCK_SAMPLES", block)
                assert_matches_loop(mix, ref, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, True], ids=["nan", "inf", "2.5", "True"])
@pytest.mark.parametrize("field", ["taps", "lp_order", "refresh_interval"])
def test_integer_setting_checked_at_construction(field, bad):
    # a ValueError naming the field, not a TypeError once the recursion runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            AncConfig(**{"taps": 4, "mu": 0.1, "prewhiten": True, field: bad})


def test_numpy_integer_settings_accepted():
    ref, mix, _ = planted_system(3000, seed=21)
    x, r = AudioBuffer(mix), AudioBuffer(ref)
    numpy_cfg = AncConfig(taps=np.int64(8), mu=0.1, prewhiten=True, lp_order=np.int32(4),
                          refresh_interval=np.int64(1000))
    cfg = AncConfig(taps=8, mu=0.1, prewhiten=True, lp_order=4, refresh_interval=1000)
    assert anc_cancel(x, r, numpy_cfg).samples.tobytes() == anc_cancel(x, r, cfg).samples.tobytes()


@pytest.mark.parametrize("build,key", [
    (lambda: AncConfig(taps=0, mu=0.1), "taps"),
    (lambda: AncConfig(taps=4, mu=0.1, prewhiten=True, lp_order=0), "lp_order"),
    (lambda: AncConfig(taps=4, mu=0.1, prewhiten=True, refresh_interval=150), "refresh_interval"),
    (lambda: LmsState.create(0, 0.1), "taps"),
    (lambda: fit_whitener(AudioBuffer(np.ones(1000)), 0), "order"),
], ids=["taps", "lp_order", "refresh_interval", "lms-taps", "whitener-order"])
def test_bad_setting_rejected(build, key):
    with pytest.raises(ValueError, match=key):
        build()
