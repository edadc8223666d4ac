import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solocancel import (
    AncConfig, AudioBuffer, LmsState, Whitener, anc_cancel, broadband_accompaniment, fit_whitener,
    lms_step, noise_plus_tones,
)
from solocancel.anc import _levinson


def planted_system(n, taps=4, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    ref = sigma * rng.standard_normal(n)
    h = rng.standard_normal(taps)
    h /= np.linalg.norm(h)
    mix = np.convolve(ref, h)[:n]
    return ref, mix, h


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

    @pytest.mark.parametrize("mu", [-0.1, np.nan])
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
            wh = fit_whitener(frame, 15)
            hits += np.max(np.abs(wh.coeffs)) < 0.1
        assert hits == 10

    def test_ar1_pole_recovered(self):
        rng = np.random.default_rng(3)
        x = np.zeros(20000)
        for k in range(1, len(x)):
            x[k] = 0.9 * x[k - 1] + rng.standard_normal()
        wh = fit_whitener(AudioBuffer(x), 1)
        assert 0.85 <= wh.coeffs[0] <= 0.95

    def test_zero_frame_gives_identity(self):
        wh = fit_whitener(AudioBuffer(np.zeros(500)), 10)
        assert np.all(wh.coeffs == 0.0)
        assert wh.inverse_filter[0] == 1.0

    def test_coefficients_must_be_a_vector(self):
        with pytest.raises(ValueError):
            Whitener(np.zeros((2, 2)))
        assert Whitener([0.5]).inverse_filter.tolist() == [1.0, -0.5]

    def test_inverse_filter_layout(self):
        wh = fit_whitener(AudioBuffer(np.random.default_rng(4).standard_normal(500)), 6)
        v = wh.inverse_filter
        assert v[0] == 1.0
        assert np.array_equal(v[1:], -wh.coeffs)

    def test_whitening_reduces_lag1_correlation(self):
        rng = np.random.default_rng(5)
        x = np.zeros(8000)
        for k in range(1, len(x)):
            x[k] = 0.8 * x[k - 1] + rng.standard_normal()
        wh = fit_whitener(AudioBuffer(x), 8)
        y = wh.apply(x)

        def rho1(v):
            return np.dot(v[1:], v[:-1]) / np.dot(v, v)

        assert abs(rho1(y)) <= abs(rho1(x))

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            fit_whitener(AudioBuffer(np.ones(100)), 15)

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
        got = fit_whitener(AudioBuffer(x), order).coeffs
        assert got.tobytes() == _levinson(r, order).tobytes()

    def test_eleven_sample_frame_matches_to_rounding(self):
        # np.correlate sums the zero lag of a frame of at most 11 samples in its own
        # loop rather than BLAS's dot: the one frame fit_whitener accepts at that
        # length (order 1) may differ from it in the last bits of r[0].
        x = np.random.default_rng(0).standard_normal(11)
        r = np.correlate(x, x, mode="full")[10:12] / 11
        assert np.allclose(fit_whitener(AudioBuffer(x), 1).coeffs, _levinson(r, 1), rtol=1e-14, atol=0)

    def test_matches_direct_normal_equations(self):
        import scipy.linalg

        rng = np.random.default_rng(6)
        x = np.zeros(6000)
        drive = rng.standard_normal(6000)
        for k in range(2, len(x)):
            x[k] = 1.2 * x[k - 1] - 0.5 * x[k - 2] + drive[k]
        order = 4
        wh = fit_whitener(AudioBuffer(x), order)
        r = np.correlate(x, x, mode="full")[len(x) - 1 : len(x) + order] / len(x)
        direct = np.linalg.solve(scipy.linalg.toeplitz(r[:order]), r[1 : order + 1])
        assert np.allclose(wh.coeffs, direct, rtol=1e-8)


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
