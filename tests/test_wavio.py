import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from solocancel import read_channels, read_mono, read_wav, write_wav


@pytest.fixture
def mono(tmp_path):
    rng = np.random.default_rng(0)
    return tmp_path, 0.8 * rng.uniform(-1, 1, 5000)


class TestRoundTrips:
    def test_float32_mono(self, mono):
        tmp, data = mono
        path = tmp / "m.wav"
        write_wav(path, data, 44100, "float32")
        back, sr = read_wav(path)
        assert sr == 44100 and back.ndim == 1
        assert np.allclose(back, data, atol=1e-7)

    def test_pcm16_mono(self, mono):
        tmp, data = mono
        path = tmp / "m16.wav"
        write_wav(path, data, 44100, "pcm16")
        back, _ = read_wav(path)
        assert np.allclose(back, data, atol=1.0 / 32768)

    def test_pcm24_mono(self, mono):
        tmp, data = mono
        path = tmp / "m24.wav"
        write_wav(path, data, 44100, "pcm24")
        back, _ = read_wav(path)
        assert np.allclose(back, data, atol=1.0 / 8388608)

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
    def test_stereo(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        data = 0.5 * rng.uniform(-1, 1, (3000, 2))
        path = tmp_path / "s.wav"
        write_wav(path, data, 48000, fmt)
        back, sr = read_wav(path)
        assert sr == 48000 and back.shape == (3000, 2)
        assert np.allclose(back, data, atol=2e-5)

    def test_clipping_on_write(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, np.array([2.0, -2.0]), 44100, "pcm16")
        back, _ = read_wav(path)
        assert back[0] == pytest.approx(1.0, abs=1e-4)
        assert back[1] == pytest.approx(-1.0, abs=1e-4)

    def test_deterministic_bytes(self, mono):
        tmp, data = mono
        a, b = tmp / "a.wav", tmp / "b.wav"
        write_wav(a, data, 44100, "float32")
        write_wav(b, data, 44100, "float32")
        assert a.read_bytes() == b.read_bytes()


#: Sample values for PCM: in-range, at and past the clip limits.
PCM_SAMPLES = st.floats(-4.0, 4.0) | st.sampled_from([-1.0, 1.0])


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        fmt=st.sampled_from(["pcm16", "pcm24", "float32"]),
        shape=st.tuples(st.integers(0, 301), st.integers(1, 8)),
        sample_rate=st.sampled_from([8000, 22050, 44100, 96000]),
        draw=st.data(),
    )
    def test_write_then_read(self, tmp_path_factory, fmt, shape, sample_rate, draw):
        """float32 comes back exactly after a float32 cast. PCM at b bits comes back within
        half an LSB (2^-b) of the input clipped to [-1, 1 - 2^(1-b)], the largest code's
        value: exactly that value at or past the limits."""
        samples = st.floats(-1e38, 1e38) if fmt == "float32" else PCM_SAMPLES
        data = draw.draw(arrays(np.float64, shape, elements=samples))
        path = tmp_path_factory.mktemp("roundtrip") / "x.wav"
        write_wav(path, data, sample_rate, fmt)
        back, sr = read_wav(path)
        frames, channels = shape
        assert sr == sample_rate
        assert back.shape == ((frames,) if channels == 1 else shape)
        back = back.reshape(shape)
        if fmt == "float32":
            assert back.tobytes() == data.astype(np.float32).astype(np.float64).tobytes()
            return
        scale = 2.0 ** (15 if fmt == "pcm16" else 23)
        top = (scale - 1.0) / scale
        want = np.clip(data, -1.0, top)
        assert np.all(np.abs(back * scale - want * scale) <= 0.5)
        outside = (data < -1.0) | (data >= top)
        assert np.array_equal(back[outside], want[outside])


class TestHelpers:
    def test_read_mono_rejects_stereo(self, tmp_path):
        path = tmp_path / "st.wav"
        write_wav(path, np.zeros((100, 2)), 44100)
        with pytest.raises(ValueError):
            read_mono(path)
        assert len(read_channels(path)) == 2

    def test_read_mono_buffer(self, mono):
        tmp, data = mono
        path = tmp / "m.wav"
        write_wav(path, data, 22050, "float32")
        buf = read_mono(path)
        assert buf.sample_rate == 22050 and len(buf) == len(data)

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, fmt, bad):
        path = tmp_path / "x.wav"
        with pytest.raises(FloatingPointError):
            write_wav(path, np.array([[0.5, 0.0], [bad, -0.5]]), 44100, fmt)
        assert not path.exists()

    def test_float32_overflow_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(FloatingPointError):
            write_wav(path, [0.5, 1e300, -1e40], 8000, "float32")
        assert not path.exists()

    def test_bad_format_rejected(self, mono):
        tmp, data = mono
        with pytest.raises(ValueError):
            write_wav(tmp / "x.wav", data, 44100, "pcm32")
        with pytest.raises(ValueError):
            write_wav(tmp / "x.wav", np.zeros((4, 2, 2)), 44100)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"RIFX0000WAVE")
        with pytest.raises(ValueError):
            read_wav(path)

    def test_odd_payload_padding(self, tmp_path):
        # 3 pcm24 samples -> 9 payload bytes, needs a pad byte
        path = tmp_path / "odd.wav"
        write_wav(path, np.array([0.1, -0.2, 0.3]), 44100, "pcm24")
        back, _ = read_wav(path)
        assert back.shape == (3,)
        assert np.allclose(back, [0.1, -0.2, 0.3], atol=1e-6)


#: KSDATAFORMAT_SUBTYPE GUID after its leading two-byte format code.
GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(*chunks):
    """A RIFF/WAVE file from (chunk id, body) pairs; the sizes are the bodies'."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b + b"\x00" * (len(b) % 2) for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def extensible(path):
    """Rewrite a file from write_wav with its fmt chunk as WAVE_FORMAT_EXTENSIBLE."""
    raw = path.read_bytes()
    code, channels, rate, byte_rate, align, bits = struct.unpack("<HHIIHH", raw[20:36])
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, align, bits, 22, bits, 3)
    fmt += struct.pack("<H", code) + GUID_TAIL
    return riff((b"fmt ", fmt), (b"data", raw[44 : 44 + struct.unpack("<I", raw[40:44])[0]]))


class TestDamagedAndExtensible:
    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
    def test_extensible_reads_like_plain(self, tmp_path, fmt):
        rng = np.random.default_rng(2)
        plain = tmp_path / "plain.wav"
        write_wav(plain, 0.5 * rng.uniform(-1, 1, (301, 2)), 48000, fmt)
        ext = tmp_path / "ext.wav"
        ext.write_bytes(extensible(plain))
        back, sr = read_wav(ext)
        expected, _ = read_wav(plain)
        assert sr == 48000 and back.shape == (301, 2)
        assert np.array_equal(back, expected)

    @pytest.mark.parametrize("content", [
        b"RIF",
        b"RIFF\x00\x00",
        riff((b"fmt ", struct.pack("<HHI", 1, 1, 44100)), (b"data", b"\x00" * 4)),
        riff((b"fmt ", struct.pack("<HHIIHHH", 0xFFFE, 1, 44100, 88200, 2, 16, 22)),
             (b"data", b"\x00" * 4)),
    ], ids=["3-bytes", "6-bytes", "short-fmt", "short-extensible-fmt"])
    def test_truncated_header_raises_eof(self, tmp_path, content):
        path = tmp_path / "cut.wav"
        path.write_bytes(content)
        with pytest.raises(EOFError):
            read_wav(path)

    @pytest.mark.parametrize("fmt,cut", [("pcm16", 1), ("pcm16", 2), ("pcm24", 5), ("float32", 3)])
    def test_data_cut_mid_frame_raises_eof(self, tmp_path, fmt, cut):
        path = tmp_path / "cut.wav"
        write_wav(path, np.zeros((100, 2)), 44100, fmt)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(EOFError):
            read_wav(path)

    @pytest.mark.parametrize("content", [
        # a declared 16-bit float holding two float32 samples, not one float64
        riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, 44100, 88200, 2, 16)),
             (b"data", struct.pack("<2f", 0.25, -0.5))),
        riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, 44100, 132300, 3, 24)),
             (b"data", b"\x00" * 24)),
        riff((b"fmt ", struct.pack("<HHIIHH", 1, 0, 44100, 0, 0, 16)),
             (b"data", b"\x00" * 4)),
        riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 12)),
             (b"data", b"\x00" * 4)),
        riff((b"fmt ", struct.pack("<HHIIHH", 2, 1, 44100, 88200, 2, 16)),
             (b"data", b"\x00" * 4)),
        riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16))),
        riff((b"data", b"\x00" * 4)),
    ], ids=["float16", "float24", "no-channels", "pcm12", "adpcm", "no-data-chunk",
            "no-fmt-chunk"])
    def test_impossible_format_rejected(self, tmp_path, content):
        path = tmp_path / "bad.wav"
        path.write_bytes(content)
        with pytest.raises(ValueError):
            read_wav(path)

    def test_data_short_of_declared_size_reads_whole_frames(self, tmp_path):
        # a streaming writer leaves 0xFFFFFFFF in the size fields
        path = tmp_path / "stream.wav"
        data = np.linspace(-0.5, 0.5, 200).reshape(100, 2)
        write_wav(path, data, 44100, "pcm24")
        raw = bytearray(path.read_bytes())
        raw[4:8] = raw[40:44] = b"\xff\xff\xff\xff"
        path.write_bytes(bytes(raw[:-6]))  # one stereo pcm24 frame short
        back, _ = read_wav(path)
        assert back.shape == (99, 2)
        assert np.allclose(back, data[:99], atol=1.0 / 8388608)


class TestExactPcmRead:
    @pytest.mark.parametrize("bits", [8, 16, 24, 32])
    def test_codes_read_as_code_over_full_scale(self, tmp_path, bits):
        full = 1 << (bits - 1)
        codes = [-full, -1, 0, 1, full - 1]
        width = bits // 8
        # 8-bit PCM is unsigned with its zero at 128; wider PCM is signed
        stored = [c + 128 if bits == 8 else c for c in codes]
        payload = b"".join(s.to_bytes(width, "little", signed=bits > 8) for s in stored)
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000 * width, width, bits)
        path = tmp_path / f"pcm{bits}.wav"
        path.write_bytes(riff((b"fmt ", fmt), (b"data", payload)))
        data, sr = read_wav(path)
        assert sr == 8000
        assert data.dtype == np.float64
        assert data.tolist() == [c / full for c in codes]
