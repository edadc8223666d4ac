import struct

import numpy as np
import pytest

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

    def test_bad_format_rejected(self, mono):
        tmp, data = mono
        with pytest.raises(ValueError):
            write_wav(tmp / "x.wav", data, 44100, "pcm32")

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
