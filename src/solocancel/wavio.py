"""Minimal RIFF/WAVE I/O: 16/24-bit PCM and 32-bit float, mono or stereo.

Hand-rolled because 24-bit PCM writing is outside scipy.io.wavfile's remit.
Samples are exchanged as float64 in [-1, 1]; integer formats scale by
2^(bits-1) on read and clip on write.
"""

from __future__ import annotations

import struct

import numpy as np

from .audio import AudioBuffer

_FORMATS = {"pcm16": (1, 2), "pcm24": (1, 3), "float32": (3, 4)}


def write_wav(path, data: np.ndarray, sample_rate: int, fmt: str = "float32"):
    """Write mono (n,) or multichannel (n, ch) float data as a WAV file."""
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be one of {sorted(_FORMATS)}, got {fmt!r}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ValueError("data must be (n,) or (n, channels)")
    n, channels = data.shape
    audio_format, sample_bytes = _FORMATS[fmt]

    if fmt == "float32":
        payload = data.astype("<f4").tobytes()
    else:
        scale = float(1 << (8 * sample_bytes - 1))
        ints = np.clip(np.rint(data * scale), -scale, scale - 1).astype(np.int64)
        if fmt == "pcm16":
            payload = ints.astype("<i2").tobytes()
        else:
            le32 = ints.astype("<i4").tobytes()
            as_bytes = np.frombuffer(le32, dtype=np.uint8).reshape(-1, 4)
            payload = as_bytes[:, :3].tobytes()  # low three bytes, little-endian

    byte_rate = sample_rate * channels * sample_bytes
    block_align = channels * sample_bytes
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        channels,
        sample_rate,
        byte_rate,
        block_align,
        8 * sample_bytes,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if len(payload) % 2:
            fh.write(b"\x00")


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file into float64 in [-1, 1]; returns (data, sample_rate).

    Mono files come back as (n,), multichannel as (n, channels). Accepts
    8/16/24/32-bit PCM and 32/64-bit float data, also as WAVE_FORMAT_EXTENSIBLE.
    A file cut short (header, ``fmt `` chunk or mid-frame data) raises
    EOFError; data that ends on a whole frame before its declared size reads,
    since streaming writers leave the size unset.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise EOFError(f"{path}: truncated RIFF header")
        riff, _, wave = struct.unpack("<4sI4s", head)
        if riff != b"RIFF" or wave != b"WAVE":
            raise ValueError(f"{path} is not a RIFF/WAVE file")
        fmt = None
        payload = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                break
            chunk_id, size = struct.unpack("<4sI", head)
            body = fh.read(size)
            if size % 2:
                fh.read(1)
            if chunk_id == b"fmt ":
                fmt = body
            elif chunk_id == b"data":
                payload = body
        if fmt is None or payload is None:
            raise ValueError(f"{path}: missing fmt or data chunk")

    extensible = fmt[:2] == struct.pack("<H", 0xFFFE)  # WAVE_FORMAT_EXTENSIBLE
    if len(fmt) < (26 if extensible else 16):
        raise EOFError(f"{path}: truncated fmt chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if extensible:  # the real format code opens the SubFormat GUID
        (audio_format,) = struct.unpack("<H", fmt[24:26])
    frame_bytes = channels * (bits // 8)
    if frame_bytes and len(payload) % frame_bytes:
        raise EOFError(f"{path}: data chunk ends mid-frame")
    if audio_format == 1:
        if bits == 8:
            raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
            data = (raw - 128.0) / 128.0
        elif bits == 16:
            data = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            as_bytes = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
            padded = np.zeros((as_bytes.shape[0], 4), dtype=np.uint8)
            padded[:, 1:] = as_bytes
            ints = padded.view("<i4")[:, 0] >> 8
            data = ints.astype(np.float64) / 8388608.0
        elif bits == 32:
            data = np.frombuffer(payload, dtype="<i4").astype(np.float64) / 2147483648.0
        else:
            raise ValueError(f"unsupported PCM bit depth {bits}")
    elif audio_format == 3:
        dtype = "<f4" if bits == 32 else "<f8"
        data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV format code {audio_format}")

    if channels > 1:
        data = data.reshape(-1, channels)
    return data, sample_rate


def read_mono(path) -> AudioBuffer:
    """Read a WAV that must be mono."""
    data, sr = read_wav(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono, got {data.shape[1]} channels")
    return AudioBuffer(data, sr)


def read_channels(path) -> list[AudioBuffer]:
    """Read a WAV as a list of per-channel buffers."""
    data, sr = read_wav(path)
    if data.ndim == 1:
        return [AudioBuffer(data, sr)]
    return [AudioBuffer(data[:, c].copy(), sr) for c in range(data.shape[1])]
