"""Length-prefixed JSON framing: 4-byte big-endian length, then UTF-8 JSON."""

from __future__ import annotations

import json
import struct

from .messages import canonical_json

MAX_FRAME = 64 * 1024 * 1024
_CHUNK = 1 << 20                # largest single recv


class ConnectionClosed(ConnectionError):
    pass


class FrameError(ValueError):
    """Frame decoded but the payload is not valid JSON, nests too deeply for
    the decoder, holds an integer too long to convert, or the frame is
    oversized."""


def encode_frame(obj) -> bytes:
    raw = canonical_json(obj).encode("utf-8")
    return struct.pack("!I", len(raw)) + raw


def send_frame(sock, obj) -> None:
    sock.sendall(encode_frame(obj))


def _recvall(sock, n: int) -> bytearray:
    """Exactly ``n`` bytes.  The buffer grows only as bytes arrive, so a
    header that announces a large frame commits no memory by itself."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), _CHUNK))
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        buf += chunk
    return buf


def recv_frame(sock):
    header = _recvall(sock, 4)
    (length,) = struct.unpack("!I", header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds limit")
    payload = _recvall(sock, length)
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge int
        raise FrameError(f"undecodable frame payload: {exc}") from None
