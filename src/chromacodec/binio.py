"""Bounded reads shared by the weight file and the video container.

Every way a byte string can run short surfaces as a DataError naming
the container and the field being read.
"""

from __future__ import annotations

import struct

from .errors import DataError


class Reader:
    """Reads a byte string front to back, never past its end."""

    def __init__(self, data: bytes, container: str):
        self._data = data
        self._pos = 0
        self._container = container

    def take(self, n: int, what: str) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise DataError(f"truncated {self._container}: {what}")
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def finish(self, what: str) -> None:
        if self._pos != len(self._data):
            raise DataError(f"trailing bytes after {what}")
