"""Bit-vector helpers.

Bit vectors are tuples of 0/1 ints, most-significant bit first whenever a
numeric reading applies.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

BitVector = tuple  # tuple of 0/1 ints


def width_for_count(count: int) -> int:
    """Number of bits needed to index `count` alternatives (at least 1)."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return max(1, (count - 1).bit_length())


def int_to_bits(value: int, width: int) -> BitVector:
    """Unsigned integer to MSB-first bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} unsigned bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    """MSB-first bits to unsigned integer."""
    v = 0
    for b in bits:
        v = (v << 1) | (1 if b else 0)
    return v


def int_to_twos(value: int, width: int) -> BitVector:
    """Signed integer to MSB-first two's-complement bits."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"value {value} does not fit in {width} two's-complement bits")
    return int_to_bits(value & ((1 << width) - 1), width)


def twos_to_int(bits: Sequence[int]) -> int:
    """MSB-first two's-complement bits to signed integer."""
    v = bits_to_int(bits)
    if bits and bits[0]:
        v -= 1 << len(bits)
    return v


def unsigned_rows(rows: np.ndarray) -> np.ndarray:
    """Unsigned reading of each row of a 2-D bool array, MSB first: int64 up
    to 62 bits, exact Python ints (object dtype) beyond, so no width wraps."""
    width = rows.shape[1]
    dtype = np.int64 if width < 63 else object
    weights = np.array([1 << k for k in range(width - 1, -1, -1)], dtype=dtype)
    return rows.astype(dtype) @ weights


def signed_rows(rows: np.ndarray) -> np.ndarray:
    """Two's-complement reading of each row of a 2-D bool array, MSB first,
    with the dtype rule of `unsigned_rows`."""
    vals = unsigned_rows(rows)
    return np.where(rows[:, 0], vals - (1 << rows.shape[1]), vals)


def row_tuples(rows) -> List[BitVector]:
    """Each row of a 2-D array of bools or 0/1 ints as a bit vector."""
    return [tuple(r) for r in np.asarray(rows, dtype=np.uint8).tolist()]


def parse_bitstring(text: str) -> BitVector:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bad bitstring {text!r}")
    return tuple(int(ch) for ch in text)


def format_bitstring(bits: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in bits)
