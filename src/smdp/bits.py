"""Bit-vector helpers.

Bit vectors are tuples of 0/1 ints, most-significant bit first whenever a
numeric reading applies. Batches of them are 2-D bool arrays, one row per
vector, or column words: one Python int per column, bit r being row r, the
form the circuit kernel works on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

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
    to 62 bits, exact Python ints (object dtype) beyond, so no width wraps.
    Each row is read from its packed bytes: below 63 bits as one int64, its
    bytes reversed into little-endian order, beyond with one `int.from_bytes`."""
    width, nb = rows.shape[1], (rows.shape[1] + 7) // 8
    # each row zero-padded on the left to whole bytes, so one flat packbits packs them all
    padded = np.zeros((len(rows), 8 * nb), bool)
    padded[:, 8 * nb - width :] = rows
    packed = np.packbits(padded).reshape(len(rows), nb)
    if width < 63:
        words = np.zeros((len(rows), 8), np.uint8)
        words[:, :nb] = packed[:, ::-1]  # the bytes of one little-endian word
        return words.view("<i8")[:, 0]
    data = packed.tobytes()
    vals = [int.from_bytes(data[r * nb : r * nb + nb], "big") for r in range(len(rows))]
    return np.array(vals, dtype=object)


def signed_rows(rows: np.ndarray) -> np.ndarray:
    """Two's-complement reading of each row of a 2-D bool array, MSB first,
    with the dtype rule of `unsigned_rows`."""
    vals = unsigned_rows(rows)
    if rows.shape[1] == 0:
        return vals
    return np.where(rows[:, 0], vals - (1 << rows.shape[1]), vals)


def column_words(arr: np.ndarray, blocks: int = 1) -> Tuple[List[int], int]:
    """The columns of a 2-D bool array as Python-int words, bit r of a word
    being row r, plus the block height npad = 8·ceil(rows/8).

    With ``blocks`` > 1 each column is repeated that many times, one
    byte-aligned block of npad rows per copy, so bit b·npad + r is row r in
    every block b and the padding rows read 0."""
    nbytes = (arr.shape[0] + 7) // 8
    # pack the rows of the transpose: each column's bytes come out contiguous
    packed = np.packbits(np.ascontiguousarray(arr.T), axis=1, bitorder="little").tobytes()
    return [
        int.from_bytes(packed[k * nbytes : (k + 1) * nbytes] * blocks, "little")
        for k in range(arr.shape[1])
    ], 8 * nbytes


@lru_cache(maxsize=64)
def block_words(values: Sequence[int], width: int, npad: int) -> Tuple[int, ...]:
    """The `width` MSB-first bits of each of `values` as column words over
    len(values) blocks of npad rows: every row of block b reads values[b].
    `values` is a tuple or a range, the key of the cache."""
    grid = (np.asarray(values, dtype=np.int64) >> np.arange(width - 1, -1, -1)[:, None]) & 1
    # one byte per 8 rows of a block: 0xff where the block's bit is set
    data = np.repeat(grid.astype(np.uint8) * 0xFF, npad // 8, axis=1)
    return tuple(int.from_bytes(row.tobytes(), "little") for row in data)


def block_index_words(width: int, blocks: int, npad: int) -> Tuple[int, ...]:
    """`block_words` of the block index: every row of block b reads b."""
    return block_words(range(blocks), width, npad)


def word_bits(words: Sequence[int], rows: int) -> np.ndarray:
    """The low `rows` bits of each word as a (len(words), rows) bool array;
    the inverse of `column_words` up to a transpose."""
    nbytes = (rows + 7) // 8
    buf = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words), dtype=np.uint8)
    return np.unpackbits(
        buf.reshape(len(words), nbytes), axis=1, count=rows, bitorder="little"
    ).view(bool)


def row_tuples(rows) -> List[BitVector]:
    """Each row of a 2-D array of bools or 0/1 ints as a bit vector."""
    return [tuple(r) for r in np.asarray(rows, dtype=np.uint8).tolist()]


def parse_bitstring(text: str) -> BitVector:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"bad bitstring {text!r}")
    return tuple(int(ch) for ch in text)


def format_bitstring(bits: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in bits)
