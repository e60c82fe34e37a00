import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smdp.bits import (
    bits_to_int,
    block_index_words,
    block_words,
    column_words,
    format_bitstring,
    int_to_bits,
    int_to_twos,
    parse_bitstring,
    row_tuples,
    signed_rows,
    twos_to_int,
    unsigned_rows,
    width_for_count,
    word_bits,
)


def test_width_for_count():
    assert width_for_count(1) == 1
    assert width_for_count(2) == 1
    assert width_for_count(3) == 2
    assert width_for_count(4) == 2
    assert width_for_count(5) == 3
    assert width_for_count(16) == 4
    assert width_for_count(17) == 5


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_unsigned_roundtrip(value):
    assert bits_to_int(int_to_bits(value, 16)) == value


@given(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
def test_twos_complement_roundtrip(value):
    assert twos_to_int(int_to_twos(value, 16)) == value


def test_twos_complement_examples():
    assert int_to_twos(-1, 4) == (1, 1, 1, 1)
    assert twos_to_int((1, 0, 0, 0)) == -8
    assert twos_to_int((0, 1, 1, 1)) == 7


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24))
def test_bitstring_roundtrip(bits):
    bits = tuple(bits)
    assert parse_bitstring(format_bitstring(bits)) == bits


@pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 65])
def test_column_words_repeat_byte_aligned_blocks(rows):
    rng = random.Random(rows)
    arr = np.array([[rng.random() < 0.5 for _ in range(3)] for _ in range(rows)], dtype=bool)
    arr = arr.reshape(rows, 3)
    for blocks in (1, 2, 5):
        words, npad = column_words(arr, blocks)
        assert npad == 8 * ((rows + 7) // 8) and len(words) == 3
        grid = word_bits(words, blocks * npad).reshape(3, blocks, npad)
        assert (grid[:, :, :rows] == arr.T[:, None, :]).all()
        assert not grid[:, :, rows:].any()  # padding rows read 0
    assert (word_bits(column_words(arr)[0], rows).T == arr).all()


@pytest.mark.parametrize("rows", [0, 1, 7, 9, 129])
def test_column_words_match_the_axis_0_packing(rows):
    # the words of packing each column along axis 0, then transposing
    rng = np.random.default_rng(rows)
    arr = rng.random((rows, 5)) < 0.5
    nbytes = (rows + 7) // 8
    packed = np.packbits(arr, axis=0, bitorder="little").T.tobytes()
    for blocks in (1, 2, 3):
        want = [
            int.from_bytes(packed[k * nbytes : (k + 1) * nbytes] * blocks, "little")
            for k in range(arr.shape[1])
        ]
        assert column_words(arr, blocks) == (want, 8 * nbytes)


@pytest.mark.parametrize("width, blocks", [(1, 1), (1, 2), (2, 3), (3, 8), (4, 11), (5, 3)])
def test_block_index_words_read_the_block_index(width, blocks):
    for npad in (8, 24):
        words = block_index_words(width, blocks, npad)
        grid = word_bits(words, blocks * npad).reshape(width, blocks, npad)
        for b in range(blocks):
            assert (grid[:, b, :] == np.array(int_to_bits(b, width), dtype=bool)[:, None]).all()


def _byte_run_index_words(width, blocks, npad):
    """The block index words as alternating byte runs, each bit's run
    doubling from the least significant one."""
    size = blocks * (npad // 8)
    words = []
    for k in range(width):
        run = min(1 << (width - 1 - k), blocks) * (npad // 8)
        period = b"\x00" * run + b"\xff" * run
        words.append(int.from_bytes((period * (size // len(period) + 1))[:size], "little"))
    return tuple(words)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("blocks", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("npad", [8, 16, 40])
def test_block_words_read_each_block_value(width, blocks, npad):
    rng = random.Random(1000 * width + 10 * blocks + npad)
    for values in (tuple(rng.randrange(1 << width) for _ in range(blocks)), range(blocks)):
        words = block_words(values, width, npad)
        want = np.zeros((width, blocks * npad), bool)
        for b, value in enumerate(values):
            for k in range(width):
                want[k, b * npad : (b + 1) * npad] = (value >> (width - 1 - k)) & 1
        assert (word_bits(words, blocks * npad) == want).all()
    assert block_index_words(width, blocks, npad) == _byte_run_index_words(width, blocks, npad)


@pytest.mark.parametrize("width", range(71))
def test_unsigned_rows_read_each_row_as_bits_to_int(width):
    rng = np.random.default_rng(width)
    for arr in (
        np.zeros((0, width), bool),
        np.zeros((3, width), bool),
        np.ones((3, width), bool),
        rng.random((17, width)) < 0.5,
        (rng.random((width, 9)) < 0.5).T,  # a strided view, as a piece reads its numerators
    ):
        got = unsigned_rows(arr)
        assert got.shape == (len(arr),) and got.dtype == (np.int64 if width < 63 else object)
        assert got.tolist() == [bits_to_int(t) for t in row_tuples(arr)]


@pytest.mark.parametrize("width", [0, 1, 8, 62, 63, 64, 83])
@pytest.mark.parametrize("rows", [0, 1, 9])
def test_row_readings_match_the_tuple_readings(width, rows):
    rng = np.random.default_rng(1000 * width + rows)
    arr = rng.random((rows, width)) < 0.5
    if rows:
        arr[0] = True  # the widest values: all ones, and -1 when signed
    # int64 below 63 bits, exact Python ints from 63 up
    dtype = np.int64 if width < 63 else object
    unsigned, signed = unsigned_rows(arr), signed_rows(arr)
    assert unsigned.shape == signed.shape == (rows,)
    assert unsigned.dtype == signed.dtype == dtype
    assert unsigned.tolist() == [bits_to_int(t) for t in row_tuples(arr)]
    assert signed.tolist() == [twos_to_int(t) for t in row_tuples(arr)]
