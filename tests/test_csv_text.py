"""``csv_text.format_block`` writes every value as ``repr`` does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heolsim import csv_text
from heolsim.csv_text import format_block


def _repr_rows(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _as_block(values, columns):
    values = np.asarray(values, dtype=np.float64)
    rows = -(-values.size // columns)
    return np.resize(values, rows * columns).reshape(rows, columns)


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
    st.integers(1, 18),
)
def test_raw_bit_patterns_match_repr(patterns, columns):
    block = _as_block(np.array(patterns, np.uint64).view(np.float64), columns)
    assert format_block(block) == _repr_rows(block)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=200), st.integers(1, 18))
def test_floats_match_repr(values, columns):
    block = _as_block(values, columns)
    assert format_block(block) == _repr_rows(block)


def test_powers_of_two_match_repr():
    powers = [2.0**k for k in range(-1074, 1024)]
    block = _as_block(_neighbours(powers + [-p for p in powers]), 18)
    assert format_block(block) == _repr_rows(block)


def test_every_fast_path_binade_matches_repr():
    # 256 random significands in each binade of the fast path: in some
    # binades no power of two or its neighbours takes the fast path, or
    # their digits do not show a wrong decimal exponent in the table.
    rng = np.random.default_rng(5)
    q = np.arange(csv_text._EXP_LO, csv_text._EXP_HI + 1).repeat(256) - 1075
    values = np.ldexp(rng.integers(2**52, 2**53, q.size).astype(np.float64), q)
    block = _as_block(np.concatenate([values, -values]), 18)
    assert format_block(block) == _repr_rows(block)


@pytest.mark.parametrize("values", [
    pytest.param([1e-4, 1e-5, 1e16, 1e17], id="notation boundaries"),
    pytest.param([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                 id="extremes"),
    pytest.param([0.0, -0.0, np.inf, -np.inf, np.nan], id="specials"),
    # The longest texts, in every column: 17 digits after "-0.000" on the
    # fast path, and the longest repr text.
    pytest.param([0.00012345678901234567, 2.2250738585072014e-308],
                 id="longest texts"),
    pytest.param([0.1, 0.2, 0.3, 1.0, 2.5, 100.0, -7.0, 123456789.0,
                  2.0**53, 2.0**53 + 2, 9999999999999998.0, 1e15 + 0.3],
                 id="integers and decimals"),
])
def test_fixed_cases_match_repr(values):
    block = _as_block(_neighbours(values + [-v for v in values]), 3)
    assert format_block(block) == _repr_rows(block)


def test_short_texts_match_repr():
    # Runs of 4- to 6-byte texts, the shortest the formatter writes.
    rng = np.random.default_rng(5)
    short = [0.0, -0.0, 1.0, 0.5, -2.5, 10.0, 0.25, 7.0, np.nan, 1e300]
    block = rng.choice(short, (300, 18))
    assert format_block(block) == _repr_rows(block)


def test_blocks_longer_than_one_pass_match_repr():
    rng = np.random.default_rng(3)
    rows = 2 * csv_text._PASS_ROWS + 5
    block = rng.standard_normal((rows, 18)) * 10.0 ** rng.integers(-6, 18, (rows, 18))
    block[::7, 3] = 0.0
    block[::11, 4] = np.nan
    assert format_block(block) == _repr_rows(block)


def test_circle_log_takes_the_fast_path(monkeypatch, builtin_run):
    log, _ = builtin_run("otter_circle", duration=12)
    block = log.data
    slow = []
    real = csv_text._repr_texts

    def repr_texts(values):
        slow.append(values.size)
        return real(values)

    monkeypatch.setattr(csv_text, "_repr_texts", repr_texts)
    assert format_block(block) == _repr_rows(block)
    assert sum(slow) <= 0.01 * block.size
