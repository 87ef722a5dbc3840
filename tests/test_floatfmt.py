"""`_floatfmt.reprs` against `repr`, the bytes the run log's CSV files froze."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavcross._floatfmt import reprs
from conftest import REPO_ROOT


def _expected(values):
    return [b"" if v != v else repr(v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def _check(values):
    values = np.asarray(values, dtype=np.float64)
    got = reprs(values)
    want = _expected(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert wrong == [] and len(got) == len(want)


@settings(max_examples=500)
@given(st.lists(st.floats(), max_size=50))
def test_matches_repr_on_floats(values):
    _check(values)


@settings(max_examples=500)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
def test_matches_repr_on_bit_patterns(patterns):
    _check(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_matches_repr_on_a_sweep_of_bit_patterns():
    # 1,048,576 patterns: uniform bits, then random significands and signs in
    # the binades from just below 1e-3 to just above 1e15.
    rng = np.random.default_rng(20261020)
    for _ in range(16):
        bits = rng.integers(0, 2**64, 2**16, dtype=np.uint64)
        _check(bits.view(np.float64))
        exponent = rng.integers(1012, 1074, 2**16, dtype=np.uint64)
        bits = (bits & np.uint64(2**63 + 2**52 - 1)) | (exponent << np.uint64(52))
        _check(bits.view(np.float64))


def test_matches_repr_on_edges():
    edges = [1e-3, 1e15, 5e-324, -5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 0.1, 0.3, 99.99]
    edges += [np.nextafter(v, d) for v in (1e-3, 1e15) for d in (0.0, np.inf)]
    # Exact halfway ties between two shortest candidates, which round to even.
    edges += [2.0**49 + 0.25, 2.0**49 + 0.75, 10 + 2.0**-16, 1000 + 2.0**-14]
    # Integers print with ".0".
    edges += [3.0, 1234.0, 1e14, 123456789012345.0, 2.0**53]
    # Every binade of the domain and its neighbours: its first float (a power
    # of two, whose interval is narrower below), the next, and its last.
    powers = 2.0 ** np.arange(-11, 52)
    edges += [*powers, *np.nextafter(powers, np.inf), *np.nextafter(powers, 0.0)]
    powers_of_ten = 10.0 ** np.arange(-4, 17)
    edges += [*powers_of_ten, *np.nextafter(powers_of_ten, np.inf), *np.nextafter(powers_of_ten, 0.0)]
    values = np.array(edges)
    _check(np.concatenate([values, -values]))
    assert reprs(np.array([np.nan, -0.0, 1e-3])) == [b"", b"-0.0", b"0.001"]


def test_batches_and_shapes():
    values = np.linspace(-3.0, 7.0, 41 * 122).reshape(41, 122)
    _check(values.ravel())
    assert reprs(values) == _expected(values.ravel())
    assert reprs(np.array([])) == []


def test_importing_the_cli_builds_no_table():
    code = (
        "import cavcross.cli, cavcross._floatfmt as f; "
        "assert f._tables.cache_info().currsize == 0; "
        "f.reprs([1.5]); assert f._tables.cache_info().currsize == 1"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, cwd=REPO_ROOT, env=env)
