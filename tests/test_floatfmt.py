"""The vectorized repr of float64 against repr itself, the oracle."""

import numpy as np
import pytest

from cauchylab import floatfmt


def _mismatches(values):
    """The values whose kernel bytes differ from repr's, with both."""
    values = np.asarray(values, dtype=np.float64)
    got = floatfmt.repr_bytes(values).view(f"S{floatfmt.WIDTH}").ravel()
    want = np.array(list(map(repr, values.tolist())), dtype=f"S{floatfmt.WIDTH}")
    bad = np.flatnonzero(got != want)
    return [(values[i], got[i], want[i]) for i in bad[:10]], bad.size


def _powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def _random_bits():
    bits = np.random.default_rng(30).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    # NaN payloads of both signs, both infinities and both zeros
    bits[:4] = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF00000DEADBEEF]
    bits[4:8] = np.array([np.inf, -np.inf, 0.0, -0.0]).view(np.uint64)
    return bits.view(np.float64)


CASES = {
    "random_bits": _random_bits,
    "powers_of_two": _powers_of_two,
    # the guard cases: Java's two-digit rule prints 4.9E-324
    "smallest_subnormals": lambda: np.arange(100_000, dtype=np.uint64).view(np.float64),
    "integers": lambda: np.concatenate([np.arange(20_001.0), 2.0**53 + np.arange(-1000.0, 1001.0)]),
    "powers_of_ten": lambda: [float(f"1e{k}") for k in range(-300, 301)],
    # both sides of repr's switches between positional and exponent form
    "switches": lambda: [1e-05, 0.0001, 9999999999999998.0, 1e16, -1e-05, -0.0001, -1e16],
}


@pytest.mark.parametrize("case", CASES)
def test_repr_bytes_is_repr(case):
    bad, count = _mismatches(CASES[case]())
    assert count == 0, bad


def test_repr_bytes_writes_into_a_column_slice():
    # the trajectory writer formats into the first columns of its table
    values = np.random.default_rng(3).normal(size=floatfmt.SLAB + 5)
    table = np.full((values.size, floatfmt.WIDTH + 1), ord(","), dtype=np.uint8)
    floatfmt.repr_bytes(values, table[:, :-1])
    assert (table[:, -1] == ord(",")).all()
    rows = [row.tobytes().rstrip(b"\0,").decode() for row in table]
    assert rows == [repr(v) for v in values.tolist()]
