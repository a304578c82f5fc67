"""The P6/P5 reader, fuzzed on headers and payload lengths.

Generated files mix well-formed headers with signed, underscored, non-ASCII
and huge tokens, zero sizes, comments and short or long pixel data.  A file
either loads as an ``(h, w[, 3])`` uint8 array whose size its header states
or raises ``PpmError``; nothing else may escape.  ``derandomize`` fixes the
examples for a given set of imported modules; Hypothesis also draws
literals from every imported local module, so a one-file run and a
full-suite run can see different ones.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safemap.geo.ppm import PpmError, read_pgm, read_ppm

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["255", "-1", "-2", "+3", "1_0", "0", "00", "٣", "3.0", "0x3", "",
                     "99999999999", "9" * 5000, "256", "65535"]),
    st.text(alphabet="0123456789-+_ex", max_size=6))
SEPS = st.sampled_from([" ", "\n", "\t", "  ", "\r\n", " # note\n", "#\n"])


@st.composite
def pixmaps(draw):
    magic = draw(st.sampled_from([b"P6", b"P5", b"P3", b"P", b""]))
    w, h, maxval = draw(TOKENS), draw(TOKENS), draw(st.one_of(st.just("255"), TOKENS))
    seps = [draw(SEPS) for _ in range(4)]
    header = (seps[0] + w + seps[1] + h + seps[2] + maxval + seps[3][-1]).encode()
    return magic + header + draw(st.binary(max_size=80))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("pnm")


@FUZZ
@given(pixmaps(), st.sampled_from([(read_ppm, 3), (read_pgm, 1)]))
def test_only_ppm_error_escapes(scratch, blob, reader):
    read, channels = reader
    path = scratch / "x.pnm"
    path.write_bytes(blob)
    try:
        arr = read(path)
    except PpmError:
        return
    assert arr.dtype == np.uint8 and arr.size >= 1
    h, w = arr.shape[:2]
    assert arr.shape == ((h, w, 3) if channels == 3 else (h, w))


@pytest.mark.parametrize("size", [b"-1 -1", b"-2 3", b"+3 1", b"1_0 1", b"0 5", b"5 0",
                                  b"99999999999 99999999999", b"100000 100000"])
def test_bad_sizes_are_ppm_errors(tmp_path, size):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(20))
    with pytest.raises(PpmError):
        read_ppm(path)


def test_exact_payload_loads(tmp_path):
    path = tmp_path / "ok.pgm"
    path.write_bytes(b"P5 3 2 255\n" + bytes(range(6)))
    np.testing.assert_array_equal(read_pgm(path), [[0, 1, 2], [3, 4, 5]])
