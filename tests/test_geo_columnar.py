"""The columnar accident ingest and gridding against their per-record oracles.

Generated accident CSVs hold blank, short and long rows, duplicate header
names, quoted commas, padded whitespace, impossible dates, ``nan``/``inf``/
``1_000`` numbers and ids with quotes, backslashes, control characters and
non-ASCII text.  On each, ``ingest_accidents`` must keep, in its columns,
the values of the rows the ``csv.DictReader`` oracle keeps and skip the
others, ``records_jsonl`` must give the bytes of ``json.dumps``, and
``build_grid`` / ``score_cells`` must give the oracle's spec, cells and
counts.  Whatever the input, only ``IngestError`` may
escape ``ingest_accidents``.

``derandomize`` fixes the examples only for a given set of imported
modules: Hypothesis draws about 5% of its primitive choices from the
literals of every imported module outside site-packages, so a run of this
file alone and a run of the whole suite generate different examples.
Cases that must run in every collection are pinned with ``@example``.
"""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from safemap.geo.grid import GridError, build_grid, score_cells
from safemap.geo.records import REQUIRED_COLUMNS, IngestError, ingest_accidents, records_jsonl

from oracles import (
    build_grid_naive,
    ingest_accidents_naive,
    records_jsonl_naive,
    score_cells_naive,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])

# a small study area, so most generated CSVs grid into a few hundred cells
LAT0, LON0 = 51.5, -0.12

# per column: (well-formed values, odd values); a row draws up to two odd fields
IDS = (st.from_regex(r"A[0-9]{1,5}", fullmatch=True),
       st.one_of(st.sampled_from(['a,b', 'say "hi"', "back\\slash", "tab\there",
                                  "nl\nin id", "bell\x07", "\x00nul", "café", "東京",
                                  "\U0001f697", "  padded  ", "", " sep"]),
                 st.text(max_size=8)))
DATES = (st.builds(lambda d, m, y: f"{d:02d}/{m:02d}/{y}",
                   st.integers(1, 28), st.integers(1, 12), st.integers(2015, 2020)),
         st.sampled_from(["31/02/2019", " 12/03/2019 ", "1/1/1", "00/01/2019", "12/13/2019",
                          "12/03/2019/1", "12-03-2019", "", "1_2/03/2019", "+1/03/2019",
                          "١٢/03/2019", "01/01/99999999999999999999",
                          "99999999999999999999/01/2019", "29/02/2020", "29/02/2019"]))
TIMES = (st.builds(lambda h, m: f"{h:02d}:{m:02d}", st.integers(0, 23), st.integers(0, 59)),
         st.sampled_from(["7:5", " 08:30 ", "24:00", "23:60", "17:45:30", "17", "",
                          "1_0:00", "99999999999999999999:00", "-1:00", "12:30:xx", ":"]))
INTS = (st.integers(1, 3).map(str),
        st.sampled_from(["-1", "0", "9", " 3 ", "1_000", "+4", "x", "", "2.0", "١", "1e3",
                         "9" * 30]))
LATS = (st.floats(LAT0 - 0.01, LAT0 + 0.01).map(repr),
        st.sampled_from(["nan", "inf", "-inf", " 51.5 ", "1_000", "abc", "", "95.0",
                         "-90", "90.0000001", "51.5e0", "-0.0"]))
LONS = (st.floats(LON0 - 0.01, LON0 + 0.01).map(repr),
        st.sampled_from(["nan", "inf", "-180", "180.5", " -0.12 ", "1_0", "", "0x1p-3"]))
VALUES = {"id": IDS, "date": DATES, "time": TIMES, "day_of_week": INTS,
          "latitude": LATS, "longitude": LONS, "vehicles": INTS, "casualties": INTS}
EXTRA = (st.text(max_size=4), st.text(max_size=4))


@st.composite
def accident_csvs(draw):
    """CSV text: a shuffled header with extras, duplicates and rarely a
    missing column, then rows of generated fields, some blank, short or long.
    Half the full rows are well formed; the others hold up to two odd fields."""
    names = list(REQUIRED_COLUMNS)
    if draw(st.integers(0, 19)) == 0:
        names.remove(draw(st.sampled_from(names)))
    names += draw(st.lists(st.sampled_from(["notes", "severity", " id", "id", "latitude",
                                            "date"]), max_size=3))
    header = draw(st.permutations(names))
    lines = [list(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["full"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append([])
            continue
        odd = set(draw(st.lists(st.integers(0, len(header) - 1), max_size=2))
                  if kind != "full" or draw(st.booleans()) else [])
        row = [draw(VALUES.get(name, EXTRA)[i in odd]) for i, name in enumerate(header)]
        if kind == "short":
            row = row[:draw(st.integers(1, max(1, len(row) - 1)))]
        elif kind == "long":
            row += draw(st.lists(st.text(max_size=3), min_size=1, max_size=3))
        lines.append(row)
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return buf.getvalue()


def _ingest(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ingest_accidents(io.StringIO(text, newline=""))


def _outcome(fn, *args, error):
    """(result, None) or (None, message) of the declared error."""
    try:
        return fn(*args), None
    except error as e:
        return None, str(e)


# IngestResult column -> oracle record field
COLUMNS = {"ids": "id", "dates": "date", "times": "time", "day_of_week": "day_of_week",
           "latitude": "latitude", "longitude": "longitude", "vehicles": "vehicles",
           "casualties": "casualties"}


def _cells(cols, rows):
    """build_grid's int64 cell arrays as the oracle's (col, row) tuples."""
    assert cols.dtype == rows.dtype == np.int64
    return list(zip(cols.tolist(), rows.tolist()))


@FUZZ
@given(accident_csvs(), st.sampled_from([5.0, 30, 250.0]))
def test_ingest_and_grid_match_oracles(text, cell_size_m):
    got, got_err = _outcome(_ingest, text, error=IngestError)
    want, want_err = _outcome(ingest_accidents_naive, text, error=IngestError)
    assert got_err == want_err
    if want is None:
        return
    records, skipped = want
    assert got.skipped == skipped
    assert got.latitude.dtype == got.longitude.dtype == np.float64
    for column, field in COLUMNS.items():
        assert list(getattr(got, column)) == [getattr(r, field) for r in records], column
    assert "".join(records_jsonl(got)) == records_jsonl_naive(records)
    lats, lons = [r.latitude for r in records], [r.longitude for r in records]
    grid, grid_err = _outcome(build_grid, got.latitude, got.longitude, cell_size_m,
                              error=GridError)
    want_grid, want_grid_err = _outcome(build_grid_naive, lats, lons, cell_size_m,
                                        error=GridError)
    assert grid_err == want_grid_err
    if want_grid is None:
        return
    spec, cols, rows = grid
    assert (spec, _cells(cols, rows)) == want_grid
    counts = score_cells(spec, cols, rows)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, score_cells_naive(spec, want_grid[1]))


@FUZZ
@given(st.text(max_size=200))
def test_only_ingest_error_escapes(text):
    try:
        _ingest(text)
    except IngestError:
        pass


def test_field_over_csv_limit_is_ingest_error():
    header = ",".join(REQUIRED_COLUMNS)
    text = f"{header}\n1,12/03/2019,17:45,2,51.5,0.1,2,1\n{'x' * (csv.field_size_limit() + 1)}\n"
    with pytest.raises(IngestError, match="line 3: field larger than field limit"):
        ingest_accidents(io.StringIO(text, newline=""))


# corners and repeated points of a small box, so cells meet the boundary
COORDS = st.tuples(
    st.one_of(st.floats(-0.002, 0.002), st.sampled_from([-0.002, 0.0, 0.002])),
    st.one_of(st.floats(-0.003, 0.003), st.sampled_from([-0.003, 0.0, 0.003])))


@FUZZ
@given(st.lists(COORDS, min_size=1, max_size=60),
       st.sampled_from([(0.0, 0.0), (LAT0, LON0), (-33.9, 151.2), (89.999, 179.99)]),
       st.sampled_from([1.0, 7.5, 30, 44.9]))
def test_grid_cells_bit_identical_to_scalar_projection(offsets, centre, cell_size_m):
    lat0, lon0 = centre
    lats = np.array([min(lat0 + dy, 90.0) for dy, _ in offsets])
    lons = np.array([min(lon0 + dx, 180.0) for _, dx in offsets])
    spec, cols, rows = build_grid(lats, lons, cell_size_m)
    want_spec, want_cells = build_grid_naive(lats.tolist(), lons.tolist(), cell_size_m)
    assert (spec, _cells(cols, rows)) == (want_spec, want_cells)
    np.testing.assert_array_equal(score_cells(spec, cols, rows),
                                  score_cells_naive(spec, want_cells))


@FUZZ
@given(st.lists(COORDS, min_size=2, max_size=20), st.integers(0, 19), st.integers(1, 4))
# a 1e-9 degree longitude offset: a 7e-5 m cell, alone and past the cell guard
@example([(0.0, 0.0), (0.0, 1e-9)], 1, 1)
@example([(0.0, 0.0), (0.0, 1e-9), (0.002, 0.003)], 1, 1)
def test_cells_on_a_boundary_floor_like_the_scalar_projection(offsets, pick, k):
    """The cell size is a record's projected distance from the origin over k,
    so that record (and any at the same longitude) sits on a cell boundary."""
    lats = [LAT0 + dy for dy, _ in offsets]
    lons = [LON0 + dx for _, dx in offsets]
    spec, _ = build_grid_naive(lats, lons, 30)
    x = (lons[pick % len(lons)] - spec.origin_lon) * spec._meters_per_deg_lon
    if not x > 0:
        return
    # a tiny x makes a grid past the cell guard: both must raise the same error
    got, got_err = _outcome(build_grid, np.array(lats), np.array(lons), x / k, error=GridError)
    want, want_err = _outcome(build_grid_naive, lats, lons, x / k, error=GridError)
    assert got_err == want_err
    if want is not None:
        spec, cols, rows = got
        assert (spec, _cells(cols, rows)) == want


@FUZZ
@given(st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 5)), max_size=30))
def test_score_cells_names_first_cell_outside(cells):
    spec, _, _ = build_grid(np.array([0.0, 0.0011]), np.array([0.0, 0.0013]), 30)
    assert (spec.columns, spec.rows) == (5, 5)
    cols, rows = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    got, got_err = _outcome(score_cells, spec, cols, rows, error=GridError)
    want, want_err = _outcome(score_cells_naive, spec, cells, error=GridError)
    assert got_err == want_err
    if want is not None:
        np.testing.assert_array_equal(got, want)
