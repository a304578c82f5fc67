"""Ingestion, gridding, scoring, and pixmap IO."""

import io

import numpy as np
import pytest

from safemap.geo import (
    GridError,
    GridSpec,
    IngestError,
    build_grid,
    ingest_accidents,
    read_pgm,
    read_ppm,
    score_cells,
    write_pgm,
    write_ppm,
)

from oracles import cell_of_naive, project_naive

HEADER = "id,date,time,day_of_week,latitude,longitude,vehicles,casualties\n"


def coords(*points):
    """(lats, lons) float64 arrays of (lat, lon) points."""
    lats, lons = np.array(points, dtype=np.float64).reshape(-1, 2).T
    return lats, lons


class TestIngest:
    def test_sample_report_row(self):
        csv = HEADER + "101,12/03/2019,17:45,2,51.5847,0.2793,2,1\n"
        result = ingest_accidents(io.StringIO(csv))
        assert result.skipped == 0
        assert result.ids == ["101"]
        assert (result.latitude.tolist(), result.longitude.tolist()) == ([51.5847], [0.2793])
        assert (result.vehicles, result.casualties) == ([2], [1])
        assert result.dates[0].isoformat() == "2019-03-12"
        assert (result.times[0].hour, result.times[0].minute) == (17, 45)
        assert result.day_of_week == [2]

    def test_header_only_is_error(self):
        with pytest.raises(IngestError, match="no records"):
            ingest_accidents(io.StringIO(HEADER))

    def test_missing_column_is_error(self):
        with pytest.raises(IngestError, match="latitude"):
            ingest_accidents(io.StringIO("id,date\n1,2\n"))

    def test_empty_file_is_error(self):
        with pytest.raises(IngestError, match="header"):
            ingest_accidents(io.StringIO(""))

    def test_malformed_latitude_skipped_and_counted(self):
        csv = (HEADER
               + "1,12/03/2019,17:45,2,abc,0.2793,2,1\n"
               + "2,12/03/2019,18:00,2,51.5,0.28,1,0\n")
        with pytest.warns(UserWarning, match="skipped 1"):
            result = ingest_accidents(io.StringIO(csv))
        assert result.skipped == 1
        assert result.ids == ["2"]

    def test_out_of_range_latitude_skipped(self):
        csv = HEADER + "1,12/03/2019,17:45,2,95.0,0.0,1,0\n" \
                     + "2,12/03/2019,17:45,2,51.0,0.0,1,0\n"
        with pytest.warns(UserWarning):
            result = ingest_accidents(io.StringIO(csv))
        assert result.skipped == 1

    def test_rows_kept_in_file_order(self):
        csv = HEADER + "".join(f"{i},12/03/2019,17:45,2,51.{i},0.1,1,0\n" for i in range(5))
        result = ingest_accidents(io.StringIO(csv))
        assert result.ids == ["0", "1", "2", "3", "4"]
        assert result.latitude.tolist() == [51.0, 51.1, 51.2, 51.3, 51.4]


class TestBuildGrid:
    def test_single_record_gives_1x1(self):
        spec, cols, rows = build_grid(*coords((51.5, 0.1)), cell_size_m=30)
        assert (spec.columns, spec.rows) == (1, 1)
        assert (cols.tolist(), rows.tolist()) == ([0], [0])
        assert cols.dtype == rows.dtype == np.int64

    def test_two_records_45m_apart_split_at_30m(self):
        # 0.000404 deg of longitude at the equator is about 44.9 m
        spec, cols, rows = build_grid(*coords((0.0, 0.0), (0.0, 0.000404)), cell_size_m=30)
        assert (cols.tolist(), rows.tolist()) == ([0, 1], [0, 0])
        assert (spec.columns, spec.rows) == (2, 1)
        x, _ = project_naive(spec, 0.0, 0.000404)
        assert x == pytest.approx(44.9, abs=0.1)

    def test_boundary_point_goes_to_upper_cell(self):
        spec = GridSpec(origin_lat=0.0, origin_lon=0.0, cell_size_m=1.0,
                        columns=3, rows=1, ref_lat=0.0)
        x, _ = project_naive(spec, 0.0, 0.001)
        # rebuild with the cell size exactly equal to that projected distance:
        # the point sits on the boundary and floor sends it up
        exact = GridSpec(origin_lat=0.0, origin_lon=0.0, cell_size_m=x,
                         columns=2, rows=1, ref_lat=0.0)
        assert cell_of_naive(exact, 0.0, 0.001) == (1, 0)

    def test_grid_covers_all_records(self):
        rng = np.random.default_rng(0)
        lats, lons = 51.5 + rng.uniform(0, 0.01, 200), rng.uniform(0, 0.01, 200)
        spec, cols, rows = build_grid(lats, lons, cell_size_m=30)
        assert ((0 <= cols) & (cols < spec.columns)).all()
        assert ((0 <= rows) & (rows < spec.rows)).all()

    def test_cell_center_round_trips_into_same_cell(self):
        rng = np.random.default_rng(1)
        lats, lons = 40.0 + rng.uniform(0, 0.005, 50), -73.0 + rng.uniform(0, 0.005, 50)
        spec, cols, rows = build_grid(lats, lons, cell_size_m=25)
        for col, row in set(zip(cols.tolist(), rows.tolist())):
            lat, lon = spec.cell_center(col, row)
            assert cell_of_naive(spec, lat, lon) == (col, row)

    def test_zero_cell_size_rejected(self):
        with pytest.raises(GridError, match="positive"):
            build_grid(*coords((0.0, 0.0)), cell_size_m=0)

    def test_no_records_rejected(self):
        with pytest.raises(GridError, match="at least one record"):
            build_grid(np.array([]), np.array([]))


class TestScoreCells:
    def test_five_records_one_cell(self):
        spec, cols, rows = build_grid(*coords(*[(51.5, 0.1)] * 5), cell_size_m=30)
        counts = score_cells(spec, cols, rows)
        assert counts.tolist() == [[5]]

    def test_conservation_on_random_fixtures(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 300))
            lats, lons = 10 + rng.uniform(0, 0.02, n), 20 + rng.uniform(0, 0.02, n)
            spec, cols, rows = build_grid(lats, lons, cell_size_m=40)
            counts = score_cells(spec, cols, rows)
            assert counts.shape == (spec.rows, spec.columns)
            assert int(counts.sum()) == n

    def test_counts_match_bruteforce_recount(self):
        rng = np.random.default_rng(7)
        lats, lons = -5 + rng.uniform(0, 0.01, 120), 30 + rng.uniform(0, 0.01, 120)
        spec, cols, rows = build_grid(lats, lons, cell_size_m=35)
        counts = score_cells(spec, cols, rows)
        cells = list(zip(cols.tolist(), rows.tolist()))
        for row in range(spec.rows):
            for col in range(spec.columns):
                assert counts[row, col] == cells.count((col, row))


class TestPixmaps:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_pgm_roundtrip(self, tmp_path):
        img = np.arange(77, dtype=np.uint8).reshape(7, 11)
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        np.testing.assert_array_equal(read_pgm(p), img)

    def test_ppm_writes_are_byte_identical(self, tmp_path):
        img = np.full((4, 4, 3), 9, dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        write_ppm(tmp_path / "b.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_reader_accepts_comments(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert read_ppm(p).shape == (1, 2, 3)
