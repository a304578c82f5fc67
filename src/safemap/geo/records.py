"""Accident-report ingestion from CSV into columns.

``ingest_accidents`` reads rows with ``csv.reader`` and looks the eight
mandatory columns up by index, resolved once from the header.  It keeps
the rules of reading through ``csv.DictReader``: of duplicate header names
the last one wins, extra fields are ignored, a blank row is skipped
without being counted and a row too short to reach every mandatory column
is skipped and counted.  Dates and times repeat heavily in real exports,
so each distinct string is parsed once per call.  The result holds one
column per attribute in file order: latitude and longitude as float64
arrays for gridding, the rest as lists.  The counts stay Python ints, as
a well-formed count may exceed int64.  ``records_jsonl`` formats the
columns as ``records.jsonl`` lines.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

REQUIRED_COLUMNS = ("id", "date", "time", "day_of_week",
                    "latitude", "longitude", "vehicles", "casualties")

# What a malformed field raises while a row is parsed; an oversized year
# or hour overflows the C int of dt.date / dt.time.
_ROW_ERRORS = (ValueError, OverflowError)


class IngestError(Exception):
    """Unusable input file: missing columns, unreadable CSV or no valid records."""


@dataclass
class IngestResult:
    """Kept accident reports as columns, plus the count of skipped rows."""

    ids: list[str]
    dates: list[dt.date]
    times: list[dt.time]
    day_of_week: list[int]
    latitude: np.ndarray
    longitude: np.ndarray
    vehicles: list[int]
    casualties: list[int]
    skipped: int


def _parse_date(text: str):
    """dd/mm/yyyy, or None when malformed."""
    try:
        day, month, year = text.strip().split("/")
        return dt.date(int(year), int(month), int(day))
    except _ROW_ERRORS:
        return None


def _parse_time(text: str):
    """HH:MM with anything after a second colon ignored, or None when malformed."""
    try:
        hh, mm = text.strip().split(":")[:2]
        return dt.time(int(hh), int(mm))
    except _ROW_ERRORS:
        return None


def ingest_accidents(csv_stream) -> IngestResult:
    """Parse accident reports; malformed rows are skipped and counted.

    ``csv_stream`` is a text file object (or anything ``csv.reader``
    accepts).  Dates are dd/mm/yyyy, times HH:MM.  A row is kept when every
    field parses and it has latitude in [-90, 90], longitude in
    [-180, 180], day_of_week in 1..7 and non-negative vehicle and casualty
    counts.  Other rows are dropped with one summary warning; a missing
    mandatory column, an empty file, a CSV the reader rejects (such as a
    field over ``csv.field_size_limit``) or no valid record at all is an
    ``IngestError``.
    """
    reader = csv.reader(csv_stream)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty file: no header row")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise IngestError(f"missing mandatory columns: {missing}")
        last = {name: i for i, name in enumerate(header)}  # last duplicate wins
        i_id, i_date, i_time, i_dow, i_lat, i_lon, i_veh, i_cas = (
            last[c] for c in REQUIRED_COLUMNS)
        width = max(last[c] for c in REQUIRED_COLUMNS) + 1
        parse_date = functools.lru_cache(maxsize=None)(_parse_date)
        parse_time = functools.lru_cache(maxsize=None)(_parse_time)
        ids, dates, times, dows, lats, lons, vehicles, casualties = ([] for _ in range(8))
        skipped = 0
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                skipped += 1
                continue
            date, time = parse_date(row[i_date]), parse_time(row[i_time])
            if date is None or time is None:
                skipped += 1
                continue
            try:
                dow, lat, lon = int(row[i_dow]), float(row[i_lat]), float(row[i_lon])
                veh, cas = int(row[i_veh]), int(row[i_cas])
            except _ROW_ERRORS:
                skipped += 1
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0 and 1 <= dow <= 7
                    and veh >= 0 and cas >= 0):
                skipped += 1
                continue
            ids.append(row[i_id].strip())
            dates.append(date)
            times.append(time)
            dows.append(dow)
            lats.append(lat)
            lons.append(lon)
            vehicles.append(veh)
            casualties.append(cas)
    except csv.Error as e:
        source = getattr(csv_stream, "name", "accident CSV")
        raise IngestError(f"{source}: line {reader.line_num}: {e}") from e
    if skipped:
        warnings.warn(f"skipped {skipped} malformed accident row(s)", stacklevel=2)
    if not ids:
        raise IngestError("no records")
    return IngestResult(ids=ids, dates=dates, times=times, day_of_week=dows,
                        latitude=np.array(lats, dtype=np.float64),
                        longitude=np.array(lons, dtype=np.float64),
                        vehicles=vehicles, casualties=casualties, skipped=skipped)


def records_jsonl(result: IngestResult):
    """The ``records.jsonl`` lines, one per record: the bytes of ``json.dumps``
    with sorted keys and compact separators, plus a newline.  The floats are
    finite (ingest skips the rest), so their JSON form is ``repr``; ids are
    quoted by ``encode_basestring_ascii``, as ``json.dumps`` quotes a ``str``.
    Each distinct date and time is formatted once per call.
    """
    date_text = {d: d.isoformat() for d in set(result.dates)}
    time_text = {t: f"{t.hour:02d}:{t.minute:02d}" for t in set(result.times)}
    for rid, date, time, dow, lat, lon, veh, cas in zip(
            map(encode_basestring_ascii, result.ids),
            map(date_text.__getitem__, result.dates),
            map(time_text.__getitem__, result.times), result.day_of_week,
            result.latitude.tolist(), result.longitude.tolist(),
            result.vehicles, result.casualties):
        yield (f'{{"casualties":{cas},"date":"{date}","day_of_week":{dow},"id":{rid},'
               f'"latitude":{lat!r},"longitude":{lon!r},"time":"{time}","vehicles":{veh}}}\n')
