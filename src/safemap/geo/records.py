"""Accident-report ingestion from CSV.

``ingest_accidents`` reads rows with ``csv.reader`` and looks the eight
mandatory columns up by index, resolved once from the header.  It keeps
the rules of reading through ``csv.DictReader``: of duplicate header names
the last one wins, extra fields are ignored, a blank row is skipped
without being counted and a row too short to reach every mandatory column
is skipped and counted.  Dates and times repeat heavily in real exports,
so each distinct string is parsed once per call.  ``record_line`` formats
one record as its ``records.jsonl`` line.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import warnings
from dataclasses import dataclass

REQUIRED_COLUMNS = ("id", "date", "time", "day_of_week",
                    "latitude", "longitude", "vehicles", "casualties")

# What a malformed field raises while a row is parsed; an oversized year
# or hour overflows the C int of dt.date / dt.time.
_ROW_ERRORS = (ValueError, OverflowError)


class IngestError(Exception):
    """Unusable input file: missing columns, unreadable CSV or no valid records."""


@dataclass(frozen=True)
class AccidentRecord:
    """One accident report, restricted to attributes common across sources."""

    id: str
    date: dt.date
    time: dt.time
    day_of_week: int
    latitude: float
    longitude: float
    vehicles: int
    casualties: int

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")
        if not 1 <= self.day_of_week <= 7:
            raise ValueError(f"day_of_week {self.day_of_week} outside 1..7")
        if self.vehicles < 0 or self.casualties < 0:
            raise ValueError("vehicle and casualty counts must be non-negative")


@dataclass
class IngestResult:
    records: list[AccidentRecord]
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
    accepts).  Dates are dd/mm/yyyy, times HH:MM.  Rows that fail to parse
    or violate record invariants are dropped with one summary warning; a
    missing mandatory column, an empty file, a CSV the reader rejects (such
    as a field over ``csv.field_size_limit``) or no valid record at all is
    an ``IngestError``.
    """
    if isinstance(csv_stream, (str, bytes)):
        csv_stream = io.StringIO(csv_stream.decode("utf-8")
                                 if isinstance(csv_stream, bytes) else csv_stream)
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
        dates: dict = {}
        times: dict = {}
        records: list[AccidentRecord] = []
        skipped = 0
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                skipped += 1
                continue
            date_text, time_text = row[i_date], row[i_time]
            try:
                date = dates[date_text]
            except KeyError:
                date = dates[date_text] = _parse_date(date_text)
            try:
                time = times[time_text]
            except KeyError:
                time = times[time_text] = _parse_time(time_text)
            if date is None or time is None:
                skipped += 1
                continue
            try:
                records.append(AccidentRecord(
                    id=row[i_id].strip(), date=date, time=time,
                    day_of_week=int(row[i_dow]),
                    latitude=float(row[i_lat]), longitude=float(row[i_lon]),
                    vehicles=int(row[i_veh]), casualties=int(row[i_cas])))
            except _ROW_ERRORS:
                skipped += 1
    except csv.Error as e:
        source = getattr(csv_stream, "name", "accident CSV")
        raise IngestError(f"{source}: line {reader.line_num}: {e}") from e
    if skipped:
        warnings.warn(f"skipped {skipped} malformed accident row(s)", stacklevel=2)
    if not records:
        raise IngestError("no records")
    return IngestResult(records=records, skipped=skipped)


def record_line(r: AccidentRecord) -> str:
    """One ``records.jsonl`` line: the bytes of ``json.dumps`` with sorted keys
    and compact separators, plus a newline.  The floats are finite (the record
    invariants), so their JSON form is ``repr``.
    """
    return (f'{{"casualties":{r.casualties},"date":"{r.date.isoformat()}",'
            f'"day_of_week":{r.day_of_week},"id":{json.dumps(r.id)},'
            f'"latitude":{r.latitude!r},"longitude":{r.longitude!r},'
            f'"time":"{r.time.hour:02d}:{r.time.minute:02d}","vehicles":{r.vehicles}}}\n')
