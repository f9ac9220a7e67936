"""Canonical records for the labeled news corpus and their file formats.

Everything here is pure. Each input table and each read-back stage artifact
has one schema, a tuple of typed fields, and one reader: `_parse` reads a
character stream into a Table of dict-coded numpy columns (the input tables
here, the artifact tables next to the records they carry), and one writer,
`_write`, spells a table back. Aggregation folds the article columns into an
outlet x narrative x event count tensor with one bincount, and nothing
mutates its inputs.
"""

from __future__ import annotations

import array
import csv
import datetime
import itertools
import json
import logging
import math
import operator
import re
from collections import abc
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

log = logging.getLogger(__name__)


class Platform(str, Enum):
    FACEBOOK = "facebook"
    INSTAGRAM = "instagram"
    TWITTER = "twitter"
    YOUTUBE = "youtube"


class Narrative(str, Enum):
    ANTI = "anti"
    NEUTRAL = "neutral"
    PRO = "pro"


class EventType(str, Enum):
    ADVERSE = "adverse"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


class Reliability(str, Enum):
    QUESTIONABLE = "questionable"
    RELIABLE = "reliable"


class OutletKind(str, Enum):
    NEWSPAPER = "newspaper"
    ONLINE = "online"
    TV = "tv"
    RADIO = "radio"


NARRATIVE_ORDER = (Narrative.ANTI, Narrative.NEUTRAL, Narrative.PRO)
EVENT_ORDER = (EventType.ADVERSE, EventType.NEUTRAL, EventType.POSITIVE)

_EVENT_INDEX = {e: i for i, e in enumerate(EVENT_ORDER)}


def event_index(event: EventType) -> int:
    return _EVENT_INDEX[event]


class InputError(ValueError):
    """Bad or missing user-supplied input (the CLI exits 2 on it), as opposed
    to a plain ValueError, which is a fault of the program."""


class ParseError(InputError):
    """Bad input row; message carries the 1-based line number, `reason` is
    the message without it."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.reason = message
        self.line = line


@dataclass(frozen=True)
class ArticleRecord:
    """One labeled content item published by an outlet."""

    outlet_id: str
    platform: Platform
    date: datetime.date
    narrative: Narrative
    event: EventType
    interactions: int

    def __post_init__(self):
        if self.interactions < 0:
            raise ValueError("interactions must be >= 0")


@dataclass(frozen=True)
class OutletProfile:
    outlet_id: str
    name: str
    reliability: Reliability
    kind: OutletKind | None = None


@dataclass(frozen=True)
class FollowerRecord:
    """Follower count of one outlet account over one observation period."""

    outlet_id: str
    platform: Platform
    period_start: datetime.date
    period_end: datetime.date
    followers: int

    def __post_init__(self):
        if self.period_start > self.period_end:
            raise ValueError("period_start must be <= period_end")
        if self.followers < 0:
            raise ValueError("followers must be >= 0")


@dataclass(frozen=True)
class RetweetRecord:
    """How many times one user retweeted one outlet."""

    user_id: str
    outlet_id: str
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class CountTensor:
    """Articles per outlet x narrative x event, outlets in registry order.

    counts[i, j, k] is the number of articles by outlet i with narrative
    NARRATIVE_ORDER[j] about events of type EVENT_ORDER[k].
    """

    outlets: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (len(self.outlets), 3, 3):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.outlets)} outlets x 3 narratives x 3 events"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if (counts < 0).any():
            raise ValueError("counts must be >= 0")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def event_slice(self, event: EventType) -> np.ndarray:
        """N x 3 count slice for one event type (rows: outlets, cols: narratives)."""
        return self.counts[:, :, event_index(event)]


INT64_MAX = int(np.iinfo(np.int64).max)


def iso_date(text: str) -> datetime.date:
    """The date spelled exactly YYYY-MM-DD, else ValueError (`date.fromisoformat`
    alone also reads `20210301` and `2021-W05-3` from Python 3.11 on)."""
    if not (isinstance(text, str) and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text)):
        raise ValueError(f"expected a YYYY-MM-DD date, got '{text}'")
    return datetime.date.fromisoformat(text)


def exact_sums(values: np.ndarray, groups: np.ndarray, n: int) -> list[int]:
    """Exact sums of nonnegative int64 `values` per group (`groups[i]` in [0, n)),
    as Python ints: float64 bincounts of 16-bit digits are exact below 2**37 rows."""
    totals = np.zeros(n, dtype=object)
    for shift in (48, 32, 16, 0):
        digits = np.bincount(groups, weights=(values >> shift) & 0xFFFF, minlength=n)
        totals = (totals << 16) + digits.astype(np.int64).astype(object)
    return totals.tolist()


def _iter_values(stream: TextIO, format: str, fields: Sequence[str], optional: Sequence[str] = ()):
    """Yield (line_number, values in `fields` order) for CSV-with-header or JSONL input.

    CSV values are the row's strings; a JSONL object may omit only the
    `optional` fields, which then read as None.
    """
    if format == "csv":
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if header is None:
                return
            if header != list(fields):
                raise ParseError(
                    f"bad header {header!r}, expected {','.join(fields)}", 1
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != len(fields):
                    raise ParseError(
                        f"malformed row: expected {len(fields)} fields, got {len(row)}",
                        reader.line_num,
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            # for example a field longer than csv.field_size_limit()
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    elif format == "jsonl":
        for line, raw in enumerate(stream, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                raise ParseError("malformed JSON object", line) from None
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line)
            for key in fields:
                if key not in obj and key not in optional:
                    raise ParseError(f"missing field '{key}'", line)
            for key in obj:
                if key not in fields:
                    raise ParseError(f"unexpected field '{key}'", line)
            yield line, [obj.get(key) for key in fields]
    else:
        raise ValueError(f"unknown format '{format}', expected 'csv' or 'jsonl'")


def _iter_rows(stream: TextIO, format: str, fields: Sequence[str], optional: Sequence[str] = ()):
    """Yield (line_number, {field: value}) for CSV-with-header or JSONL input."""
    for line, values in _iter_values(stream, format, fields, optional):
        yield line, dict(zip(fields, values))


def _json_key(value):
    """Dict key of a JSON or record value: equal keys parse to equal results.

    Strings key as themselves, anything else by (type, repr), so `true`
    never merges with `1`, nor `1.0` with `1`, nor `-0.0` with `0.0`.
    """
    return value if type(value) is str else (type(value), repr(value))


def _record_keys(column: list) -> list:
    """Dict keys of one record field, as `_json_key` would key them.

    A column of one type other than float keys as itself; otherwise every
    value is keyed by `_json_key`, so a `True` after a `1` is still checked
    and `-0.0` stays apart from `0.0`.
    """
    kinds = set(map(type, column))
    if len(kinds) <= 1 and float not in kinds:
        return column
    return list(map(_json_key, column))


class _Coder:
    """Dict-codes one column, chunk by chunk, converting each distinct key once.

    `convert(value, line)` turns a raw value into its field's value or raises
    ParseError; `values[codes[i]]` is the converted value of row i.
    """

    def __init__(self, convert: Callable[[object, int], object]):
        self.convert = convert
        self.index: dict = {}
        self.values: list = []
        self.chunks: list[np.ndarray] = []

    def add(self, keys: Sequence, raw: Sequence) -> tuple[int, str] | None:
        """Code one chunk; `raw[i]` is the value behind `keys[i]`.

        Returns None, or (chunk position, ParseError reason) for the first row
        whose value does not convert; then only the rows before it are coded.
        New values are converted with line 0, before their row is known; the
        caller raises at that row's line.
        """
        index = self.index
        new = [key for key in dict.fromkeys(keys) if key not in index]
        failed = None
        if new:
            first = dict(zip(reversed(keys), reversed(raw))) if keys is not raw else None
            for key in new:
                try:
                    value = self.convert(key if first is None else first[key], 0)
                except ParseError as exc:
                    failed = keys.index(key), exc.reason
                    keys = keys[: failed[0]]
                    break
                index[key] = len(self.values)
                self.values.append(value)
        self.chunks.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
        return failed

    def codes(self) -> np.ndarray:
        return np.concatenate(self.chunks) if self.chunks else np.zeros(0, np.int32)


PLATFORMS = tuple(Platform)


def _lookup(values: Sequence, codes: np.ndarray):
    return map(values.__getitem__, codes.tolist())


class _Field:
    """One column of a table schema: `convert(value, line)` checks a raw value
    and gives its converted value; `values` and `text` give the column's
    record values and CSV text, each distinct value spelled once."""

    dtype: type = np.int64
    optional = False

    def decode(self, values: list) -> tuple[np.ndarray, tuple[str, ...] | None]:
        """The column value of each converted value, and the ids they code, if any."""
        return np.asarray(values, dtype=self.dtype), None

    def values(self, table: Table) -> list:
        return getattr(table, self.name).tolist()

    def text(self, table: Table) -> Iterable:
        return self.values(table)


@dataclass(frozen=True)
class IdField(_Field):
    """A string id, not null; its column holds codes into the table's distinct
    ids, named after the field plus "s" (`outlet_id` codes index `outlet_ids`)."""

    name: str
    dtype = np.int32

    def convert(self, value, line: int) -> str:
        if value is None:
            raise ParseError(f"null {self.name}", line)
        return str(value)

    def decode(self, values):
        index: dict[str, int] = {}
        codes = [index.setdefault(v, len(index)) for v in values]
        return np.array(codes, dtype=self.dtype), tuple(index)

    def values(self, table):
        return _lookup(getattr(table, self.name + "s"), getattr(table, self.name))


@dataclass(frozen=True)
class EnumField(_Field):
    """A label (Enum member or string) of a fixed `order`; the column holds its position.
    An optional field reads an empty, null or missing label as None, at position len(order)."""

    name: str
    order: tuple
    what: str
    optional: bool = False
    dtype = np.int8

    def convert(self, value, line: int) -> int:
        if self.optional and (value is None or value == ""):
            return len(self.order)
        try:
            return self.order.index(type(self.order[0])(value))
        except ValueError:
            raise ParseError(f"unknown {self.what} '{value}'", line) from None

    def values(self, table):
        return _lookup((*self.order, None), getattr(table, self.name))

    def text(self, table):
        spelled = (getattr(label, "value", label) for label in self.order)
        return _lookup((*spelled, ""), getattr(table, self.name))


@dataclass(frozen=True)
class DateField(_Field):
    """A YYYY-MM-DD date; the column holds its proleptic Gregorian ordinal."""

    name: str
    dtype = np.int32

    def convert(self, value, line: int) -> int:
        if isinstance(value, datetime.date):  # a record's value
            return value.toordinal()
        try:
            return iso_date(value).toordinal()
        except (TypeError, ValueError):
            raise ParseError(f"malformed {self.name} '{value}'", line) from None

    def values(self, table, spell=lambda day: day):
        days, codes = np.unique(getattr(table, self.name), return_inverse=True)
        return _lookup([spell(datetime.date.fromordinal(d)) for d in days.tolist()], codes)

    def text(self, table):
        return self.values(table, datetime.date.isoformat)


@dataclass(frozen=True)
class CountField(_Field):
    """A whole count in [minimum, INT64_MAX], spelled canonically if a string;
    the column holds int64 values."""

    name: str
    minimum: int = 0

    def convert(self, value, line: int) -> int:
        try:
            # bool is an int subclass; JSON true/false must not pass as counts
            if isinstance(value, bool):
                raise ValueError
            out = int(value)
            if isinstance(value, str) and str(out) != value:
                raise ValueError
            if isinstance(value, float) and value != out:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"invalid {self.name} '{value}'", line) from None
        if not self.minimum <= out <= INT64_MAX:
            bound = f">= {self.minimum}" if out < self.minimum else f"<= {INT64_MAX}"
            raise ParseError(f"{self.name} must be {bound}, got '{value}'", line)
        return out


@dataclass(frozen=True)
class FloatField(_Field):
    """A float, spelled as its shortest repr if a string; NaN is no value, while
    +-inf is legal unless the field is `finite`. The column holds float64 values.
    An optional field reads an empty or null value as None, held as NaN and
    written empty."""

    name: str
    optional: bool = False
    finite: bool = False
    dtype = np.float64

    def convert(self, value, line: int) -> float:
        if self.optional and (value is None or value == ""):
            return math.nan
        try:
            out = float(value)
            if math.isnan(out) or (self.finite and math.isinf(out)) or isinstance(value, bool) or (
                    isinstance(value, str) and repr(out) != value):
                raise ValueError
        except (TypeError, ValueError):
            raise ParseError(f"invalid {self.name} '{value}'", line) from None
        return out

    def values(self, table):
        column = super().values(table)
        return [None if math.isnan(v) else v for v in column] if self.optional else column

    def text(self, table):
        return ["" if v is None else repr(v) for v in self.values(table)]


@dataclass(frozen=True)
class FlagField(_Field):
    """A bool, spelled `true` or `false`; the column holds bools."""

    name: str
    dtype = np.bool_

    def convert(self, value, line: int) -> bool:
        if isinstance(value, bool):  # a record's value
            return value
        if value not in ("false", "true"):
            raise ParseError(f"invalid {self.name} '{value}'", line)
        return value == "true"

    def text(self, table):
        return _lookup(("false", "true"), getattr(table, self.name))


class Table(abc.Sequence):
    """One input table as read-only numpy columns, one entry per row in order.

    `fields` is the table's schema; each field's column is the attribute of
    its name. An IdField's ids are distinct but may include ids no row uses.
    A field named like a Sequence method (a retweet `count`) hides it.

    The table is a read-only Sequence of `record`: length, iteration and
    indexing build records on demand, and it compares equal to a list of the
    same records. `from_records` and `from_columns` convert record values.
    Parsed or converted, a table is built under its class's own rule
    (`_checked`), by default that no two rows share their `key` field values
    (a key of several fields names a cell).
    """

    fields: tuple[_Field, ...] = ()
    record: Callable = staticmethod(lambda *values: values)
    key: tuple[str, ...] = ()  # field names, in schema order

    def __init__(self, columns: Sequence, ids: Mapping[str, Sequence[str]]):
        for field, values in zip(self.fields, columns, strict=True):
            column = np.asarray(values, dtype=field.dtype).view()  # the caller's array stays writable
            column.flags.writeable = False
            setattr(self, field.name, column)
        for name, distinct in ids.items():
            distinct = tuple(distinct)
            if len(set(distinct)) != len(distinct):
                raise ValueError(f"duplicate {name} ids")
            setattr(self, name + "s", distinct)
        if len({len(c) for c in self._columns()}) > 1:
            raise ValueError("columns differ in length")

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in self.fields]

    def _ids(self) -> dict[str, tuple[str, ...]]:
        return {f.name: getattr(self, f.name + "s") for f in self.fields if isinstance(f, IdField)}

    @classmethod
    def _from_coders(cls, coders: Sequence[_Coder], lines: Sequence[int]) -> Table:
        """The table of the first len(lines) coded rows under the class's rule;
        `lines[i]` is row i's input line, which a broken rule is reported at."""
        columns, ids = [], {}
        for field, coder in zip(cls.fields, coders):
            lookup, distinct = field.decode(coder.values)
            columns.append(lookup[coder.codes()[: len(lines)]])
            if distinct is not None:
                ids[field.name] = distinct
        return cls(columns, ids)._checked(lines)

    @classmethod
    def from_records(cls, records: Iterable) -> Table:
        """The table of `records` in order, checked as a parsed table is; a table of
        this class is returned as is. A fault raises ValueError("record i: ...")."""
        if isinstance(records, cls):
            return records
        records = records if isinstance(records, (list, tuple)) else list(records)
        # one column at a time, so only one field's values are held
        return cls.from_columns(list(map(operator.attrgetter(f.name), records)) for f in cls.fields)

    @classmethod
    def from_columns(cls, columns: Iterable[list]) -> Table:
        """The table whose field j holds the record values of the j-th column,
        checked as `from_records` checks records."""
        coders = [_Coder(field.convert) for field in cls.fields]
        try:
            for coder, column in zip(coders, columns, strict=True):
                failed = coder.add(_record_keys(column), column)
                if failed is not None:
                    raise ParseError(failed[1], failed[0])
            return cls._from_coders(coders, range(len(column)))
        except ParseError as exc:
            raise ValueError(f"record {exc.line}: {exc.reason}") from None

    def _checked(self, lines: Sequence[int]) -> Table:
        """The table under its own rule; raises ParseError at `lines[row]` of the first bad row."""
        row = _first_repeat(*(getattr(self, name) for name in self.key)) if self.key else None
        if row is not None:
            one = self.take([row])
            key = ", ".join(f"'{next(iter(f.text(one)))}'"
                            for f in self.fields if f.name in self.key)
            key = f"{self.key[0]} {key}" if len(self.key) == 1 else f"cell ({key})"
            raise ParseError(f"duplicate {key}", lines[row])
        return self

    def take(self, rows) -> Table:
        """The rows selected by a boolean mask, index array or slice."""
        return type(self)([c[rows] for c in self._columns()], self._ids())

    def __len__(self) -> int:
        return len(getattr(self, self.fields[0].name))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return next(iter(self.take([i])))

    def __iter__(self):
        return map(self.record, *(field.values(self) for field in self.fields))

    def __eq__(self, other):
        if not isinstance(other, abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


def _first_repeat(*columns: np.ndarray) -> int | None:
    """Position of the first row equal in all `columns` to an earlier one, or None."""
    repeat = np.ones(len(columns[0]), dtype=bool)
    repeat[np.unique(np.stack(columns, axis=1), axis=0, return_index=True)[1]] = False
    return int(np.argmax(repeat)) if repeat.any() else None


class ArticleTable(Table):
    """Articles: article i was published by outlet_ids[outlet_id[i]] on
    platform PLATFORMS[platform[i]], on the day with ordinal date[i], with
    narrative NARRATIVE_ORDER[narrative[i]] about an event of type
    EVENT_ORDER[event[i]], and drew interactions[i] interactions.
    """

    fields = (
        IdField("outlet_id"),
        EnumField("platform", PLATFORMS, "platform"),
        DateField("date"),
        EnumField("narrative", NARRATIVE_ORDER, "narrative label"),
        EnumField("event", EVENT_ORDER, "event label"),
        CountField("interactions"),
    )
    record = ArticleRecord

    def interaction_totals(self, groups: np.ndarray, n_groups: int) -> list[int]:
        """Exact interactions per group (`groups[i]` is row i's group); beyond int64 raises."""
        return [_int64_total(t) for t in exact_sums(self.interactions, groups, n_groups)]


class OutletTable(Table):
    """The outlet registry; its rule: outlet ids are unique."""

    fields = (
        IdField("outlet_id"),
        IdField("name"),
        EnumField("reliability", tuple(Reliability), "reliability label"),
        EnumField("kind", tuple(OutletKind), "outlet kind", optional=True),
    )
    record = OutletProfile
    key = ("outlet_id",)

    def row_of(self) -> dict[str, int]:
        """{outlet id: its row}, in row order."""
        return {oid: row for row, oid in enumerate(_lookup(self.outlet_ids, self.outlet_id))}

    def reliability_of(self) -> dict[str, Reliability]:
        """{outlet id: its reliability label}, in row order."""
        return dict(zip(_lookup(self.outlet_ids, self.outlet_id),
                        _lookup(tuple(Reliability), self.reliability)))


class FollowerTable(Table):
    """Follower counts; its rule: period_start <= period_end."""

    fields = (
        IdField("outlet_id"),
        EnumField("platform", PLATFORMS, "platform"),
        DateField("period_start"),
        DateField("period_end"),
        CountField("followers"),
    )
    record = FollowerRecord

    def _checked(self, lines):
        reversed_rows = np.flatnonzero(self.period_start > self.period_end)
        if len(reversed_rows):
            row = int(reversed_rows[0])
            start, end = (datetime.date.fromordinal(int(c[row]))
                          for c in (self.period_start, self.period_end))
            raise ParseError(f"period_start {start} after period_end {end}", lines[row])
        return self


class RetweetTable(Table):
    """Retweet counts; its rule: duplicate (user, outlet) rows are summed
    into the first, and the total must stay within int64."""

    fields = (IdField("user_id"), IdField("outlet_id"), CountField("count", minimum=1))
    record = RetweetRecord

    def _checked(self, lines):
        pair = self.user_id.astype(np.int64) * len(self.outlet_ids) + self.outlet_id
        _, first, group = np.unique(pair, return_index=True, return_inverse=True)
        totals = exact_sums(self.count, group, len(first))
        over = np.isin(group, [g for g, total in enumerate(totals) if total > INT64_MAX])
        running: dict[int, int] = {}
        for row in np.flatnonzero(over).tolist():  # the row where a total crosses the bound
            g = int(group[row])
            running[g] = running.get(g, 0) + int(self.count[row])
            if running[g] > INT64_MAX:
                rec = self[row]
                raise ParseError(f"count total {running[g]} of user '{rec.user_id}' and outlet "
                                 f"'{rec.outlet_id}' exceeds {INT64_MAX}", lines[row])
        order = np.argsort(first)  # pairs by first appearance
        keep = first[order]
        totals = np.array(totals, dtype=np.int64)[order]
        return RetweetTable([self.user_id[keep], self.outlet_id[keep], totals], self._ids())


class _CountRows(Table):
    """counts.csv rows; its rule: one row per (outlet, narrative, event) cell."""

    fields = (
        IdField("outlet_id"),
        EnumField("narrative", NARRATIVE_ORDER, "narrative label"),
        EnumField("event", EVENT_ORDER, "event label"),
        CountField("count"),
    )
    key = ("outlet_id", "narrative", "event")


ARTICLE_FIELDS, OUTLET_FIELDS, FOLLOWER_FIELDS, RETWEET_FIELDS, COUNT_FIELDS = (
    tuple(f.name for f in table.fields)
    for table in (ArticleTable, OutletTable, FollowerTable, RetweetTable, _CountRows)
)


def _int64_total(total: int) -> int:
    if total > INT64_MAX:
        raise InputError(f"interactions total {total} exceeds {INT64_MAX}")
    return total


# rows read and coded per pass: a pass's row lists are freed while still in
# the young garbage-collector generations, so full collections never rescan
# them (one pass over all 343k rows of a paper-scale file parsed 2-3x slower)
_CHUNK_ROWS = 1024


def _parse(stream: TextIO, format: str, cls: type[Table]) -> Table:
    """Parse CSV (with header) or JSONL into a `cls` table, order preserved.

    Every field is dict-coded as it is read and each distinct value is
    converted once (JSONL values keyed by type and value). A bad input raises
    the ParseError a row-by-row parse would raise first: the earliest row,
    and in it the first field in schema order, with a bad value, the table's
    own rule counting as the row's last field, unless a row before it is
    malformed.
    """
    coders = [_Coder(field.convert) for field in cls.fields]
    key = _json_key if format == "jsonl" else None
    rows = _iter_values(stream, format, [field.name for field in cls.fields],
                        [field.name for field in cls.fields if field.optional])
    lines = array.array("q")
    fault = None
    while fault is None:
        chunk_lines, chunk = [], []
        try:
            for line, values in itertools.islice(rows, _CHUNK_ROWS):
                chunk_lines.append(line)
                chunk.append(values)
        except ValueError as exc:
            fault = exc
        bad = None
        for coder, raw in zip(coders, zip(*chunk)):
            keys = raw if key is None else list(map(key, raw))
            failed = coder.add(keys, raw)
            if failed is not None and (bad is None or failed[0] < bad[0]):
                bad = failed
        if bad is not None:
            fault = ParseError(bad[1], chunk_lines[bad[0]])
            del chunk_lines[bad[0]:]
        lines.extend(chunk_lines)
        if len(chunk) < _CHUNK_ROWS:
            break
    # the rule sees only rows before the fault, so a rule error is earlier
    table = cls._from_coders(coders, lines)
    if fault is not None:
        raise fault
    return table


def parse_articles(stream: TextIO, format: str = "csv") -> ArticleTable:
    """Articles from CSV (with header) or JSONL, in order."""
    return _parse(stream, format, ArticleTable)


def parse_outlets(stream: TextIO, format: str = "csv") -> OutletTable:
    """The outlet registry; a repeated outlet_id is rejected at its line."""
    return _parse(stream, format, OutletTable)


def parse_followers(stream: TextIO, format: str = "csv") -> FollowerTable:
    return _parse(stream, format, FollowerTable)


def parse_retweets(stream: TextIO, format: str = "csv") -> RetweetTable:
    """Retweet counts; duplicate (user, outlet) pairs are summed into the first."""
    return _parse(stream, format, RetweetTable)


def filter_articles(
    articles: Iterable[ArticleRecord],
    date_from: datetime.date | None = None,
    date_to: datetime.date | None = None,
) -> ArticleTable:
    """Keep articles inside the inclusive [date_from, date_to] window."""
    table = ArticleTable.from_records(articles)
    keep = np.ones(len(table), dtype=bool)
    if date_from is not None:
        keep &= table.date >= date_from.toordinal()
    if date_to is not None:
        keep &= table.date <= date_to.toordinal()
    return table.take(keep)


def _registered(table: ArticleTable, code_of: Mapping[str, int]) -> np.ndarray:
    """`code_of[outlet id]` for every article; raises on an unregistered outlet."""
    codes = np.array([code_of.get(oid, -1) for oid in table.outlet_ids], dtype=np.intp)
    rows = codes[table.outlet_id]
    if (rows < 0).any():
        oid = table.outlet_ids[table.outlet_id[np.argmax(rows < 0)]]
        raise InputError(f"article references unregistered outlet '{oid}'")
    return rows


def aggregate_counts(
    articles: Iterable[ArticleRecord], registry: Iterable[OutletProfile]
) -> CountTensor:
    """Count articles into an N x 3 x 3 tensor, outlets ordered as in registry."""
    row_of = OutletTable.from_records(registry).row_of()
    table = ArticleTable.from_records(articles)
    cells = (_registered(table, row_of) * 3 + table.narrative) * 3 + table.event
    counts = np.bincount(cells, minlength=9 * len(row_of)).reshape(len(row_of), 3, 3)
    return CountTensor(tuple(row_of), counts.astype(np.int64, copy=False))


@dataclass(frozen=True)
class BreakdownRow:
    """Raw totals and unrounded percentages for one reliability class."""

    category: str
    sources: int
    contents: int
    interactions: int
    sources_pct: float
    contents_pct: float
    interactions_pct: float


@dataclass(frozen=True)
class BreakdownTable:
    questionable: BreakdownRow
    reliable: BreakdownRow
    total: BreakdownRow

    def rows(self) -> tuple[BreakdownRow, BreakdownRow, BreakdownRow]:
        return (self.questionable, self.reliable, self.total)


def dataset_breakdown(
    articles: Iterable[ArticleRecord], registry: Iterable[OutletProfile]
) -> BreakdownTable:
    """Per-reliability-class source/content/interaction totals with shares.

    Source counts come from the registry; content and interaction totals from
    the articles. Percentages are raw (unrounded); round to one decimal only
    for display. An interaction total above the int64 range raises.
    """
    outlets = OutletTable.from_records(registry)
    table = ArticleTable.from_records(articles)
    if not len(table):
        raise InputError("no articles")
    # class 0 is questionable, 1 reliable: the reliability column's order
    classes = outlets.reliability[_registered(table, outlets.row_of())]
    sources = np.bincount(outlets.reliability, minlength=2).tolist()
    contents = np.bincount(classes, minlength=2).tolist()
    interactions = table.interaction_totals(classes, 2)
    tot_sources = sum(sources)
    tot_contents = sum(contents)
    tot_interactions = _int64_total(sum(interactions))

    def row(category: str, s: int, c: int, i: int) -> BreakdownRow:
        return BreakdownRow(
            category=category,
            sources=s,
            contents=c,
            interactions=i,
            sources_pct=100.0 * s / tot_sources if tot_sources else 0.0,
            contents_pct=100.0 * c / tot_contents,
            interactions_pct=100.0 * i / tot_interactions if tot_interactions else 0.0,
        )

    return BreakdownTable(
        questionable=row("questionable", sources[0], contents[0], interactions[0]),
        reliable=row("reliable", sources[1], contents[1], interactions[1]),
        total=row("total", tot_sources, tot_contents, tot_interactions),
    )


def write_csv(header: Sequence[str], rows: Iterable[Sequence], stream: TextIO) -> None:
    """Write one CSV artifact: a header row, then `rows`, RFC 4180-quoted.

    Values are spelled by the csv module: None as empty, numbers by str (the
    shortest round-trip repr for floats). A table's own spelling is `_write`'s.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write(cls: type[Table], records: Iterable, stream: TextIO) -> None:
    """Write `records` (or a `cls` table) as a `cls` CSV file, in the spelling
    `_parse` reads back."""
    table = cls.from_records(records)
    write_csv([f.name for f in cls.fields], zip(*(f.text(table) for f in cls.fields)), stream)


def write_articles(records: Iterable[ArticleRecord], stream: TextIO) -> None:
    _write(ArticleTable, records, stream)


def write_outlets(records: Iterable[OutletProfile], stream: TextIO) -> None:
    _write(OutletTable, records, stream)


def write_followers(records: Iterable[FollowerRecord], stream: TextIO) -> None:
    _write(FollowerTable, records, stream)


def write_retweets(records: Iterable[RetweetRecord], stream: TextIO) -> None:
    _write(RetweetTable, records, stream)


def write_count_tensor(tensor: CountTensor, stream: TextIO) -> None:
    """Serialize all N x 3 x 3 cells (zeros included) for exact round-trips."""
    cell = np.arange(tensor.counts.size)
    columns = [cell // 9, cell // 3 % 3, cell % 3, tensor.counts.ravel()]
    _write(_CountRows, _CountRows(columns, {"outlet_id": tensor.outlets}), stream)


def read_count_tensor(stream: TextIO) -> CountTensor:
    """The tensor of a counts.csv file, outlets in first-appearance order.

    Each (outlet, narrative, event) cell has at most one row; a missing cell is 0.
    """
    rows = _parse(stream, "csv", _CountRows)
    counts = np.zeros((len(rows.outlet_ids), 3, 3), dtype=np.int64)
    counts[rows.outlet_id, rows.narrative, rows.event] = rows.count
    return CountTensor(rows.outlet_ids, counts)
