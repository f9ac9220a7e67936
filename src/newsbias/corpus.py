"""Canonical records for the labeled news corpus and their file formats.

Everything here is pure. Each input table and each read-back stage artifact
has one schema, a tuple of typed fields from which its row record is built,
and one reader: `_parse` reads a character stream into a Table of numpy
columns, dict-coded except for float fields, which are converted value by
value (the input tables here, the artifact tables in the modules that build
them), and `_write` spells a table back. `Table.from_records` builds a table
from records by the same coding loop (`_build`), so records are checked as a
parse of the same rows is. Aggregation folds the article columns into an
outlet x narrative x event count tensor with one bincount, and nothing
mutates its inputs.

CSV is read and written a block at a time. `_parse` has two read paths, and
the input picks one: a block of lines with no quote, CR, NUL or blank line,
in which every line has the schema's field count, is split into its columns
as one string; from the first block that is not, csv.reader reads the rest
row by row. Every CSV file the package writes goes through one writer,
`_write_columns`, which takes its rows as blocks of one (codes, texts) pair
per column: each text of a block is quoted once, by the one rule csv.reader
undoes (a text holding a comma, quote, CR or LF is quoted, its quotes
doubled), and the block's rows are joined a slice at a time. `_write` hands
it a table as one block, each distinct value of a column spelled once.
"""

from __future__ import annotations

import csv
import dataclasses
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
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

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

class InputError(ValueError):
    """Bad or missing user-supplied input (the CLI exits 2 on it), as opposed
    to a plain ValueError, which is a fault of the program."""


class ParseError(InputError):
    """Bad input row; message carries the 1-based line number, `reason` is
    the message without it."""

    def __init__(self, message: str, line: int):
        line = int(line)  # a numpy integer, say
        super().__init__(f"{message} at line {line}")
        self.reason = message
        self.line = line


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
        return self.counts[:, :, EVENT_ORDER.index(event)]


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


def _jsonl_rows(stream: TextIO, fields: Sequence[str], optional: Sequence[str]):
    """Yield (line_number, values in `fields` order) for each JSONL object; an
    object may omit only the `optional` fields, which then read as None."""
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


def _csv_rows(lines: Iterable[str], fields: Sequence[str], header: bool, offset: int):
    """Yield (line_number, row) for each non-blank row csv.reader reads from
    `lines`, after a header row equal to `fields` if `header`; line numbers
    count `offset` lines before the first of `lines`."""
    reader = csv.reader(lines)
    try:
        if header:
            row = next(reader, None)
            if row is None:
                return
            if row != list(fields):
                raise ParseError(f"bad header {row!r}, expected {','.join(fields)}", 1)
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise ParseError(
                    f"malformed row: expected {len(fields)} fields, got {len(row)}",
                    offset + reader.line_num,
                )
            yield offset + reader.line_num, row
    except csv.Error as exc:
        # for example a field longer than csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}", offset + reader.line_num) from None


def _json_key(value):
    """Dict key of a JSON or record value: equal keys parse to equal results.

    Strings key as themselves, anything else by its type and itself, or by
    its type and repr if a float (equal floats may spell apart) or a list or
    dict (unhashable), so `true` never merges with `1`, nor `1.0` with `1`,
    nor `-0.0` with `0.0`.
    """
    kind = type(value)
    if kind is str:
        return value
    return kind, repr(value) if kind is float or kind is list or kind is dict else value


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
        try:  # most chunks hold no new value
            self.chunks.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
            return None
        except KeyError:
            pass
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

    def column(self, field: _Field, rows: int) -> tuple[np.ndarray, tuple[str, ...] | None]:
        """The field's column of the first `rows` coded rows, and the ids it codes, if any."""
        lookup, distinct = field.decode(self.values)
        return lookup[self.codes()[:rows]], distinct


class _Converter:
    """Converts one float column value by value, chunk by chunk, with the
    interface of _Coder: its values are nearly all distinct, so coding them
    would only add a dict lookup per value."""

    def __init__(self, convert: Callable[[object, int], float]):
        self.convert = convert
        self.chunks: list[np.ndarray] = []

    def add(self, keys: Sequence, raw: Sequence) -> tuple[int, str] | None:
        """Convert one chunk; as `_Coder.add`, but `keys` are not used."""
        try:
            converted = map(self.convert, raw, itertools.repeat(0))
            self.chunks.append(np.fromiter(converted, np.float64, len(raw)))
            return None
        except ParseError:
            pass
        # a bad value: convert the rows before the first one
        try:
            for row, value in enumerate(raw):
                self.convert(value, 0)
        except ParseError as exc:
            self.add(keys[:row], raw[:row])
            return row, exc.reason

    def column(self, field: _Field, rows: int) -> tuple[np.ndarray, None]:
        return (np.concatenate(self.chunks) if self.chunks else np.zeros(0))[:rows], None


PLATFORMS = tuple(Platform)


def _lookup(values: Sequence, codes: np.ndarray):
    return map(values.__getitem__, codes.tolist())


def _distinct(column: np.ndarray, spell: Callable) -> tuple[np.ndarray, list]:
    """(codes, spelled): row i's value spelled is spelled[codes[i]], and each
    distinct value of `column` is spelled once, by `spell`."""
    values, codes = np.unique(column, return_inverse=True)
    return codes, list(map(spell, values.tolist()))


class _Field:
    """One column of a table schema: `convert(value, line)` checks a raw value
    and gives its converted value; `values` and `text` give the column's
    record values and CSV text, each distinct value spelled once."""

    dtype: type = np.int64
    optional = False

    def coder(self) -> _Coder | _Converter:
        """What builds the field's column as it is read."""
        return _Coder(self.convert)

    def decode(self, values: list) -> tuple[np.ndarray, tuple[str, ...] | None]:
        """The column value of each converted value, and the ids they code, if any."""
        return np.asarray(values, dtype=self.dtype), None

    def values(self, table: Table) -> list:
        return getattr(table, self.name).tolist()

    def text(self, table: Table) -> tuple[np.ndarray, list[str]]:
        """(codes, texts): row i's CSV field, unquoted, is texts[codes[i]]."""
        return _distinct(getattr(table, self.name), str)


# a character XML 1.0 cannot carry: graph.graphml carries ids, so they keep to
# TAB, LF, CR and U+0020 on, less the surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def check_ids(name: str, ids: Iterable[str]) -> tuple[str, ...]:
    """`ids` as a tuple, if they are distinct and keep to XML 1.0's characters;
    else ValueError. One search covers every id, and only a hit looks for its id."""
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {name} ids")
    if _NOT_XML.search("".join(ids)):
        bad = next(i for i in ids if _NOT_XML.search(i))
        raise ValueError(f"{name} {bad!r} holds a character XML cannot carry")
    return ids


@dataclass(frozen=True)
class IdField(_Field):
    """A string id, not null; its column holds codes into the table's distinct
    ids, named after the field plus "s" (`outlet_id` codes index `outlet_ids`)."""

    name: str
    dtype = np.int32

    def convert(self, value, line: int) -> str:
        if value is None:
            raise ParseError(f"null {self.name}", line)
        text = str(value)
        if _NOT_XML.search(text):
            raise ParseError(f"{self.name} {text!r} holds a character XML cannot carry", line)
        return text

    def decode(self, values):
        index: dict[str, int] = {}
        codes = [index.setdefault(v, len(index)) for v in values]
        return np.array(codes, dtype=self.dtype), tuple(index)

    def values(self, table):
        return _lookup(getattr(table, self.name + "s"), getattr(table, self.name))

    def text(self, table):
        return getattr(table, self.name), list(getattr(table, self.name + "s"))


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
        spelled = [getattr(label, "value", label) for label in self.order]
        return getattr(table, self.name), [*spelled, ""]


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

    def values(self, table):
        codes, days = _distinct(getattr(table, self.name), datetime.date.fromordinal)
        return _lookup(days, codes)

    def text(self, table):
        return _distinct(getattr(table, self.name),
                         lambda day: datetime.date.fromordinal(day).isoformat())


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

    def coder(self):
        return _Converter(self.convert)

    def values(self, table):
        column = super().values(table)
        return [None if math.isnan(v) else v for v in column] if self.optional else column

    def text(self, table):
        # distinct by bit pattern, so -0.0 stays apart from 0.0
        bits, codes = np.unique(getattr(table, self.name).view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        return codes, ["" if self.optional and math.isnan(v) else repr(v) for v in values]


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
        return getattr(table, self.name).view(np.int8), ["false", "true"]


class Table(abc.Sequence):
    """One input table as read-only numpy columns, one entry per row in order.

    `fields` is the table's schema; each field's column is the attribute of
    its name. An IdField's ids may include ids no row uses; however the table
    is built, they are distinct and keep to XML 1.0's characters (`check_ids`,
    ValueError).
    A field named like a Sequence method (a retweet `count`) hides it.

    The table is a read-only Sequence of `record`: length, iteration and
    indexing build records on demand, and it compares equal to a list of the
    same records. A subclass that names its record, as in
    `class ArticleTable(Table, record="ArticleRecord")`, gets a frozen
    dataclass of that name, one attribute per field in schema order, with
    trailing optional fields defaulting to None; any other table's records
    are tuples. `from_records` builds a table from records or tuples, and
    `_parse` from input rows, by one coding loop (`_build`).
    However it is built, a table holds its class's own rule (`_rule`), by
    default that no two rows share their `key` field values (a key of several
    fields names a cell). A break raises ParseError at `lines[row]` if the
    table is built with input `lines` (parsing builds it so), else
    ValueError("record <row>: ...").
    """

    fields: tuple[_Field, ...] = ()
    record: Callable = staticmethod(lambda *values: values)
    key: tuple[str, ...] = ()  # field names, in schema order

    def __init_subclass__(cls, record: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if record is None:
            return
        names = [f.name for f in cls.fields]
        required = len(names)
        while required and cls.fields[required - 1].optional:
            required -= 1
        cls.record = dataclasses.make_dataclass(
            record, [*names[:required], *((name, Any, None) for name in names[required:])],
            frozen=True)
        # set after creation: from Python 3.12 on, make_dataclass names the module
        # that called it, and the record must pickle under its table's module
        cls.record.__module__ = cls.__module__

    def __init__(self, columns: Sequence, ids: Mapping[str, Sequence[str]],
                 lines: Sequence[int] | None = None):
        for field, values in zip(self.fields, columns, strict=True):
            setattr(self, field.name, np.asarray(values, dtype=field.dtype).view())
        for name, distinct in ids.items():
            setattr(self, name + "s", check_ids(name, distinct))
        if len({len(c) for c in self._columns()}) > 1:
            raise ValueError("columns differ in length")
        try:
            self._rule()
        except ParseError as exc:  # at its row
            if lines is None:
                raise ValueError(f"record {exc.line}: {exc.reason}") from None
            raise ParseError(exc.reason, lines[exc.line]) from None
        for column in self._columns():  # views: the caller's arrays stay writable
            column.flags.writeable = False

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in self.fields]

    def _ids(self) -> dict[str, tuple[str, ...]]:
        return {f.name: getattr(self, f.name + "s") for f in self.fields if isinstance(f, IdField)}

    @classmethod
    def from_records(cls, records: Iterable) -> Table:
        """The table of `records` in order, checked as a parse of the same rows is;
        a table of this class is returned as is. A record is read by field name,
        or by position if a tuple. A fault raises ValueError("record i: ...")."""
        if isinstance(records, cls):
            return records
        names = [f.name for f in cls.fields]

        def rows():
            for i, record in enumerate(records):
                if not isinstance(record, tuple):
                    record = [getattr(record, name) for name in names]
                elif len(record) != len(names):
                    raise ParseError(f"expected {len(names)} fields, got {len(record)}", i)
                yield i, record

        try:
            return _build(cls, _row_chunks(rows()), _json_key)
        except ParseError as exc:
            raise ValueError(f"record {exc.line}: {exc.reason}") from None

    def _rule(self) -> None:
        """Raise ParseError at the first row that breaks the class's rule, here a repeated key."""
        row = _first_repeat(*(getattr(self, name) for name in self.key)) if self.key else None
        if row is not None:
            one = self.take([row])
            key = ", ".join(f"'{texts[codes[0]]}'" for codes, texts in
                            (f.text(one) for f in self.fields if f.name in self.key))
            key = f"{self.key[0]} {key}" if len(self.key) == 1 else f"cell ({key})"
            raise ParseError(f"duplicate {key}", row)

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


class ArticleTable(Table, record="ArticleRecord"):
    """Articles, each one labeled content item published by an outlet: article
    i was published by outlet_ids[outlet_id[i]] on platform
    PLATFORMS[platform[i]], on the day with ordinal date[i], with narrative
    NARRATIVE_ORDER[narrative[i]] about an event of type EVENT_ORDER[event[i]],
    and drew interactions[i] interactions.
    """

    fields = (
        IdField("outlet_id"),
        EnumField("platform", PLATFORMS, "platform"),
        DateField("date"),
        EnumField("narrative", NARRATIVE_ORDER, "narrative label"),
        EnumField("event", EVENT_ORDER, "event label"),
        CountField("interactions"),
    )

    def interaction_totals(self, groups: np.ndarray, n_groups: int) -> list[int]:
        """Exact interactions per group (`groups[i]` is row i's group); beyond int64 raises."""
        return [_int64_total(t) for t in exact_sums(self.interactions, groups, n_groups)]


class OutletTable(Table, record="OutletProfile"):
    """The outlet registry, one profile per outlet, its kind None if not given;
    its rule: outlet ids are unique."""

    fields = (
        IdField("outlet_id"),
        IdField("name"),
        EnumField("reliability", tuple(Reliability), "reliability label"),
        EnumField("kind", tuple(OutletKind), "outlet kind", optional=True),
    )
    key = ("outlet_id",)

    def reliability_of(self) -> dict[str, Reliability]:
        """{outlet id: its reliability label}, in row order."""
        return dict(zip(_lookup(self.outlet_ids, self.outlet_id),
                        _lookup(tuple(Reliability), self.reliability)))


class FollowerTable(Table, record="FollowerRecord"):
    """Follower counts, each of one outlet account over one observation period;
    its rule: period_start <= period_end."""

    fields = (
        IdField("outlet_id"),
        EnumField("platform", PLATFORMS, "platform"),
        DateField("period_start"),
        DateField("period_end"),
        CountField("followers"),
    )

    def _rule(self):
        reversed_rows = np.flatnonzero(self.period_start > self.period_end)
        if len(reversed_rows):
            row = int(reversed_rows[0])
            start, end = (datetime.date.fromordinal(int(c[row]))
                          for c in (self.period_start, self.period_end))
            raise ParseError(f"period_start {start} after period_end {end}", row)


class RetweetTable(Table, record="RetweetRecord"):
    """Retweet counts, each how many times one user retweeted one outlet; its
    rule: duplicate (user, outlet) rows are summed into the first, and the
    total must stay within int64."""

    fields = (IdField("user_id"), IdField("outlet_id"), CountField("count", minimum=1))

    def _rule(self):
        pair = self.user_id.astype(np.int64) * len(self.outlet_ids) + self.outlet_id
        if (np.diff(np.sort(pair)) != 0).all():  # no pair repeats
            return
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
                                 f"'{rec.outlet_id}' exceeds {INT64_MAX}", row)
        order = np.argsort(first)  # pairs by first appearance
        keep = first[order]
        self.user_id, self.outlet_id = self.user_id[keep], self.outlet_id[keep]
        self.count = np.array(totals, dtype=np.int64)[order]


class _CountRows(Table):
    """counts.csv rows; its rule: one row per (outlet, narrative, event) cell."""

    fields = (
        IdField("outlet_id"),
        EnumField("narrative", NARRATIVE_ORDER, "narrative label"),
        EnumField("event", EVENT_ORDER, "event label"),
        CountField("count"),
    )
    key = ("outlet_id", "narrative", "event")


ArticleRecord, OutletProfile, FollowerRecord, RetweetRecord = (
    table.record for table in (ArticleTable, OutletTable, FollowerTable, RetweetTable)
)
ARTICLE_FIELDS, OUTLET_FIELDS, FOLLOWER_FIELDS, RETWEET_FIELDS, COUNT_FIELDS = (
    tuple(f.name for f in table.fields)
    for table in (ArticleTable, OutletTable, FollowerTable, RetweetTable, _CountRows)
)


def _int64_total(total: int) -> int:
    if total > INT64_MAX:
        raise InputError(f"interactions total {total} exceeds {INT64_MAX}")
    return total


# rows read and coded per pass of the row path (JSONL, and CSV from its first
# block that does not split, see _split_block): a pass's row lists are freed
# while still in the young garbage-collector generations, so full collections
# never rescan them (one pass over all 343k rows of a paper-scale file parsed
# 2-3x slower). A split block makes one list per column, not one per row.
_CHUNK_ROWS = 1024
# characters of CSV lines read per block; a block ends at a line end. Parse
# speed was flat from 2**13 to 2**18; smaller blocks hold fewer line and field
# strings at once, and left 3.8 MB of a 64,700-row file's parse in the
# process where 2**18 left 6-7 MB
_BLOCK_CHARS = 2**15


def _row_chunks(rows: Iterable[tuple[int, Sequence]]):
    """Yield (line numbers, columns) for each _CHUNK_ROWS of `rows`; a ValueError
    (a ParseError, say) from `rows` is raised after the chunk of the rows before it."""
    while True:
        lines, chunk = [], []
        try:
            for line, values in itertools.islice(rows, _CHUNK_ROWS):
                lines.append(line)
                chunk.append(values)
        except ValueError:
            yield lines, list(zip(*chunk))
            raise
        yield lines, list(zip(*chunk))
        if len(chunk) < _CHUNK_ROWS:
            return


def _split_block(lines: list[str], k: int) -> list[list[str]] | None:
    """The k columns of a block of CSV lines, each ending in a line feed but
    perhaps the last, if the block is plain, else None.

    A block is plain when it holds no `"`, CR or NUL (which csv.reader rejects
    before Python 3.11), no blank line, and every line has exactly k - 1
    commas and is no longer than csv.field_size_limit(): csv.reader then reads
    each line as its split at the commas, so the block splits as one string.
    """
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"  # the last line of a file without a final line break
    if ('"' in text or "\r" in text or "\0" in text or "\n\n" in text or text[0] == "\n"
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    # every line feed becomes a field of its own, so k fields per line put
    # the feeds at every (k + 1)-th place
    flat = text.replace("\n", ",\n,").split(",")
    del flat[-1]
    n = len(lines)
    if len(flat) != n * (k + 1) or flat[k :: k + 1].count("\n") != n:
        return None
    return [flat[j :: k + 1] for j in range(k)]


def _csv_chunks(stream: TextIO, fields: Sequence[str]):
    """Yield (line numbers, columns) for the rows of a CSV stream with a header.

    Lines are read a block of about _BLOCK_CHARS characters at a time, as
    the stream splits them. While the header line is `fields` alone and each
    block is plain (see _split_block), a block is split into its columns at
    once; from the first block that is not, csv.reader reads the rest row by
    row (see _csv_rows). Either way a malformed row raises its ParseError
    after the rows before it are yielded.
    """
    header = ",".join(fields)
    lines = stream.readlines(_BLOCK_CHARS)
    done = 0  # lines before `lines`
    # a header line ended by a line feed: the stream splits lines at line feeds
    if lines and lines[0] in (header, header + "\n"):
        done = 1
        lines = lines[1:] or stream.readlines(_BLOCK_CHARS)
        while lines and (columns := _split_block(lines, len(fields))) is not None:
            yield np.arange(done + 1, done + 1 + len(lines)), columns
            done += len(lines)
            lines = stream.readlines(_BLOCK_CHARS)
        if not lines:
            return
    yield from _row_chunks(_csv_rows(itertools.chain(lines, stream), fields, not done, done))


def _build(cls: type[Table], chunks: Iterator, key: Callable | None) -> Table:
    """The `cls` table of the rows `chunks` yields as (line numbers, columns),
    each raw value keyed by `key` (or by itself if None) for its field's coder.

    Every field but a float field is dict-coded chunk by chunk and each
    distinct key is converted once; a float field converts each value (see
    _Converter). A fault raises the ParseError a row-by-row build would raise
    first: the earliest row, and in it the first field in schema order, with
    a bad value, the table's own rule counting as the row's last field,
    unless a row before it is malformed (a ValueError from `chunks`).
    """
    coders = [field.coder() for field in cls.fields]
    lines = []  # each chunk's line numbers
    fault = None
    while fault is None:
        try:
            chunk_lines, columns = next(chunks)
        except StopIteration:
            break
        except ValueError as exc:  # a malformed row, or undecodable text
            fault = exc
            break
        bad = None
        for coder, raw in zip(coders, columns):
            failed = coder.add(raw if key is None else list(map(key, raw)), raw)
            if failed is not None and (bad is None or failed[0] < bad[0]):
                bad = failed
        if bad is not None:
            fault = ParseError(bad[1], chunk_lines[bad[0]])
            chunk_lines = chunk_lines[: bad[0]]
        lines.append(chunk_lines)
    # the rule sees only rows before the fault, so a rule error is earlier
    lines = np.concatenate([np.zeros(0, np.int64), *(np.asarray(c, np.int64) for c in lines)])
    built = [coder.column(field, len(lines)) for field, coder in zip(cls.fields, coders)]
    ids = {f.name: distinct for f, (_, distinct) in zip(cls.fields, built) if distinct is not None}
    table = cls([column for column, _ in built], ids, lines)
    if fault is not None:
        raise fault
    return table


def _parse(stream: TextIO, format: str, cls: type[Table]) -> Table:
    """Parse CSV (with header) or JSONL into a `cls` table, order preserved;
    a bad input raises its ParseError as _build does.

    CSV is read a block of lines at a time, and a block of plain rows (no
    quotes, CR, NUL or blank line, and each line's field count right) is
    split into its columns as one string; the first block that is not, and
    every block after it, is read by csv.reader, as is JSONL by json, in
    chunks of _CHUNK_ROWS rows. JSONL values are keyed by type and value
    (see _json_key).
    """
    names = [field.name for field in cls.fields]
    if format == "csv":
        return _build(cls, _csv_chunks(stream, names), None)
    if format == "jsonl":
        optional = [field.name for field in cls.fields if field.optional]
        return _build(cls, _row_chunks(_jsonl_rows(stream, names, optional)), _json_key)
    raise ValueError(f"unknown format '{format}', expected 'csv' or 'jsonl'")


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
    """Keep articles inside the inclusive [date_from, date_to] window; a window
    that ends before it starts raises InputError."""
    if date_from is not None and date_to is not None and date_from > date_to:
        raise InputError("window start must be <= window end")
    table = ArticleTable.from_records(articles)
    keep = np.ones(len(table), dtype=bool)
    if date_from is not None:
        keep &= table.date >= date_from.toordinal()
    if date_to is not None:
        keep &= table.date <= date_to.toordinal()
    return table.take(keep)


def rows_of(outlet_ids: Iterable[str], table: Table) -> np.ndarray:
    """For each id, its row in `table`, a table keyed by `outlet_id`, or -1 where absent."""
    row = dict(zip(_lookup(table.outlet_ids, table.outlet_id), range(len(table))))
    return np.array([row.get(oid, -1) for oid in outlet_ids], dtype=np.intp)


def _registered(table: ArticleTable, outlets: OutletTable) -> np.ndarray:
    """Each article's row in `outlets`; raises on an unregistered outlet."""
    rows = rows_of(table.outlet_ids, outlets)[table.outlet_id]
    if (rows < 0).any():
        oid = table.outlet_ids[table.outlet_id[np.argmax(rows < 0)]]
        raise InputError(f"article references unregistered outlet '{oid}'")
    return rows


def aggregate_counts(
    articles: Iterable[ArticleRecord], registry: Iterable[OutletProfile]
) -> CountTensor:
    """Count articles into an N x 3 x 3 tensor, outlets ordered as in registry."""
    outlets = OutletTable.from_records(registry)
    table = ArticleTable.from_records(articles)
    cells = (_registered(table, outlets) * 3 + table.narrative) * 3 + table.event
    counts = np.bincount(cells, minlength=9 * len(outlets)).reshape(len(outlets), 3, 3)
    return CountTensor(tuple(_lookup(outlets.outlet_ids, outlets.outlet_id)),
                       counts.astype(np.int64, copy=False))


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
    classes = outlets.reliability[_registered(table, outlets)]
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


_NEEDS_QUOTES = re.compile('[,"\r\n]')
# rows joined per write
_WRITE_ROWS = 8192


def _quoted(texts: list[str]) -> list[str]:
    """`texts` as CSV fields: a text holding a comma, quote, CR or LF is quoted,
    its quotes doubled, and any other text is written as is."""
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in texts]


def _write_columns(header: Sequence[str],
                   blocks: Iterable[Sequence[tuple[np.ndarray, list[str]]]],
                   stream: TextIO) -> None:
    """Write a CSV file of `header` and the rows of each block in turn. A block
    is one (codes, texts) pair per column, and its row i holds texts[codes[i]].

    Each text of a block is quoted once (see _quoted), and the block's rows
    are joined with `,` and written _WRITE_ROWS at a time, so only one
    block's texts and _WRITE_ROWS of its rows are held at once. With no
    block, the file is the header alone.
    """
    stream.write(",".join(_quoted(list(header))) + "\n")
    for block in blocks:
        texts = [np.array(_quoted(t), dtype=object) for _, t in block]
        for start in range(0, len(block[0][0]), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            lines = [t[codes[rows]].tolist() for t, (codes, _) in zip(texts, block)]
            stream.write("\n".join(map(",".join, zip(*lines))) + "\n")


def _write(cls: type[Table], records: Iterable, stream: TextIO) -> None:
    """Write `records` (or a `cls` table) as a `cls` CSV file, in the spelling
    `_parse` reads back: one block of each field's distinct values, spelled
    and quoted once (see _write_columns)."""
    table = cls.from_records(records)
    _write_columns([f.name for f in cls.fields], [[f.text(table) for f in cls.fields]], stream)


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
