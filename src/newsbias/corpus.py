"""Canonical records for the labeled news corpus and their file formats.

Everything here is pure. `parse_articles` reads a character stream into an
ArticleTable, the articles as dict-coded numpy columns; the other parsers
return record lists. Aggregation folds the article columns into an
outlet x narrative x event count tensor with one bincount, and nothing
mutates its inputs.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import json
import logging
import operator
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

_NARRATIVE_INDEX = {n: i for i, n in enumerate(NARRATIVE_ORDER)}
_EVENT_INDEX = {e: i for i, e in enumerate(EVENT_ORDER)}


def narrative_index(narrative: Narrative) -> int:
    return _NARRATIVE_INDEX[narrative]


def event_index(event: EventType) -> int:
    return _EVENT_INDEX[event]


class ParseError(ValueError):
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


ARTICLE_FIELDS = ("outlet_id", "platform", "date", "narrative", "event", "interactions")
OUTLET_FIELDS = ("outlet_id", "name", "reliability", "kind")
FOLLOWER_FIELDS = ("outlet_id", "platform", "period_start", "period_end", "followers")
RETWEET_FIELDS = ("user_id", "outlet_id", "count")
COUNT_FIELDS = ("outlet_id", "narrative", "event", "count")


def _parse_enum(cls, value: str, what: str, line: int):
    try:
        return cls(value)
    except ValueError:
        raise ParseError(f"unknown {what} '{value}'", line) from None


def _parse_date(value: str, what: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(value)
    except (TypeError, ValueError):
        raise ParseError(f"malformed {what} '{value}'", line) from None


def _parse_int(value, what: str, line: int, minimum: int = 0) -> int:
    # bool is an int subclass; JSON true/false must not pass as counts
    if isinstance(value, bool):
        raise ParseError(f"invalid {what} '{value}'", line)
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"invalid {what} '{value}'", line) from None
    if isinstance(value, str) and str(out) != value.strip():
        raise ParseError(f"invalid {what} '{value}'", line)
    if isinstance(value, float) and value != out:
        raise ParseError(f"invalid {what} '{value}'", line)
    if out < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got '{value}'", line)
    return out


def _iter_values(stream: TextIO, format: str, fields: Sequence[str]):
    """Yield (line_number, values in `fields` order) for CSV-with-header or JSONL input.

    CSV values are the row's strings; a JSONL object may omit only "kind",
    which then reads as None.
    """
    if format == "csv":
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
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
                if key not in obj and key != "kind":
                    raise ParseError(f"missing field '{key}'", line)
            for key in obj:
                if key not in fields:
                    raise ParseError(f"unexpected field '{key}'", line)
            yield line, [obj.get(key) for key in fields]
    else:
        raise ValueError(f"unknown format '{format}', expected 'csv' or 'jsonl'")


def _iter_rows(stream: TextIO, format: str, fields: Sequence[str]):
    """Yield (line_number, {field: value}) for CSV-with-header or JSONL input."""
    for line, values in _iter_values(stream, format, fields):
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

    `convert(value, line)` turns a raw value into an int (an enum position,
    a date ordinal, a count or an outlet code) or raises ParseError.
    """

    def __init__(self, convert: Callable[[object, int], int]):
        self.convert = convert
        self.index: dict = {}
        self.values: list[int] = []
        self.codes: list[np.ndarray] = []

    def add(self, keys: Sequence, raw: Sequence) -> tuple[int, str] | None:
        """Code one chunk; `raw[i]` is the value behind `keys[i]`.

        Returns None, or (chunk position, ParseError reason) for the first row
        whose value does not convert. New values are converted with line 0,
        before their row is known; the caller raises at that row's line.
        """
        index = self.index
        new = [key for key in dict.fromkeys(keys) if key not in index]
        if new:
            first = dict(zip(reversed(keys), reversed(raw))) if keys is not raw else None
            for key in new:
                try:
                    value = self.convert(key if first is None else first[key], 0)
                except ParseError as exc:
                    return keys.index(key), exc.reason
                index[key] = len(self.values)
                self.values.append(value)
        self.codes.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
        return None

    def column(self, dtype) -> np.ndarray:
        """The converted value of every row coded so far."""
        codes = np.concatenate(self.codes) if self.codes else np.zeros(0, np.int32)
        return np.asarray(self.values, dtype=dtype)[codes]


PLATFORMS = tuple(Platform)
_PLATFORM_INDEX = {p: i for i, p in enumerate(PLATFORMS)}
_PLATFORM_VALUES = tuple(p.value for p in PLATFORMS)
_NARRATIVE_VALUES = tuple(n.value for n in NARRATIVE_ORDER)
_EVENT_VALUES = tuple(e.value for e in EVENT_ORDER)
INT64_MAX = int(np.iinfo(np.int64).max)
# dtypes of the ArticleTable columns, in ARTICLE_FIELDS order
_COLUMN_DTYPES = (np.int32, np.int8, np.int32, np.int8, np.int8, np.int64)


def _interactions(value, line: int) -> int:
    count = _parse_int(value, "interactions", line)
    if count > INT64_MAX:
        raise ParseError(f"interactions must be <= {INT64_MAX}, got '{value}'", line)
    return count


def _int64_total(total: int) -> int:
    if total > INT64_MAX:
        raise ValueError(f"interactions total {total} exceeds {INT64_MAX}")
    return total


def _article_coders(ids: dict[str, int], date: Callable[[object, int], int]) -> tuple:
    """One _Coder per ARTICLE_FIELDS entry; `date` converts a date value.

    Outlet ids are coded by their string in `ids`; labels accept strings
    and enum members alike.
    """

    def label(cls, what: str, index: dict):
        return lambda value, line: index[_parse_enum(cls, value, what, line)]

    return (
        _Coder(lambda value, line: ids.setdefault(str(value), len(ids))),
        _Coder(label(Platform, "platform", _PLATFORM_INDEX)),
        _Coder(date),
        _Coder(label(Narrative, "narrative label", _NARRATIVE_INDEX)),
        _Coder(label(EventType, "event label", _EVENT_INDEX)),
        _Coder(_interactions),
    )


class ArticleTable(abc.Sequence):
    """Articles as coded numpy columns, one entry per article in input order.

    Article i was published by outlet_ids[outlet[i]] on platform
    PLATFORMS[platform[i]], on the day with proleptic Gregorian ordinal
    date[i], with narrative NARRATIVE_ORDER[narrative[i]] about an event of
    type EVENT_ORDER[event[i]], and drew interactions[i] (int64, >= 0)
    interactions. Outlet ids are distinct but may include ids no row uses.

    The table is a read-only Sequence of ArticleRecord: length, iteration and
    indexing build records on demand, and it compares equal to a list of the
    same records. `from_records` is the one conversion from records.
    """

    def __init__(self, outlet_ids, outlet, platform, date, narrative, event, interactions):
        self.outlet_ids = tuple(outlet_ids)
        if len(set(self.outlet_ids)) != len(self.outlet_ids):
            raise ValueError("duplicate outlet ids")
        columns = []
        for values, dtype in zip((outlet, platform, date, narrative, event, interactions),
                                 _COLUMN_DTYPES):
            column = np.asarray(values, dtype=dtype).view()  # the caller's array stays writable
            column.flags.writeable = False
            columns.append(column)
        if len({len(c) for c in columns}) > 1:
            raise ValueError("article columns differ in length")
        self.outlet, self.platform, self.date, self.narrative, self.event = columns[:5]
        self.interactions = columns[5]

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.outlet, self.platform, self.date, self.narrative, self.event,
                self.interactions)

    @classmethod
    def from_records(cls, records: Iterable[ArticleRecord]) -> ArticleTable:
        """The table of `records`, in order; a table is returned as is."""
        if isinstance(records, ArticleTable):
            return records
        records = records if isinstance(records, (list, tuple)) else list(records)
        ids: dict[str, int] = {}
        coders = _article_coders(ids, lambda value, line: value.toordinal())
        for coder, field in zip(coders, ARTICLE_FIELDS):
            column = list(map(operator.attrgetter(field), records))
            failed = coder.add(_record_keys(column), column)
            if failed is not None:
                raise ValueError(f"record {failed[0]}: {failed[1]}")
        return cls._from_coders(ids, coders)

    @classmethod
    def _from_coders(cls, ids: dict[str, int], coders: Sequence[_Coder]) -> ArticleTable:
        return cls(ids, *(c.column(t) for c, t in zip(coders, _COLUMN_DTYPES)))

    def take(self, rows) -> ArticleTable:
        """The articles selected by a boolean mask, index array or slice."""
        return ArticleTable(self.outlet_ids, *(c[rows] for c in self._columns()))

    def interaction_totals(self, groups: np.ndarray, n_groups: int) -> list[int]:
        """Exact interactions summed per group (`groups[i]` is row i's group).

        The totals are Python ints. Each int64 is split into four 16-bit
        digits whose float64 bincount sums are exact below 2**37 rows, so
        nothing wraps; a total above the int64 range raises ValueError.
        """
        totals = [0] * n_groups
        for shift in range(0, 64, 16):
            digits = (self.interactions >> shift) & 0xFFFF
            sums = np.bincount(groups, weights=digits, minlength=n_groups)
            totals = [t + (int(d) << shift) for t, d in zip(totals, sums.tolist())]
        return [_int64_total(total) for total in totals]

    def __len__(self) -> int:
        return len(self.outlet)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return ArticleRecord(
            self.outlet_ids[self.outlet[i]],
            PLATFORMS[self.platform[i]],
            datetime.date.fromordinal(int(self.date[i])),
            NARRATIVE_ORDER[self.narrative[i]],
            EVENT_ORDER[self.event[i]],
            int(self.interactions[i]),
        )

    def __iter__(self):
        ids = self.outlet_ids
        for o, p, d, n, e, i in zip(*(c.tolist() for c in self._columns())):
            yield ArticleRecord(ids[o], PLATFORMS[p], datetime.date.fromordinal(d),
                                NARRATIVE_ORDER[n], EVENT_ORDER[e], i)

    def __eq__(self, other):
        if not isinstance(other, abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ArticleTable({len(self)} articles, {len(self.outlet_ids)} outlet ids)"


# rows read and coded per pass: a pass's row lists are freed while still in
# the young garbage-collector generations, so full collections never rescan
# them (one pass over all 343k rows of a paper-scale file parsed 2-3x slower)
_CHUNK_ROWS = 1024


def parse_articles(stream: TextIO, format: str = "csv") -> ArticleTable:
    """Parse articles from CSV (with header) or JSONL into a table, order preserved.

    Every field is dict-coded as it is read and each distinct value is
    validated once (JSONL values by type and value). A bad input raises the
    ParseError a row-by-row parse would raise first: the earliest row, and in
    it the first field in ARTICLE_FIELDS order, with a bad value, unless a
    row before it is malformed.
    """
    ids: dict[str, int] = {}
    coders = _article_coders(
        ids, lambda value, line: _parse_date(value, "date", line).toordinal()
    )
    key = _json_key if format == "jsonl" else None
    rows = _iter_values(stream, format, ARTICLE_FIELDS)
    while True:
        lines, chunk, malformed = [], [], None
        try:
            for line, values in itertools.islice(rows, _CHUNK_ROWS):
                lines.append(line)
                chunk.append(values)
        except (ValueError, csv.Error) as exc:
            malformed = exc
        bad = None
        for coder, raw in zip(coders, zip(*chunk)):
            keys = raw if key is None else list(map(key, raw))
            failed = coder.add(keys, raw)
            if failed is not None and (bad is None or failed[0] < bad[0]):
                bad = failed
        if bad is not None:
            row, reason = bad
            raise ParseError(reason, lines[row])
        if malformed is not None:
            raise malformed
        if len(chunk) < _CHUNK_ROWS:
            break
    return ArticleTable._from_coders(ids, coders)


def parse_outlets(stream: TextIO, format: str = "csv") -> list[OutletProfile]:
    records = []
    for line, row in _iter_rows(stream, format, OUTLET_FIELDS):
        kind = row.get("kind") or None
        records.append(
            OutletProfile(
                outlet_id=str(row["outlet_id"]),
                name=str(row["name"]),
                reliability=_parse_enum(
                    Reliability, row["reliability"], "reliability label", line
                ),
                kind=_parse_enum(OutletKind, kind, "outlet kind", line) if kind else None,
            )
        )
    seen: dict[str, int] = {}
    for rec in records:
        seen[rec.outlet_id] = seen.get(rec.outlet_id, 0) + 1
    dupes = [oid for oid, n in seen.items() if n > 1]
    if dupes:
        raise ValueError(f"duplicate outlet_id in registry: {', '.join(sorted(dupes))}")
    return records


def parse_followers(stream: TextIO, format: str = "csv") -> list[FollowerRecord]:
    records = []
    for line, row in _iter_rows(stream, format, FOLLOWER_FIELDS):
        start = _parse_date(row["period_start"], "period_start", line)
        end = _parse_date(row["period_end"], "period_end", line)
        if start > end:
            raise ParseError(f"period_start {start} after period_end {end}", line)
        records.append(
            FollowerRecord(
                outlet_id=str(row["outlet_id"]),
                platform=_parse_enum(Platform, row["platform"], "platform", line),
                period_start=start,
                period_end=end,
                followers=_parse_int(row["followers"], "followers", line),
            )
        )
    return records


def parse_retweets(stream: TextIO, format: str = "csv") -> list[RetweetRecord]:
    """Parse retweet counts; duplicate (user, outlet) pairs are summed."""
    totals: dict[tuple[str, str], int] = {}
    for line, row in _iter_rows(stream, format, RETWEET_FIELDS):
        count = _parse_int(row["count"], "count", line, minimum=1)
        key = (str(row["user_id"]), str(row["outlet_id"]))
        totals[key] = totals.get(key, 0) + count
    return [RetweetRecord(u, o, c) for (u, o), c in totals.items()]


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
    rows = codes[table.outlet]
    if (rows < 0).any():
        oid = table.outlet_ids[table.outlet[np.argmax(rows < 0)]]
        raise ValueError(f"article references unregistered outlet '{oid}'")
    return rows


def aggregate_counts(
    articles: Iterable[ArticleRecord], registry: Sequence[OutletProfile]
) -> CountTensor:
    """Count articles into an N x 3 x 3 tensor, outlets ordered as in registry."""
    index: dict[str, int] = {}
    for profile in registry:
        if profile.outlet_id in index:
            raise ValueError(f"duplicate outlet_id in registry: '{profile.outlet_id}'")
        index[profile.outlet_id] = len(index)
    table = ArticleTable.from_records(articles)
    cells = (_registered(table, index) * 3 + table.narrative) * 3 + table.event
    counts = np.bincount(cells, minlength=9 * len(index)).reshape(len(index), 3, 3)
    return CountTensor(tuple(p.outlet_id for p in registry), counts.astype(np.int64, copy=False))


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
    articles: Sequence[ArticleRecord], registry: Sequence[OutletProfile]
) -> BreakdownTable:
    """Per-reliability-class source/content/interaction totals with shares.

    Source counts come from the registry; content and interaction totals from
    the articles. Percentages are raw (unrounded); round to one decimal only
    for display. An interaction total above the int64 range raises.
    """
    table = ArticleTable.from_records(articles)
    if not len(table):
        raise ValueError("no articles")
    classes = (Reliability.QUESTIONABLE, Reliability.RELIABLE)
    class_of = {p.outlet_id: classes.index(p.reliability) for p in registry}
    rows = _registered(table, class_of)
    sources = [0, 0]
    for profile in registry:
        sources[classes.index(profile.reliability)] += 1
    contents = np.bincount(rows, minlength=2).tolist()
    interactions = table.interaction_totals(rows, 2)
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


def format_flag(flag: bool) -> str:
    """How CSV artifacts spell a bool."""
    return "true" if flag else "false"


def write_csv(header: Sequence[str], rows: Iterable[Sequence], stream: TextIO) -> None:
    """Write one CSV artifact: a header row, then `rows`, RFC 4180-quoted.

    Values are spelled by the csv module: None as empty, numbers by str (the
    shortest round-trip repr for floats). Bools go through `format_flag` first.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_articles(records: Iterable[ArticleRecord], stream: TextIO) -> None:
    table = ArticleTable.from_records(records)
    days, day_codes = np.unique(table.date, return_inverse=True)
    day_text = [datetime.date.fromordinal(d).isoformat() for d in days.tolist()]

    def text(values: Sequence[str], codes: np.ndarray):
        return map(values.__getitem__, codes.tolist())

    write_csv(
        ARTICLE_FIELDS,
        zip(
            text(table.outlet_ids, table.outlet),
            text(_PLATFORM_VALUES, table.platform),
            text(day_text, day_codes),
            text(_NARRATIVE_VALUES, table.narrative),
            text(_EVENT_VALUES, table.event),
            table.interactions.tolist(),
        ),
        stream,
    )


def write_outlets(records: Iterable[OutletProfile], stream: TextIO) -> None:
    write_csv(
        OUTLET_FIELDS,
        (
            (r.outlet_id, r.name, r.reliability.value, r.kind.value if r.kind else "")
            for r in records
        ),
        stream,
    )


def write_followers(records: Iterable[FollowerRecord], stream: TextIO) -> None:
    write_csv(
        FOLLOWER_FIELDS,
        (
            (
                r.outlet_id,
                r.platform.value,
                r.period_start.isoformat(),
                r.period_end.isoformat(),
                r.followers,
            )
            for r in records
        ),
        stream,
    )


def write_retweets(records: Iterable[RetweetRecord], stream: TextIO) -> None:
    write_csv(RETWEET_FIELDS, ((r.user_id, r.outlet_id, r.count) for r in records), stream)


def write_count_tensor(tensor: CountTensor, stream: TextIO) -> None:
    """Serialize all N x 3 x 3 cells (zeros included) for exact round-trips."""
    write_csv(
        COUNT_FIELDS,
        (
            (outlet, narrative.value, event.value, int(tensor.counts[i, j, k]))
            for i, outlet in enumerate(tensor.outlets)
            for j, narrative in enumerate(NARRATIVE_ORDER)
            for k, event in enumerate(EVENT_ORDER)
        ),
        stream,
    )


def read_count_tensor(stream: TextIO) -> CountTensor:
    outlets: list[str] = []
    index: dict[str, int] = {}
    cells: list[tuple[int, int, int, int]] = []
    for line, row in _iter_rows(stream, "csv", COUNT_FIELDS):
        outlet = str(row["outlet_id"])
        if outlet not in index:
            index[outlet] = len(outlets)
            outlets.append(outlet)
        j = _NARRATIVE_INDEX[_parse_enum(Narrative, row["narrative"], "narrative label", line)]
        k = _EVENT_INDEX[_parse_enum(EventType, row["event"], "event label", line)]
        cells.append((index[outlet], j, k, _parse_int(row["count"], "count", line)))
    counts = np.zeros((len(outlets), 3, 3), dtype=np.int64)
    for i, j, k, c in cells:
        counts[i, j, k] = c
    return CountTensor(tuple(outlets), counts)
