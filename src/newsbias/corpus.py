"""Canonical records for the labeled news corpus and their file formats.

Everything here is pure: parsers read a character stream and return record
lists, aggregation folds records into an outlet x narrative x event count
tensor, and nothing mutates its inputs.
"""

from __future__ import annotations

import csv
import datetime
import json
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, TextIO

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
    """Bad input row; message carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
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
    except (TypeError, ValueError):
        raise ParseError(f"invalid {what} '{value}'", line) from None
    if isinstance(value, str) and str(out) != value.strip():
        raise ParseError(f"invalid {what} '{value}'", line)
    if isinstance(value, float) and value != out:
        raise ParseError(f"invalid {what} '{value}'", line)
    if out < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got '{value}'", line)
    return out


def _iter_rows(stream: TextIO, format: str, fields: Sequence[str]):
    """Yield (line_number, row_dict) for CSV-with-header or JSONL input."""
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
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(fields):
                raise ParseError(
                    f"malformed row: expected {len(fields)} fields, got {len(row)}",
                    line,
                )
            yield line, dict(zip(fields, row))
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
            yield line, obj
    else:
        raise ValueError(f"unknown format '{format}', expected 'csv' or 'jsonl'")


def parse_articles(stream: TextIO, format: str = "csv") -> list[ArticleRecord]:
    """Parse article records from CSV (with header) or JSONL, order preserved."""
    records = []
    for line, row in _iter_rows(stream, format, ARTICLE_FIELDS):
        records.append(
            ArticleRecord(
                outlet_id=str(row["outlet_id"]),
                platform=_parse_enum(Platform, row["platform"], "platform", line),
                date=_parse_date(row["date"], "date", line),
                narrative=_parse_enum(
                    Narrative, row["narrative"], "narrative label", line
                ),
                event=_parse_enum(EventType, row["event"], "event label", line),
                interactions=_parse_int(row["interactions"], "interactions", line),
            )
        )
    return records


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
) -> list[ArticleRecord]:
    """Keep articles inside the inclusive [date_from, date_to] window."""
    return [
        a
        for a in articles
        if (date_from is None or a.date >= date_from)
        and (date_to is None or a.date <= date_to)
    ]


def aggregate_counts(
    articles: Iterable[ArticleRecord], registry: Sequence[OutletProfile]
) -> CountTensor:
    """Count articles into an N x 3 x 3 tensor, outlets ordered as in registry."""
    index: dict[str, int] = {}
    for profile in registry:
        if profile.outlet_id in index:
            raise ValueError(f"duplicate outlet_id in registry: '{profile.outlet_id}'")
        index[profile.outlet_id] = len(index)
    counts = np.zeros((len(index), 3, 3), dtype=np.int64)
    for article in articles:
        i = index.get(article.outlet_id)
        if i is None:
            raise ValueError(
                f"article references unregistered outlet '{article.outlet_id}'"
            )
        counts[i, _NARRATIVE_INDEX[article.narrative], _EVENT_INDEX[article.event]] += 1
    return CountTensor(tuple(p.outlet_id for p in registry), counts)


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
    for display.
    """
    if not articles:
        raise ValueError("no articles")
    reliability = {p.outlet_id: p.reliability for p in registry}
    sources = {Reliability.QUESTIONABLE: 0, Reliability.RELIABLE: 0}
    contents = {Reliability.QUESTIONABLE: 0, Reliability.RELIABLE: 0}
    interactions = {Reliability.QUESTIONABLE: 0, Reliability.RELIABLE: 0}
    for profile in registry:
        sources[profile.reliability] += 1
    for article in articles:
        cls = reliability.get(article.outlet_id)
        if cls is None:
            raise ValueError(
                f"article references unregistered outlet '{article.outlet_id}'"
            )
        contents[cls] += 1
        interactions[cls] += article.interactions
    tot_sources = sum(sources.values())
    tot_contents = sum(contents.values())
    tot_interactions = sum(interactions.values())

    def row(category: str, cls: Reliability | None) -> BreakdownRow:
        if cls is None:
            s, c, i = tot_sources, tot_contents, tot_interactions
        else:
            s, c, i = sources[cls], contents[cls], interactions[cls]
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
        questionable=row("questionable", Reliability.QUESTIONABLE),
        reliable=row("reliable", Reliability.RELIABLE),
        total=row("total", None),
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
    write_csv(
        ARTICLE_FIELDS,
        (
            (
                r.outlet_id,
                r.platform.value,
                r.date.isoformat(),
                r.narrative.value,
                r.event.value,
                r.interactions,
            )
            for r in records
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
