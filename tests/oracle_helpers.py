"""Independent reference implementations used only to check the package.

Everything here recomputes results from first principles (dense arithmetic,
exhaustive enumeration, one record at a time) without calling the code under
test. The row-by-row parsers read rows with their own reader (`read_rows`:
csv.reader for CSV, json for JSONL), validate every value with their own
checks, one row at a time, and apply each table's own rule after the row's
fields. What they check is the package's block and row readers, its
columnar coding, its validation and its table rules.
"""

import csv
import datetime
import json
import math
from math import comb

import numpy as np

from newsbias import corpus, metrics
from newsbias.corpus import (
    EVENT_ORDER,
    INT64_MAX,
    NARRATIVE_ORDER,
    ArticleRecord,
    EventType,
    FollowerRecord,
    Narrative,
    OutletKind,
    OutletProfile,
    ParseError,
    Platform,
    Reliability,
    RetweetRecord,
)


def dense_modularity(nodes, edges, partition) -> float:
    """Weighted modularity by direct double loop over the adjacency matrix."""
    idx = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for (u, v), w in edges.items():
        A[idx[u], idx[v]] = A[idx[v], idx[u]] = w
    k = A.sum(axis=1)
    two_m = k.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if partition[nodes[i]] == partition[nodes[j]]:
                q += A[i, j] - k[i] * k[j] / two_m
    return q / two_m


def brute_force_best_partition(nodes, edges):
    """Exhaustive maximum-modularity partition via restricted growth strings."""
    nodes = list(nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    A = np.zeros((n, n))
    for (u, v), w in edges.items():
        A[idx[u], idx[v]] = A[idx[v], idx[u]] = w
    k = A.sum(axis=1)
    two_m = k.sum()
    best_q = -2.0
    best_assign = None
    assign = [0] * n

    def recurse(i, n_comm, intra, ksum):
        nonlocal best_q, best_assign
        if i == n:
            q = sum(
                2.0 * intra[c] / two_m - (ksum[c] / two_m) ** 2 for c in range(n_comm)
            )
            if q > best_q:
                best_q = q
                best_assign = assign.copy()
            return
        for c in range(n_comm + 1):
            add = sum(A[i, j] for j in range(i) if assign[j] == c)
            assign[i] = c
            if c == n_comm:
                intra.append(add)
                ksum.append(k[i])
                recurse(i + 1, n_comm + 1, intra, ksum)
                intra.pop()
                ksum.pop()
            else:
                intra[c] += add
                ksum[c] += k[i]
                recurse(i + 1, n_comm, intra, ksum)
                intra[c] -= add
                ksum[c] -= k[i]

    recurse(0, 0, [], [])
    return best_q, {nodes[i]: best_assign[i] for i in range(n)}


def adjusted_rand_index(labels_a: dict, labels_b: dict) -> float:
    """Pair-counting ARI between two labelings over the same keys."""
    keys = sorted(labels_a)
    assert sorted(labels_b) == keys
    n = len(keys)
    table: dict = {}
    count_a: dict = {}
    count_b: dict = {}
    for key in keys:
        pair = (labels_a[key], labels_b[key])
        table[pair] = table.get(pair, 0) + 1
        count_a[pair[0]] = count_a.get(pair[0], 0) + 1
        count_b[pair[1]] = count_b.get(pair[1], 0) + 1
    sum_nij = sum(comb(c, 2) for c in table.values())
    sum_a = sum(comb(c, 2) for c in count_a.values())
    sum_b = sum(comb(c, 2) for c in count_b.values())
    expected = sum_a * sum_b / comb(n, 2)
    max_index = (sum_a + sum_b) / 2.0
    return (sum_nij - expected) / (max_index - expected)


def read_rows(stream, format, fields, optional=()):
    """Yield (line number, {field: value}) for each row of CSV with a header
    row equal to `fields`, or of JSONL, one row at a time. Blank lines are
    skipped; a JSONL object may omit only the `optional` fields (read as
    None). A bad row raises the ParseError the package's readers raise."""
    if format == "jsonl":
        for line, raw in enumerate(stream, start=1):
            if raw.strip():
                yield line, _json_row(raw, fields, optional, line)
        return
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is not None and header != list(fields):
            raise ParseError(f"bad header {header!r}, expected {','.join(fields)}", 1)
        for row in reader:
            if not row:
                continue
            if len(row) != len(fields):
                raise ParseError(
                    f"malformed row: expected {len(fields)} fields, got {len(row)}",
                    reader.line_num)
            yield reader.line_num, dict(zip(fields, row))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None


def _json_row(raw, fields, optional, line):
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError:
        raise ParseError("malformed JSON object", line) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line)
    missing = [key for key in fields if key not in obj and key not in optional]
    if missing:
        raise ParseError(f"missing field '{missing[0]}'", line)
    extra = [key for key in obj if key not in fields]
    if extra:
        raise ParseError(f"unexpected field '{extra[0]}'", line)
    return {key: obj.get(key) for key in fields}


def _enum(cls, value, what, line):
    try:
        return cls(value)
    except ValueError:
        raise ParseError(f"unknown {what} '{value}'", line) from None


def _date(value, what, line):
    """A date spelled exactly YYYY-MM-DD, in ASCII digits."""
    try:
        digits = value[:4] + value[5:7] + value[8:]
        if not (len(value) == 10 and value[4] + value[7] == "--"
                and digits.isascii() and digits.isdigit()):
            raise ValueError
        return datetime.date(int(value[:4]), int(value[5:7]), int(value[8:]))
    except (TypeError, ValueError):
        raise ParseError(f"malformed {what} '{value}'", line) from None


def _id(value, what, line):
    """An id of characters XML 1.0 allows: TAB, LF, CR and U+0020 on, less the
    surrogates, U+FFFE and U+FFFF."""
    if value is None:
        raise ParseError(f"null {what}", line)
    text = str(value)
    for char in text:
        if ((char < " " and char not in "\t\n\r") or "\ud800" <= char <= "\udfff"
                or char in "\ufffe\uffff"):
            raise ParseError(f"{what} {text!r} holds a character XML cannot carry", line)
    return text


def _int(value, what, line, minimum=0):
    if isinstance(value, bool):
        raise ParseError(f"invalid {what} '{value}'", line)
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"invalid {what} '{value}'", line) from None
    if isinstance(value, str) and str(out) != value:
        raise ParseError(f"invalid {what} '{value}'", line)
    if isinstance(value, float) and value != out:
        raise ParseError(f"invalid {what} '{value}'", line)
    if out < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got '{value}'", line)
    if out > INT64_MAX:
        raise ParseError(f"{what} must be <= {INT64_MAX}, got '{value}'", line)
    return out


def parse_articles_by_row(stream, format="csv") -> list[ArticleRecord]:
    """Article records parsed one row at a time, in input order."""
    records = []
    for line, row in read_rows(stream, format, corpus.ARTICLE_FIELDS):
        records.append(
            ArticleRecord(
                outlet_id=_id(row["outlet_id"], "outlet_id", line),
                platform=_enum(Platform, row["platform"], "platform", line),
                date=_date(row["date"], "date", line),
                narrative=_enum(Narrative, row["narrative"], "narrative label", line),
                event=_enum(EventType, row["event"], "event label", line),
                interactions=_int(row["interactions"], "interactions", line),
            )
        )
    return records


def parse_outlets_by_row(stream, format="csv") -> list[OutletProfile]:
    """The registry one row at a time; a repeated outlet_id fails at its row."""
    records, seen = [], set()
    for line, row in read_rows(stream, format, corpus.OUTLET_FIELDS, ("kind",)):
        kind = None if row["kind"] in (None, "") else row["kind"]
        record = OutletProfile(
            outlet_id=_id(row["outlet_id"], "outlet_id", line),
            name=_id(row["name"], "name", line),
            reliability=_enum(Reliability, row["reliability"], "reliability label", line),
            kind=kind if kind is None else _enum(OutletKind, kind, "outlet kind", line),
        )
        if record.outlet_id in seen:
            raise ParseError(f"duplicate outlet_id '{record.outlet_id}'", line)
        seen.add(record.outlet_id)
        records.append(record)
    return records


def parse_followers_by_row(stream, format="csv") -> list[FollowerRecord]:
    """Follower records one row at a time; the period check comes last."""
    records = []
    for line, row in read_rows(stream, format, corpus.FOLLOWER_FIELDS):
        outlet_id = _id(row["outlet_id"], "outlet_id", line)
        platform = _enum(Platform, row["platform"], "platform", line)
        start = _date(row["period_start"], "period_start", line)
        end = _date(row["period_end"], "period_end", line)
        followers = _int(row["followers"], "followers", line)
        if start > end:
            raise ParseError(f"period_start {start} after period_end {end}", line)
        records.append(FollowerRecord(outlet_id, platform, start, end, followers))
    return records


def parse_retweets_by_row(stream, format="csv") -> list[RetweetRecord]:
    """Retweet counts one row at a time, each (user, outlet) pair summed into
    its first row; a running total beyond int64 fails at its row."""
    totals = {}
    for line, row in read_rows(stream, format, corpus.RETWEET_FIELDS):
        key = (_id(row["user_id"], "user_id", line), _id(row["outlet_id"], "outlet_id", line))
        totals[key] = totals.get(key, 0) + _int(row["count"], "count", line, minimum=1)
        if totals[key] > INT64_MAX:
            raise ParseError(
                f"count total {totals[key]} of user '{key[0]}' and outlet '{key[1]}' "
                f"exceeds {INT64_MAX}",
                line,
            )
    return [RetweetRecord(u, o, c) for (u, o), c in totals.items()]


def read_count_tensor_by_row(stream) -> corpus.CountTensor:
    """A counts.csv tensor one row at a time; a repeated cell fails at its row."""
    index, cells = {}, {}
    for line, row in read_rows(stream, "csv", corpus.COUNT_FIELDS):
        outlet = _id(row["outlet_id"], "outlet_id", line)
        narrative = _enum(Narrative, row["narrative"], "narrative label", line)
        event = _enum(EventType, row["event"], "event label", line)
        count = _int(row["count"], "count", line)
        cell = (index.setdefault(outlet, len(index)), NARRATIVE_ORDER.index(narrative),
                EVENT_ORDER.index(event))
        if cell in cells:
            raise ParseError(
                f"duplicate cell ('{outlet}', '{narrative.value}', '{event.value}')", line
            )
        cells[cell] = count
    counts = np.zeros((len(index), 3, 3), dtype=np.int64)
    for (i, j, k), count in cells.items():
        counts[i, j, k] = count
    return corpus.CountTensor(tuple(index), counts)


def aggregate_counts_by_row(articles, registry) -> corpus.CountTensor:
    """Outlet x narrative x event counts, one article at a time."""
    index = {p.outlet_id: i for i, p in enumerate(registry)}
    counts = np.zeros((len(index), 3, 3), dtype=np.int64)
    for article in articles:
        i = index.get(article.outlet_id)
        if i is None:
            raise ValueError(
                f"article references unregistered outlet '{article.outlet_id}'"
            )
        j = NARRATIVE_ORDER.index(article.narrative)
        k = EVENT_ORDER.index(article.event)
        counts[i, j, k] += 1
    return corpus.CountTensor(tuple(p.outlet_id for p in registry), counts)


def dataset_breakdown_by_row(articles, registry) -> corpus.BreakdownTable:
    """Per-reliability-class totals and shares, one article at a time."""
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

    def row(category, cls):
        if cls is None:
            s, c, i = tot_sources, tot_contents, tot_interactions
        else:
            s, c, i = sources[cls], contents[cls], interactions[cls]
        return corpus.BreakdownRow(
            category=category,
            sources=s,
            contents=c,
            interactions=i,
            sources_pct=100.0 * s / tot_sources if tot_sources else 0.0,
            contents_pct=100.0 * c / tot_contents,
            interactions_pct=100.0 * i / tot_interactions if tot_interactions else 0.0,
        )

    return corpus.BreakdownTable(
        questionable=row("questionable", Reliability.QUESTIONABLE),
        reliable=row("reliable", Reliability.RELIABLE),
        total=row("total", None),
    )


def average_followers_by_row(records, window, duration_weighted=False):
    """Mean follower count per outlet over records overlapping the window,
    summed one record at a time."""
    start, end = window
    sums, weights = {}, {}
    for rec in records:
        if rec.period_start > end or rec.period_end < start:
            continue
        w = float((min(rec.period_end, end) - max(rec.period_start, start)).days + 1
                  if duration_weighted else 1)
        sums[rec.outlet_id] = sums.get(rec.outlet_id, 0.0) + w * rec.followers
        weights[rec.outlet_id] = weights.get(rec.outlet_id, 0.0) + w
    return {oid: sums[oid] / weights[oid] for oid in sums}


def build_engagement_table_by_row(articles, follower_records, window=None,
                                  duration_weighted=False):
    """Per (outlet, event type) adjusted engagement, one article at a time."""
    if not articles:
        return []
    if window is None:
        dates = [a.date for a in articles]
        window = (min(dates), max(dates))
    kept = [a for a in articles if window[0] <= a.date <= window[1]]
    followers = average_followers_by_row(follower_records, window, duration_weighted)
    contents, interactions = {}, {}
    for a in kept:
        key = (a.outlet_id, a.event)
        contents[key] = contents.get(key, 0) + 1
        interactions[key] = interactions.get(key, 0) + a.interactions
    rows = []
    for oid in sorted({oid for oid, _ in contents}):
        f = followers.get(oid)
        if f is None or f <= 0:
            continue
        for event in EVENT_ORDER:
            key = (oid, event)
            if key not in contents:
                continue
            c, i = contents[key], interactions[key]
            rows.append(metrics.EngagementRecord(
                outlet_id=oid, event_type=event, contents=c, interactions=i, followers=f,
                engagement=metrics.adjusted_engagement(i, c, f),
            ))
    return rows


def build_bias_table_by_row(posterior, reliability, theta=math.pi / 4):
    """One BiasRow per outlet with both means of every event type, sorted by
    id, joined one posterior row and then one outlet at a time."""
    means = {(outlet, event, param): mean for outlet, event, param, mean, *_ in posterior}
    fits = {event: {} for event in EVENT_ORDER}
    for outlet, event, param in means:
        if param == "alpha" and (outlet, event, "x") in means:
            fits[event][outlet] = (means[outlet, event, "alpha"], means[outlet, event, "x"])
    for event in EVENT_ORDER:
        if not fits[event]:
            raise corpus.InputError(f"posterior.csv has no rows for event type '{event.value}'")
    adv, neu, pos = (fits[e] for e in EVENT_ORDER)
    rows = []
    for outlet in sorted(set(adv) & set(neu) & set(pos)):
        (pf_adv, x_adv), (pf_neu, x_neu), (pf_pos, x_pos) = adv[outlet], neu[outlet], pos[outlet]
        rows.append(metrics.BiasRow(
            outlet_id=outlet, reliability=reliability.get(outlet),
            x_adv=x_adv, x_neu=x_neu, x_pos=x_pos, pf_adv=pf_adv, pf_neu=pf_neu, pf_pos=pf_pos,
            selection_index=abs(math.sin(theta) * pf_adv - math.cos(theta) * pf_pos),
            adverse_lean=pf_adv > pf_pos,
        ))
    return rows
