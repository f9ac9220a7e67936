import csv
import dataclasses
import datetime
import enum
import io
import itertools
import json
import math
import pickle
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_helpers
from newsbias import corpus, latent, metrics, network, synth
from newsbias.corpus import (
    EVENT_ORDER,
    NARRATIVE_ORDER,
    ArticleRecord,
    EventType,
    FollowerRecord,
    Narrative,
    OutletProfile,
    ParseError,
    Platform,
    Reliability,
)

ARTICLE_HEADER = "outlet_id,platform,date,narrative,event,interactions\n"


def make_article(outlet="o1", narrative=Narrative.PRO, event=EventType.POSITIVE,
                 interactions=0, day=1):
    return ArticleRecord(
        outlet_id=outlet,
        platform=Platform.TWITTER,
        date=datetime.date(2021, 3, day),
        narrative=narrative,
        event=event,
        interactions=interactions,
    )


def make_registry(*outlet_ids, reliability=Reliability.RELIABLE):
    return [OutletProfile(oid, oid.upper(), reliability) for oid in outlet_ids]


class TestParseArticles:
    def test_direct_field_mapping(self):
        stream = io.StringIO(ARTICLE_HEADER + "o1,twitter,2021-03-01,anti,adverse,12\n")
        records = corpus.parse_articles(stream, "csv")
        assert records == [
            ArticleRecord(
                "o1",
                Platform.TWITTER,
                datetime.date(2021, 3, 1),
                Narrative.ANTI,
                EventType.ADVERSE,
                12,
            )
        ]

    def test_empty_stream(self):
        assert corpus.parse_articles(io.StringIO(""), "csv") == []
        assert corpus.parse_articles(io.StringIO(""), "jsonl") == []

    def test_unknown_narrative_label_names_value_and_line(self):
        stream = io.StringIO(
            ARTICLE_HEADER
            + "o1,twitter,2021-03-01,anti,adverse,12\n"
            + "o1,twitter,2021-03-02,provax,adverse,1\n"
        )
        with pytest.raises(ParseError, match=r"unknown narrative label 'provax' at line 3"):
            corpus.parse_articles(stream, "csv")

    def test_unknown_platform_rejected(self):
        stream = io.StringIO(ARTICLE_HEADER + "o1,myspace,2021-03-01,anti,adverse,1\n")
        with pytest.raises(ParseError, match=r"unknown platform 'myspace' at line 2"):
            corpus.parse_articles(stream, "csv")

    def test_malformed_row_names_line(self):
        stream = io.StringIO(ARTICLE_HEADER + "o1,twitter,2021-03-01,anti,adverse\n")
        with pytest.raises(ParseError, match=r"expected 6 fields, got 5 at line 2"):
            corpus.parse_articles(stream, "csv")

    def test_bad_date_and_negative_interactions(self):
        bad_date = io.StringIO(ARTICLE_HEADER + "o1,twitter,03/01/2021,anti,adverse,1\n")
        with pytest.raises(ParseError, match="malformed date"):
            corpus.parse_articles(bad_date, "csv")
        negative = io.StringIO(ARTICLE_HEADER + "o1,twitter,2021-03-01,anti,adverse,-2\n")
        with pytest.raises(ParseError, match="interactions"):
            corpus.parse_articles(negative, "csv")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="bad header"):
            corpus.parse_articles(io.StringIO("outlet,platform\n"), "csv")

    def test_jsonl_round(self):
        line = (
            '{"outlet_id": "o2", "platform": "youtube", "date": "2020-12-31",'
            ' "narrative": "neutral", "event": "positive", "interactions": 7}\n'
        )
        records = corpus.parse_articles(io.StringIO(line), "jsonl")
        assert records[0].platform is Platform.YOUTUBE
        assert records[0].interactions == 7

    def test_jsonl_missing_and_unexpected_fields(self):
        with pytest.raises(ParseError, match="missing field 'event'"):
            corpus.parse_articles(
                io.StringIO('{"outlet_id": "o", "platform": "twitter", "date": "2020-01-01", "narrative": "pro", "interactions": 0}\n'),
                "jsonl",
            )
        with pytest.raises(ParseError, match="unexpected field 'extra'"):
            corpus.parse_articles(
                io.StringIO('{"outlet_id": "o", "platform": "twitter", "date": "2020-01-01", "narrative": "pro", "event": "positive", "interactions": 0, "extra": 1}\n'),
                "jsonl",
            )

    def test_jsonl_bool_interactions_rejected(self):
        with pytest.raises(ParseError, match="invalid interactions"):
            corpus.parse_articles(
                io.StringIO('{"outlet_id": "o", "platform": "twitter", "date": "2020-01-01", "narrative": "pro", "event": "positive", "interactions": true}\n'),
                "jsonl",
            )

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            corpus.parse_articles(io.StringIO(""), "xml")

    def test_row_order_preserved(self):
        rows = "".join(
            f"o{i},twitter,2021-01-0{i},pro,positive,{i}\n" for i in range(1, 6)
        )
        records = corpus.parse_articles(io.StringIO(ARTICLE_HEADER + rows), "csv")
        assert [r.outlet_id for r in records] == [f"o{i}" for i in range(1, 6)]


class TestParseRetweets:
    def test_duplicates_summed(self):
        stream = io.StringIO("user_id,outlet_id,count\nu1,o1,2\nu1,o1,3\n")
        records = corpus.parse_retweets(stream, "csv")
        assert len(records) == 1
        assert records[0].count == 5

    def test_empty(self):
        assert corpus.parse_retweets(io.StringIO(""), "csv") == []

    def test_total_preserved_under_dedup(self):
        rng = np.random.default_rng(0)
        rows = [
            (f"u{rng.integers(3)}", f"o{rng.integers(2)}", int(rng.integers(1, 9)))
            for _ in range(10)
        ]
        text = "user_id,outlet_id,count\n" + "".join(
            f"{u},{o},{c}\n" for u, o, c in rows
        )
        records = corpus.parse_retweets(io.StringIO(text), "csv")
        # independent tally
        expected = Counter()
        for u, o, c in rows:
            expected[(u, o)] += c
        assert sum(r.count for r in records) == sum(c for _, _, c in rows)
        assert {(r.user_id, r.outlet_id): r.count for r in records} == dict(expected)

    def test_zero_count_rejected(self):
        with pytest.raises(ParseError, match="count must be >= 1"):
            corpus.parse_retweets(io.StringIO("user_id,outlet_id,count\nu,o,0\n"), "csv")

    def test_written_records_are_summed_by_the_rule(self):
        records = [corpus.RetweetRecord("u1", "o1", 2), corpus.RetweetRecord("u2", "o1", 1),
                   corpus.RetweetRecord("u1", "o1", 3)]
        buf = io.StringIO()
        corpus.write_retweets(records, buf)
        assert buf.getvalue() == "user_id,outlet_id,count\nu1,o1,5\nu2,o1,1\n"


class TestParseOutletsFollowers:
    def test_outlets(self):
        text = "outlet_id,name,reliability,kind\no1,Daily One,reliable,newspaper\no2,Chan,questionable,\n"
        records = corpus.parse_outlets(io.StringIO(text), "csv")
        assert records[0].kind is corpus.OutletKind.NEWSPAPER
        assert records[1].kind is None
        assert records[1].reliability is Reliability.QUESTIONABLE

    def test_duplicate_outlet_rejected(self):
        text = "outlet_id,name,reliability,kind\no1,A,reliable,\no1,B,reliable,\n"
        with pytest.raises(ParseError, match="duplicate outlet_id 'o1' at line 3"):
            corpus.parse_outlets(io.StringIO(text), "csv")

    def test_duplicate_count_cell_rejected(self):
        text = "outlet_id,narrative,event,count\no1,anti,adverse,6\no1,pro,adverse,2\n"
        with pytest.raises(ParseError, match=r"duplicate cell \('o1', 'anti', 'adverse'\) at line 4"):
            corpus.read_count_tensor(io.StringIO(text + "o1,anti,adverse,999999\n"))

    def test_first_fault_in_field_order_with_the_period_last(self):
        header = "outlet_id,platform,period_start,period_end,followers\n"
        for row, message in (
            ("o1,myspace,2020-06-30,2020-01-01,10", "unknown platform 'myspace'"),
            ("o1,facebook,2020-06-30,2020-01-01,-1", "followers must be >= 0, got '-1'"),
            ("o1,facebook,2020-06-30,2020-01-01,10", "period_start 2020-06-30 after period_end"),
        ):
            with pytest.raises(ParseError, match=f"{message}.* at line 2"):
                corpus.parse_followers(io.StringIO(header + row + "\n"), "csv")

    def test_rule_fault_before_a_later_bad_value_wins(self, monkeypatch):
        # the bad value lies chunks and blocks after the rule fault
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 256)
        rows = "u1,o1,9223372036854775807\nu1,o1,1\n" + "u2,o1,1\n" * 3 * corpus._CHUNK_ROWS
        text = "user_id,outlet_id,count\n" + rows + "u2,o1,0\n"
        with pytest.raises(ParseError, match=r"count total 9223372036854775808 .* at line 3$"):
            corpus.parse_retweets(io.StringIO(text), "csv")
        outlets = "outlet_id,name,reliability,kind\no1,A,reliable,\no1,B,reliable,\no2\n"
        with pytest.raises(ParseError, match="duplicate outlet_id 'o1' at line 3"):
            corpus.parse_outlets(io.StringIO(outlets), "csv")

    def test_followers(self):
        text = (
            "outlet_id,platform,period_start,period_end,followers\n"
            "o1,facebook,2020-01-01,2020-06-30,1000\n"
        )
        rec = corpus.parse_followers(io.StringIO(text), "csv")[0]
        assert rec.followers == 1000
        bad = (
            "outlet_id,platform,period_start,period_end,followers\n"
            "o1,facebook,2020-06-30,2020-01-01,1000\n"
        )
        with pytest.raises(ParseError, match="period_start"):
            corpus.parse_followers(io.StringIO(bad), "csv")


class TestAggregateCounts:
    def test_single_cell(self):
        articles = [make_article() for _ in range(3)]
        tensor = corpus.aggregate_counts(articles, make_registry("o1"))
        expected = np.zeros((1, 3, 3), dtype=np.int64)
        expected[0, 2, 2] = 3  # pro narrative, positive event
        assert (tensor.counts == expected).all()

    def test_two_outlets(self):
        articles = [make_article("o1"), make_article("o2")]
        tensor = corpus.aggregate_counts(articles, make_registry("o1", "o2"))
        assert tensor.total == 2
        assert (tensor.counts.sum(axis=(1, 2)) == [1, 1]).all()

    def test_random_corpus_matches_independent_tally(self):
        rng = np.random.default_rng(42)
        registry = make_registry(*(f"o{i}" for i in range(5)))
        articles = [
            make_article(
                outlet=f"o{rng.integers(5)}",
                narrative=NARRATIVE_ORDER[rng.integers(3)],
                event=EVENT_ORDER[rng.integers(3)],
            )
            for _ in range(1000)
        ]
        tensor = corpus.aggregate_counts(articles, registry)
        assert tensor.total == 1000
        tally = Counter((a.outlet_id, a.narrative, a.event) for a in articles)
        for i, outlet in enumerate(tensor.outlets):
            for j, narrative in enumerate(NARRATIVE_ORDER):
                for k, event in enumerate(EVENT_ORDER):
                    assert tensor.counts[i, j, k] == tally[(outlet, narrative, event)]

    def test_unregistered_outlet(self):
        with pytest.raises(ValueError, match="unregistered outlet 'ghost'"):
            corpus.aggregate_counts([make_article("ghost")], make_registry("o1"))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        registry = make_registry("a", "b", "c")
        articles = [
            make_article(
                outlet=["a", "b", "c"][rng.integers(3)],
                narrative=NARRATIVE_ORDER[rng.integers(3)],
                event=EVENT_ORDER[rng.integers(3)],
            )
            for _ in range(60)
        ]
        tensor = corpus.aggregate_counts(articles, registry)
        permuted = corpus.aggregate_counts(articles, registry[::-1])
        assert permuted.outlets == tuple(reversed(tensor.outlets))
        assert (permuted.counts == tensor.counts[::-1]).all()

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
            max_size=200,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_conservation_property(self, triples):
        registry = make_registry(*(f"o{i}" for i in range(4)))
        articles = [
            make_article(
                outlet=f"o{i}",
                narrative=NARRATIVE_ORDER[j],
                event=EVENT_ORDER[k],
            )
            for i, j, k in triples
        ]
        tensor = corpus.aggregate_counts(articles, registry)
        assert tensor.total == len(articles)


class TestBreakdown:
    def test_single_reliable_outlet(self):
        articles = [make_article(interactions=i) for i in range(5)]
        table = corpus.dataset_breakdown(articles, make_registry("o1"))
        assert table.reliable.sources == 1
        assert table.reliable.contents == 5
        assert table.reliable.interactions == 10
        assert table.reliable.contents_pct == 100.0
        assert table.questionable.sources == 0
        assert table.questionable.contents == 0

    def test_no_articles(self):
        with pytest.raises(ValueError, match="no articles"):
            corpus.dataset_breakdown([], make_registry("o1"))

    def test_duplicate_registry_record_raises_everywhere(self):
        registry = make_registry("o1", "o2", "o1")
        for consume in (corpus.aggregate_counts, corpus.dataset_breakdown):
            with pytest.raises(ValueError, match=r"^record 2: duplicate outlet_id 'o1'$"):
                consume([make_article("o1")], registry)
        with pytest.raises(ValueError, match=r"^record 2: duplicate outlet_id 'o1'$"):
            corpus.write_outlets(registry, io.StringIO())

    def test_display_rounding_of_published_shares(self):
        # 44,547 of 353,530 contents -> 12.6%; 161 of 682 sources -> 23.6%
        assert f"{100 * 44547 / 353530:.1f}" == "12.6"
        assert f"{100 * 161 / 682:.1f}" == "23.6"


class TestFilterAndRoundTrips:
    def test_filter_window(self):
        articles = [make_article(day=d) for d in (1, 10, 20)]
        kept = corpus.filter_articles(
            articles, datetime.date(2021, 3, 5), datetime.date(2021, 3, 15)
        )
        assert [a.date.day for a in kept] == [10]
        assert corpus.filter_articles(articles) == articles

    def test_tensor_csv_round_trip(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 50, size=(4, 3, 3))
        tensor = corpus.CountTensor(tuple(f"o{i}" for i in range(4)), counts)
        buf = io.StringIO()
        corpus.write_count_tensor(tensor, buf)
        buf.seek(0)
        back = corpus.read_count_tensor(buf)
        assert back.outlets == tensor.outlets
        assert (back.counts == tensor.counts).all()

    def test_article_csv_round_trip(self):
        articles = [
            make_article("o1", Narrative.ANTI, EventType.NEUTRAL, 3, day=2),
            make_article("o2", Narrative.NEUTRAL, EventType.ADVERSE, 0, day=9),
        ]
        buf = io.StringIO()
        corpus.write_articles(articles, buf)
        buf.seek(0)
        assert corpus.parse_articles(buf, "csv") == articles

    def test_follower_csv_round_trip(self):
        records = [
            FollowerRecord(
                "o1",
                Platform.FACEBOOK,
                datetime.date(2020, 1, 1),
                datetime.date(2020, 12, 31),
                12345,
            )
        ]
        buf = io.StringIO()
        corpus.write_followers(records, buf)
        buf.seek(0)
        assert corpus.parse_followers(buf, "csv") == records


# each record name, where it is defined, its table, and the fields that default to None
RECORDS = [
    (corpus, "ArticleRecord", corpus.ArticleTable, ()),
    (corpus, "OutletProfile", corpus.OutletTable, ("kind",)),
    (corpus, "FollowerRecord", corpus.FollowerTable, ()),
    (corpus, "RetweetRecord", corpus.RetweetTable, ()),
    (metrics, "BiasRow", metrics.BiasTable, ()),
    (metrics, "EngagementRecord", metrics.EngagementTable, ()),
    (network, "ClusterStatsRow", network.ClusterStatsTable,
     ("frac_questionable", "mean_x_adv", "mean_x_pos", "mean_selection", "frac_adverse_lean")),
]


class TestRecordInvariants:
    @pytest.mark.parametrize("module, name, table, defaults", RECORDS,
                             ids=[name for _, name, _, _ in RECORDS])
    def test_record_is_built_from_its_table(self, module, name, table, defaults):
        record = getattr(module, name)
        assert record is table.record
        assert (record.__module__, record.__qualname__) == (module.__name__, name)
        assert [f.name for f in dataclasses.fields(record)] == [f.name for f in table.fields]
        assert [f.name for f in dataclasses.fields(record) if f.default is None] == list(defaults)
        values = [column[0] for column in sample_columns(table, ("o1",))]
        row = record(*values)
        assert pickle.loads(pickle.dumps(row)) == row
        assert table.from_records([row]) == [row]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, table.fields[0].name, values[0])
        short = record(*values[: len(values) - len(defaults)])
        assert [getattr(short, field) for field in defaults] == [None] * len(defaults)

    def test_tensor_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            corpus.CountTensor(("o1",), np.zeros((2, 3, 3), dtype=int))
        with pytest.raises(ValueError, match=">= 0"):
            corpus.CountTensor(("o1",), np.full((1, 3, 3), -1))


# outlet ids that need quoting, span lines or read back as other JSON types
CSV_OUTLETS = ("o1", "o2", "a,b", 'say "hi"', "two\nlines", "", " pad ", "1")
JSON_OUTLETS = ("o1", "a,b", 'say "hi"', "1", 1, 1.0, True, "True", 0.0, -0.0)
FAULTS = ("enum", "date", "noncanonical", "negative", "bool", "fields", "json")
# JSON values no id or label field reads: a null id, a false-like label
JSON_FALSY = (False, 0, [], {})


def random_values(rng, outlets):
    day = datetime.date(2020, 1, 1) + datetime.timedelta(days=int(rng.integers(0, 731)))
    return [
        outlets[rng.integers(len(outlets))],
        corpus.PLATFORMS[rng.integers(4)].value,
        day.isoformat(),
        NARRATIVE_ORDER[rng.integers(3)].value,
        EVENT_ORDER[rng.integers(3)].value,
        int(rng.integers(0, 50)) if rng.random() < 0.8 else int(rng.integers(0, 2**62)),
    ]


def inject(rng, rows, fmt):
    """Put at most two faults at random rows and fields."""
    for _ in range(rng.integers(0, 3)):
        if not rows:
            break
        values = rows[rng.integers(len(rows))]
        fault = FAULTS[rng.integers(len(FAULTS))]
        if len(values) != 6:
            continue
        if fault == "enum":
            values[(1, 3, 4)[rng.integers(3)]] = ("bogus", "PRO", "", "Twitter")[rng.integers(4)]
        elif fault == "date":
            values[2] = ("2021-02-30", "03/01/2021", "2021-3-1", "")[rng.integers(4)]
        elif fault == "noncanonical":
            values[5] = ("007", "+5", "5.0", "1e3", "0x10")[rng.integers(5)]
        elif fault == "negative":
            values[5] = -int(rng.integers(1, 100))
        elif fault == "bool":
            values[5] = True if fmt == "jsonl" else "true"
        elif fault == "json":
            if fmt == "jsonl":
                j = (0, 1, 3, 4)[rng.integers(4)]
                values[j] = None if j == 0 else JSON_FALSY[rng.integers(len(JSON_FALSY))]
        elif rng.random() < 0.5:
            values.pop(rng.integers(6))
        else:
            values.append("x")


def render(rng, rows, fmt, fields=corpus.ARTICLE_FIELDS) -> str:
    n = len(fields)
    newline = "\r\n" if rng.random() < 0.5 else "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator=newline)
        writer.writerow(fields)
    for values in rows:
        if rng.random() < 0.1:  # a blank line; JSONL also skips whitespace-only lines
            out.write(newline if fmt == "csv" or rng.random() < 0.5 else "  " + newline)
        if fmt == "csv":
            writer.writerow(values)
            continue
        keys = list(fields)
        if len(values) < n:
            keys.remove(keys[rng.integers(n)])
        elif len(values) > n:
            keys.append("extra")
        obj = dict(zip(keys, values))
        for name in COUNT_NAMES:
            if name in obj and type(obj[name]) is int and rng.random() < 0.2:
                obj[name] = (float, str)[rng.integers(2)](obj[name])
        if obj.get("kind", "") is None and rng.random() < 0.5:
            del obj["kind"]  # the one field JSONL may omit
        out.write(json.dumps(obj) + newline)
    return out.getvalue()


def outcome(parse, text, fmt, newline=""):
    try:
        result = parse(io.StringIO(text, newline=newline), fmt)
    except ParseError as exc:
        return "error", str(exc), exc.line
    if isinstance(result, corpus.CountTensor):
        return "ok", result.outlets, result.counts.tolist()
    return "ok", list(result)


def records_match_parse(cls, by_row, text) -> bool:
    """Whether the objects of the JSONL `text` all hold `cls`'s fields (an
    optional one may be left out); if so, check that `cls.from_records` on
    them, as tuples in schema order, gives what a row-by-row parse of the
    same objects gives, a fault at line n being one at record n - 1."""
    names = [f.name for f in cls.fields]
    objs = [json.loads(line) for line in text.split("\n") if line.strip()]
    if not all(set(obj) <= set(names) and all(f.optional or f.name in obj for f in cls.fields)
               for obj in objs):
        return False
    try:
        stream = io.StringIO("".join(json.dumps(obj) + "\n" for obj in objs))
        expected = "ok", list(by_row(stream, "jsonl"))
    except ParseError as exc:
        expected = "error", f"record {exc.line - 1}: {exc.reason}"
    try:
        got = "ok", list(cls.from_records(tuple(obj.get(n) for n in names) for obj in objs))
    except ValueError as exc:
        got = "error", str(exc)
    assert got == expected, text
    return True


# ids that need quoting or span lines, and JSON values that read back as ids
ODD_IDS = ("a,b", 'say "hi"', "two\nlines", "", " pad ")
JSON_IDS = (7, 7.0, True, -0.0, "7")
COUNT_NAMES = ("interactions", "followers", "count")
BAD_VALUES = {
    "enum": ("bogus", "PRO", "Twitter", "RELIABLE", "tv "),
    "date": ("2021-02-30", "03/01/2021", "2021-3-1", ""),
    "count": ("007", "+5", "5.0", "1e3", "-3", "true", str(2**63), "0"),
}


def random_id(rng, fmt, prefix, pool):
    r = rng.random()
    if r < 0.1:
        return ODD_IDS[rng.integers(len(ODD_IDS))]
    if fmt == "jsonl" and r < 0.2:
        return JSON_IDS[rng.integers(len(JSON_IDS))]
    return f"{prefix}{rng.integers(pool)}"


def random_day(rng):
    return datetime.date(2020, 1, 1) + datetime.timedelta(days=int(rng.integers(0, 731)))


def random_count(rng, low=0):
    return int(rng.integers(low, 50)) if rng.random() < 0.8 else int(rng.integers(low, 2**61))


def pick(rng, labels):
    return labels[rng.integers(len(labels))]


def outlet_rows(rng, n, fmt):
    ids = rng.permutation(ODD_IDS + tuple(f"o{i}" for i in range(n))).tolist()[:n]
    kinds = [k.value for k in corpus.OutletKind] + ["", *([None] if fmt == "jsonl" else [])]
    return [[oid, random_id(rng, fmt, "Name ", 4), pick(rng, ("reliable", "questionable")),
             pick(rng, kinds)] for oid in ids]


def follower_rows(rng, n, fmt):
    rows = []
    for _ in range(n):
        start, end = sorted((random_day(rng), random_day(rng)))
        rows.append([random_id(rng, fmt, "o", 4), pick(rng, corpus.PLATFORMS).value,
                     start.isoformat(), end.isoformat(), random_count(rng)])
    return rows


def retweet_rows(rng, n, fmt):
    return [[random_id(rng, fmt, "u", 6), random_id(rng, fmt, "o", 4), random_count(rng, 1)]
            for _ in range(n)]


def count_rows(rng, n, fmt):
    outlets = ("o1", pick(rng, ODD_IDS), "o2")
    cells = [(o, nv.value, ev.value) for o in outlets for nv in NARRATIVE_ORDER for ev in EVENT_ORDER]
    return [[*cells[c], random_count(rng)] for c in rng.permutation(len(cells))[:n]]


def break_rule(rng, table, rows, fmt):
    """Break the table's own rule: a later row repeats a row's key (for
    retweets, with two counts summing past int64), or a period runs backwards."""
    i = int(rng.integers(len(rows)))
    if table == "followers":
        rows[i][2:4] = "2021-06-01", "2021-01-01"
        return
    j = int(rng.integers(i, len(rows))) + 1
    rows.insert(j, list(rows[i]))
    if table == "retweets":
        rows[i][2] = rows[j][2] = 2**62
    elif table == "outlets" and fmt == "jsonl" and rng.random() < 0.5:
        rows[i][0], rows[j][0] = "7", 7  # one id, once read as text


def inject_one(rng, table, rows, fmt):
    """Put one fault in a random row: a bad value, a wrong field count or a broken rule."""
    if not rows:
        return
    fields = TABLES[table][2]
    values = rows[rng.integers(len(rows))]
    fault = rng.integers(3)
    if fault == 0 and fmt == "jsonl" and rng.random() < 0.3:
        j = pick(rng, [j for j, name in enumerate(fields) if name not in COUNT_NAMES
                       and not name.startswith(("date", "period"))])
        is_id = fields[j].endswith("_id") or fields[j] == "name"
        values[j] = None if is_id else pick(rng, JSON_FALSY)
    elif fault == 0:
        j = pick(rng, [j for j, name in enumerate(fields) if not name.endswith("_id")])
        kind = ("count" if fields[j] in COUNT_NAMES
                else "date" if fields[j].startswith(("date", "period")) else "enum")
        values[j] = pick(rng, BAD_VALUES[kind])
        if fmt == "jsonl" and values[j] in ("true", str(2**63)) and rng.random() < 0.5:
            values[j] = json.loads(values[j])
    elif fault == 1:
        if rng.random() < 0.5:
            values.pop(rng.integers(len(values)))
        else:
            values.append("x")
    else:
        break_rule(rng, table, rows, fmt)


def _counts(stream, fmt):
    return corpus.read_count_tensor(stream)


TABLES = {
    "outlets": (corpus.parse_outlets, oracle_helpers.parse_outlets_by_row, corpus.OUTLET_FIELDS,
                outlet_rows),
    "followers": (corpus.parse_followers, oracle_helpers.parse_followers_by_row,
                  corpus.FOLLOWER_FIELDS, follower_rows),
    "retweets": (corpus.parse_retweets, oracle_helpers.parse_retweets_by_row,
                 corpus.RETWEET_FIELDS, retweet_rows),
    "counts": (_counts, lambda stream, fmt: oracle_helpers.read_count_tensor_by_row(stream),
               corpus.COUNT_FIELDS, count_rows),
}

TABLE_CLASSES = {"outlets": corpus.OutletTable, "followers": corpus.FollowerTable,
                 "retweets": corpus.RetweetTable}


class TestParserParity:
    def test_random_inputs_match_row_by_row_reference(self):
        rng = np.random.default_rng(2024)
        errors, records = 0, Counter()
        for _ in range(300):
            for fmt, outlets in (("csv", CSV_OUTLETS), ("jsonl", JSON_OUTLETS)):
                rows = [random_values(rng, outlets) for _ in range(rng.integers(0, 40))]
                inject(rng, rows, fmt)
                text = render(rng, rows, fmt)
                expected = outcome(oracle_helpers.parse_articles_by_row, text, fmt)
                assert outcome(corpus.parse_articles, text, fmt) == expected, text
                errors += expected[0] == "error"
                if fmt == "jsonl" and records_match_parse(
                        corpus.ArticleTable, oracle_helpers.parse_articles_by_row, text):
                    records[expected[0]] += 1
        assert 150 < errors < 450  # both outcomes are exercised
        assert records["ok"] > 50 and records["error"] > 30  # from_records too

    @pytest.mark.parametrize("table", TABLES)
    def test_every_table_matches_row_by_row_reference(self, table):
        parse, by_row, fields, make_rows = TABLES[table]
        rng = np.random.default_rng(list(TABLES).index(table))
        errors = runs = 0
        records = Counter()
        for _ in range(150):
            for fmt in ("csv",) if table == "counts" else ("csv", "jsonl"):
                rows = make_rows(rng, int(rng.integers(0, 30)), fmt)
                if rng.random() < 0.7:
                    inject_one(rng, table, rows, fmt)
                text = render(rng, rows, fmt, fields)
                expected = outcome(by_row, text, fmt)
                assert outcome(parse, text, fmt) == expected, text
                errors += expected[0] == "error"
                runs += 1
                if fmt == "jsonl" and records_match_parse(TABLE_CLASSES[table], by_row, text):
                    records[expected[0]] += 1
        assert 0.3 * runs < errors < 0.8 * runs  # both outcomes are exercised
        assert table == "counts" or min(records["ok"], records["error"]) > 20  # from_records too

    def test_basic_format_date_matches_reference(self):
        # date.fromisoformat reads the first two from Python 3.11 on; only
        # YYYY-MM-DD is read, on every version
        for day in ("20210301", "2021-W05-3", "2021-03-01T00", "\uff12021-03-01", "2021-03-01 "):
            for fmt, row, line in (
                ("csv", f'o1,twitter,"{day}",anti,adverse,1\n', 2),
                ("jsonl", json.dumps({"outlet_id": "o1", "platform": "twitter", "date": day,
                                      "narrative": "anti", "event": "adverse",
                                      "interactions": 1}) + "\n", 1),
            ):
                text = (ARTICLE_HEADER if fmt == "csv" else "") + row * 2
                expected = ("error", f"malformed date '{day}' at line {line}", line)
                assert outcome(oracle_helpers.parse_articles_by_row, text, fmt) == expected
                assert outcome(corpus.parse_articles, text, fmt) == expected
            with pytest.raises(ValueError, match="YYYY-MM-DD"):
                corpus.iso_date(day)
        assert corpus.iso_date("2021-03-01") == datetime.date(2021, 3, 1)

    def test_jsonl_kind_and_null_ids_match_reference(self):
        head = '{"outlet_id": "o1", "name": "A", "reliability": "reliable"'
        for kind, expected in (("", None), (', "kind": null', None), (', "kind": ""', None),
                               (', "kind": "tv"', corpus.OutletKind.TV)):
            text = head + kind + "}\n"
            result = ("ok", [OutletProfile("o1", "A", Reliability.RELIABLE, expected)])
            assert outcome(oracle_helpers.parse_outlets_by_row, text, "jsonl") == result
            assert outcome(corpus.parse_outlets, text, "jsonl") == result
        for kind in ("false", "0", "[]", "{}"):
            text = head + "}\n" + head.replace("o1", "o2") + f', "kind": {kind}}}\n'
            value = json.loads(kind)
            result = ("error", f"unknown outlet kind '{value}' at line 2", 2)
            assert outcome(oracle_helpers.parse_outlets_by_row, text, "jsonl") == result
            assert outcome(corpus.parse_outlets, text, "jsonl") == result
        for parse, by_row, row, field in (
            (corpus.parse_outlets, oracle_helpers.parse_outlets_by_row,
             '{"outlet_id": null, "name": "A", "reliability": "reliable"}', "outlet_id"),
            (corpus.parse_retweets, oracle_helpers.parse_retweets_by_row,
             '{"user_id": "u1", "outlet_id": null, "count": 1}', "outlet_id"),
            (corpus.parse_retweets, oracle_helpers.parse_retweets_by_row,
             '{"user_id": null, "outlet_id": "o1", "count": 1}', "user_id"),
            (corpus.parse_articles, oracle_helpers.parse_articles_by_row,
             '{"outlet_id": null, "platform": "twitter", "date": "2021-03-01", '
             '"narrative": "anti", "event": "adverse", "interactions": 1}', "outlet_id"),
        ):
            text = row.replace("null", '"x"', 1) + "\n" + row + "\n"
            result = ("error", f"null {field} at line 2", 2)
            assert outcome(by_row, text, "jsonl") == result
            assert outcome(parse, text, "jsonl") == result

    def test_later_malformed_row_loses_to_earlier_bad_value(self):
        text = ARTICLE_HEADER + "o1,twitter,2021-03-01,anti,bogus,1\n" + "o1,twitter\n"
        with pytest.raises(ParseError, match=r"unknown event label 'bogus' at line 2"):
            corpus.parse_articles(io.StringIO(text), "csv")

    def test_error_in_a_later_chunk_names_its_line(self, monkeypatch):
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 4096)
        good = "o1,twitter,2021-03-01,anti,adverse,1\n"
        n = 3 * corpus._CHUNK_ROWS
        for first in ("o1", '"o1"'):  # split blocks, or csv.reader chunks from the first row
            text = (ARTICLE_HEADER + first + good[2:] + good * (n - 1)
                    + "o1,twitter,2021-03-01,anti,adverse,01\n")
            with pytest.raises(ParseError, match=rf"invalid interactions '01' at line {n + 2}"):
                corpus.parse_articles(io.StringIO(text), "csv")

    def test_jsonl_values_are_coded_by_type(self):
        fields = '"platform": "twitter", "date": "2021-03-01", "narrative": "pro", "event": "neutral"'
        text = "".join(
            f'{{"outlet_id": {oid}, {fields}, "interactions": {n}}}\n'
            for oid, n in (("1", "1"), ('"1"', "1.0"), ("true", "2"), ("-0.0", "3"), ("0.0", "4"))
        )
        table = corpus.parse_articles(io.StringIO(text), "jsonl")
        assert [(a.outlet_id, a.interactions) for a in table] == [
            ("1", 1), ("1", 1), ("True", 2), ("-0.0", 3), ("0.0", 4)
        ]
        assert table.outlet_ids == ("1", "True", "-0.0", "0.0")
        bad = text + f'{{"outlet_id": 1, {fields}, "interactions": true}}\n'
        with pytest.raises(ParseError, match="invalid interactions 'True' at line 6"):
            corpus.parse_articles(io.StringIO(bad), "jsonl")

    def test_counts_id_that_xml_cannot_carry_matches_reference(self):
        text = ("outlet_id,narrative,event,count\n"
                "o1,anti,adverse,1\no\x01,anti,adverse,2\no2,pro,neutral,3\n")
        expected = ("error", "outlet_id 'o\\x01' holds a character XML cannot carry at line 3", 3)
        assert outcome(_counts, text, "csv") == expected
        assert outcome(TABLES["counts"][1], text, "csv") == expected


def article_rows(n):
    return [f"o{i % 3},twitter,2021-03-0{i % 9 + 1},anti,adverse,{i}" for i in range(n)]


def article_text(rows, ends=None, final="\n"):
    """An articles.csv text of `rows`, row i ended by ends.get(i, "\\n"), the last by `final`."""
    ends = ends or {}
    lines = [ARTICLE_HEADER.rstrip("\n"), *rows]
    return "".join(line + ends.get(i - 1, "\n") for i, line in enumerate(lines[:-1])) + lines[-1] + final


def rows_with(n, at):
    """n article rows, row i replaced by at[i]."""
    return [at.get(i, row) for i, row in enumerate(article_rows(n))]


QUOTED = '"a,""b""\nc",twitter,2021-03-01,pro,neutral,3'
TAIL = ",twitter,2021-03-01,pro,neutral,1"  # a row's fields after its outlet id
BAD, SHORT, LONG = "o1,twitter,2021-03-01,bogus,adverse,1", "o1,twitter", "o1" + TAIL + ",x"
LIMIT = csv.field_size_limit()
# name -> (text, outcome when read as opened with newline="")
BLOCK_CASES = {
    "quoted comma, quote and line break in a later block":
        (article_text(rows_with(14, {7: QUOTED})), "ok"),
    "bad value after a quoted line break": (article_text(rows_with(14, {7: QUOTED, 10: BAD})), "error"),
    "crlf line ends":
        (article_text(article_rows(12), {i: "\r\n" for i in range(-1, 12)}, final="\r\n"), "ok"),
    "crlf line ends from a later row":
        (article_text(article_rows(12), {i: "\r\n" for i in range(6, 12)}), "ok"),
    "lone cr line end": (article_text(article_rows(12), {5: "\r"}), "ok"),
    "lone cr inside a field": (article_text(rows_with(12, {8: "o\r8" + TAIL})), "error"),
    "blank lines at block edges": (article_text(rows_with(12, {3: "", 4: "", 10: ""}), final="\n\n"), "ok"),
    "no final line break": (article_text(article_rows(12), final=""), "ok"),
    # csv.reader rejects a NUL before Python 3.11; from 3.11 on it reads the NUL
    # as text, and the id rule rejects an id holding it
    "nul byte": (article_text(rows_with(12, {6: "o\x006" + TAIL})), "error"),
    "field at the size limit": (article_text(rows_with(8, {5: "x" * LIMIT + TAIL})), "ok"),
    "field past the size limit": (article_text(rows_with(8, {5: "x" * (LIMIT + 1) + TAIL})), "error"),
    "short row at a block edge": (article_text(rows_with(12, {5: SHORT})), "error"),
    "long row at a block edge": (article_text(rows_with(12, {9: LONG})), "error"),
    "bad value before a short row": (article_text(rows_with(12, {4: BAD, 5: SHORT})), "error"),
    "short row before a bad value": (article_text(rows_with(12, {4: SHORT, 5: BAD})), "error"),
    "quoted header": ('"outlet_id",platform,date,narrative,event,interactions\n'
                      + "\n".join(article_rows(6)) + "\n", "ok"),
    "bad header": ("outlet_id,platform,date\n" + "\n".join(article_rows(6)) + "\n", "error"),
    "header only": (ARTICLE_HEADER, "ok"),
    "header without a line break": (ARTICLE_HEADER.rstrip("\n"), "ok"),
    "empty file": ("", "ok"),
}


class TestBlockReader:
    """The block reader against the row-by-row reference, with blocks of a
    few dozen characters, so that every case crosses a block edge."""

    @pytest.mark.parametrize("block_chars", [1, 40, 100])
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_case_matches_row_by_row_reference(self, case, block_chars, monkeypatch):
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", block_chars)
        text, kind = BLOCK_CASES[case]
        for newline in ("", "\n"):  # as the CLI opens files, and as io.StringIO splits lines
            expected = outcome(oracle_helpers.parse_articles_by_row, text, "csv", newline)
            assert outcome(corpus.parse_articles, text, "csv", newline) == expected, newline
            if newline == "":
                assert expected[0] == kind

    def test_random_texts_match_row_by_row_reference(self, monkeypatch):
        split_block, splits = corpus._split_block, Counter()

        def counted(lines, k):
            columns = split_block(lines, k)
            splits[columns is not None] += 1
            return columns

        monkeypatch.setattr(corpus, "_split_block", counted)
        rng = np.random.default_rng(19)
        oddities = ["quoted", "crlf", "cr", "blank", "nul", "short", "long", "bad"]
        errors = 0
        for _ in range(300):
            monkeypatch.setattr(corpus, "_BLOCK_CHARS", int(rng.integers(1, 160)))
            rows, ends = article_rows(int(rng.integers(0, 25))), {}
            for _ in range(int(rng.integers(0, 3)) if rows else 0):
                i, odd = int(rng.integers(len(rows))), pick(rng, oddities)
                if odd in ("crlf", "cr"):
                    ends[i] = "\r\n" if odd == "crlf" else "\r"
                else:
                    rows[i] = {"quoted": QUOTED, "blank": "", "nul": rows[i].replace("o", "o\x00"),
                               "short": rows[i].rsplit(",", 1)[0], "long": rows[i] + ",x",
                               "bad": rows[i].replace("anti", "bogus")}[odd]
            text = article_text(rows, ends, final=pick(rng, ["\n", "\n", "\r\n", ""]))
            for newline in ("", "\n"):
                expected = outcome(oracle_helpers.parse_articles_by_row, text, "csv", newline)
                assert outcome(corpus.parse_articles, text, "csv", newline) == expected, text
                errors += expected[0] == "error"
        assert 60 < errors < 500  # both outcomes are exercised
        assert splits[True] > 1000 and splits[False] > 100  # and both read paths

    def test_one_field_table_skips_blank_lines(self, monkeypatch):
        # every other schema has a comma on each line, which a blank line lacks
        class Names(corpus.Table):
            fields = (corpus.IdField("name"),)
            key = ("name",)

        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 4)
        text = "name\na\n\nb\n\n\nc\n"
        by_row = oracle_helpers.read_rows(io.StringIO(text), "csv", ["name"])
        rows = [(row["name"],) for _, row in by_row]
        assert rows == [("a",), ("b",), ("c",)]
        assert list(corpus._parse(io.StringIO(text), "csv", Names)) == rows
        with pytest.raises(ParseError, match="^duplicate name 'a' at line 8$"):
            corpus._parse(io.StringIO(text + "a\n"), "csv", Names)


class TestArticleTable:
    def test_sequence_of_records(self):
        records = [
            make_article("o2", Narrative.ANTI, EventType.NEUTRAL, 3, day=2),
            make_article("o1", Narrative.NEUTRAL, EventType.ADVERSE, 0, day=9),
            make_article("o2", Narrative.PRO, EventType.POSITIVE, 7, day=4),
        ]
        table = corpus.ArticleTable.from_records(records)
        assert len(table) == 3 and table == records and records == table
        assert table[1] == records[1] and table[-1] == records[-1]
        assert table[1:] == records[1:] and isinstance(table[1:], corpus.ArticleTable)
        assert table.outlet_ids == ("o2", "o1")
        assert table.outlet_id.tolist() == [0, 1, 0]
        assert table.date.tolist() == [r.date.toordinal() for r in records]
        assert corpus.ArticleTable.from_records(table) is table
        assert table != records[:2] and table != "o2"
        with pytest.raises(ValueError):
            table.interactions[0] = 1

    def test_aggregates_match_row_loops_on_a_window(self):
        data = synth.generate(n_outlets=30, n_clusters=3, seed=11)
        # tables built from columns read back equal, under the parsed tables' rules
        parsed = {}
        for name in ("articles", "outlets", "followers", "retweets"):
            buf = io.StringIO()
            getattr(corpus, f"write_{name}")(getattr(data, name), buf)
            buf.seek(0)
            parsed[name] = getattr(corpus, f"parse_{name}")(buf, "csv")
            assert len(parsed[name]) > 0 and parsed[name] == getattr(data, name)
        table = parsed["articles"]
        window = (datetime.date(2020, 4, 1), datetime.date(2021, 5, 31))
        kept = corpus.filter_articles(table, *window)
        rows = [a for a in data.articles if window[0] <= a.date <= window[1]]
        assert 0 < len(kept) < len(table) and kept == rows

        tensor = corpus.aggregate_counts(kept, data.outlets)
        expected = oracle_helpers.aggregate_counts_by_row(rows, data.outlets)
        assert tensor.outlets == expected.outlets
        assert tensor.counts.dtype == expected.counts.dtype
        assert np.array_equal(tensor.counts, expected.counts)
        assert corpus.dataset_breakdown(kept, data.outlets) == (
            oracle_helpers.dataset_breakdown_by_row(rows, data.outlets)
        )
        for win in (window, None):
            assert metrics.build_engagement_table(table, data.followers, win) == (
                oracle_helpers.build_engagement_table_by_row(data.articles, data.followers, win)
            )


class TestInt64Bound:
    def test_interactions_beyond_int64_rejected_with_line(self):
        top = corpus.INT64_MAX
        ok = corpus.parse_articles(
            io.StringIO(ARTICLE_HEADER + f"o1,twitter,2021-03-01,anti,adverse,{top}\n"), "csv"
        )
        assert ok[0].interactions == top
        text = ARTICLE_HEADER + "o1,twitter,2021-03-01,anti,adverse,1\n" + (
            f"o1,twitter,2021-03-01,anti,adverse,{top + 1}\n"
        )
        with pytest.raises(ParseError, match=rf"interactions must be <= {top}, got '{top + 1}' at line 3"):
            corpus.parse_articles(io.StringIO(text), "csv")
        with pytest.raises(ValueError, match=rf"record 1: interactions must be <= {top}"):
            corpus.ArticleTable.from_records([make_article(), make_article(interactions=top + 1)])

    def test_every_count_column_is_bounded(self):
        top = corpus.INT64_MAX
        retweets = "user_id,outlet_id,count\nu1,o1,1\n"
        with pytest.raises(ParseError, match=rf"count must be <= {top}, got '{top + 1}' at line 3"):
            corpus.parse_retweets(io.StringIO(retweets + f"u1,o2,{top + 1}\n"), "csv")
        summed = retweets + f"u1,o2,{2**62}\nu2,o1,5\nu1,o2,{2**62}\n"
        with pytest.raises(ParseError, match=rf"count total {2**63} of user 'u1' and outlet 'o2' "
                                             rf"exceeds {top} at line 5"):
            corpus.parse_retweets(io.StringIO(summed), "csv")
        fits = corpus.parse_retweets(io.StringIO(retweets + f"u1,o1,{top - 1}\n"), "csv")
        assert list(fits) == [corpus.RetweetRecord("u1", "o1", top)]
        counts = "outlet_id,narrative,event,count\no1,anti,adverse,1\n"
        with pytest.raises(ParseError, match=rf"count must be <= {top}, got '{top + 1}' at line 3"):
            corpus.read_count_tensor(io.StringIO(counts + f"o1,pro,adverse,{top + 1}\n"))
        followers = "outlet_id,platform,period_start,period_end,followers\n"
        with pytest.raises(ParseError, match=rf"followers must be <= {top}, got '{top + 1}' at line 2"):
            corpus.parse_followers(
                io.StringIO(followers + f"o1,twitter,2020-01-01,2020-01-02,{top + 1}\n"), "csv")

    def test_record_values_are_checked_by_type(self):
        # a record is checked by its table, not when it is built
        with pytest.raises(ValueError, match="^record 0: interactions must be >= 0, got '-1'$"):
            corpus.ArticleTable.from_records([make_article(interactions=-1)])
        with pytest.raises(ValueError, match="^record 0: count must be >= 1, got '0'$"):
            corpus.RetweetTable.from_records([corpus.RetweetRecord("u", "o", 0)])
        # True == 1 and hashes alike, so it must not reuse the code of an earlier 1
        with pytest.raises(ValueError, match="record 1: invalid interactions 'True'"):
            corpus.ArticleTable.from_records([make_article(interactions=1),
                                              make_article(interactions=True)])
        with pytest.raises(ValueError, match="record 1: invalid count 'True'"):
            corpus.RetweetTable.from_records([corpus.RetweetRecord("u", "o", 1),
                                              corpus.RetweetRecord("u", "o", True)])
        table = corpus.ArticleTable.from_records(
            [make_article(outlet=oid) for oid in (1, True, 1.0, 0.0, -0.0)]
        )
        assert table.outlet_ids == ("1", "True", "1.0", "0.0", "-0.0")
        # a tuple is read by position, so it must hold every field
        with pytest.raises(ValueError, match="^record 1: expected 3 fields, got 2$"):
            corpus.RetweetTable.from_records([("u", "o", 1), ("u", "o")])

    def test_exact_sums_match_python_ints(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.integers(0, 2**63 - 1, 40, dtype=np.int64, endpoint=True),
                                 rng.integers(0, 2**16, 40, dtype=np.int64)])
        groups = rng.integers(0, 7, len(values))
        expected = [0] * 8
        for v, g in zip(values.tolist(), groups.tolist()):
            expected[g] += v
        assert corpus.exact_sums(values, groups, 8) == expected
        assert max(expected) > corpus.INT64_MAX and expected[7] == 0
        assert all(type(t) is int for t in corpus.exact_sums(values, groups, 8))

    def test_totals_raise_instead_of_wrapping(self):
        big = [make_article("o1", interactions=2**62), make_article("o1", interactions=2**62)]
        with pytest.raises(ValueError, match="exceeds"):
            corpus.dataset_breakdown(big, make_registry("o1"))
        # each class total fits, their sum does not
        split = [make_article("q1", interactions=2**62), make_article("o1", interactions=2**62)]
        registry = make_registry("o1") + make_registry("q1", reliability=Reliability.QUESTIONABLE)
        with pytest.raises(ValueError, match=f"interactions total {2**63} exceeds"):
            corpus.dataset_breakdown(split, registry)
        window = (datetime.date(2021, 3, 1), datetime.date(2021, 3, 31))
        followers = [FollowerRecord("o1", Platform.TWITTER, *window, 10)]
        with pytest.raises(ValueError, match="exceeds"):
            metrics.build_engagement_table(big, followers, window)
        # a class or group total just inside the range is exact
        fits = [make_article("o1", interactions=2**62), make_article("o1", interactions=2**62 - 1)]
        assert corpus.dataset_breakdown(fits, make_registry("o1")).total.interactions == 2**63 - 1
        (row,) = metrics.build_engagement_table(fits, followers, window)
        assert row.interactions == 2**63 - 1


class TestArtifactFields:
    @pytest.mark.parametrize("text", ["0.5", "-0.0", "5e-324", "1e+16", "inf", "-inf", "1.5e-07"])
    def test_float_reads_its_shortest_repr(self, text):
        value = corpus.FloatField("mean").convert(text, 1)
        assert repr(value) == text

    @pytest.mark.parametrize("value", ["nan", "NaN", "1e16", "1.50", " 0.5", "1_0.5", "Infinity",
                                       "", None, True, float("nan")])
    def test_float_rejects_other_spellings_and_nan(self, value):
        with pytest.raises(ParseError, match=f"^invalid mean '{value}' at line 4$"):
            corpus.FloatField("mean").convert(value, 4)

    def test_optional_float_reads_empty_as_none(self):
        field = corpus.FloatField("mean_x_adv", optional=True)
        assert np.isnan(field.convert("", 1)) and np.isnan(field.convert(None, 1))
        with pytest.raises(ParseError, match="invalid mean_x_adv 'nan'"):
            field.convert("nan", 1)

    @pytest.mark.parametrize("value", ["True", "1", "", "TRUE", None, 1])
    def test_flag_reads_true_and_false_only(self, value):
        field = corpus.FlagField("adverse_lean")
        assert field.convert("true", 1) is True and field.convert("false", 1) is False
        assert field.convert(False, 1) is False
        with pytest.raises(ParseError, match=f"^invalid adverse_lean '{value}' at line 2$"):
            field.convert(value, 2)


def _round_trip(cls, table):
    """`table` written, parsed back under `cls` and written again: (parsed, text, text again)."""
    first = io.StringIO()
    corpus._write(cls, table, first)
    parsed = corpus._parse(io.StringIO(first.getvalue()), "csv", cls)
    second = io.StringIO()
    corpus._write(cls, parsed, second)
    return parsed, first.getvalue(), second.getvalue()


# floats whose spelling a careless writer or reader would change
EDGE_FLOATS = [float("inf"), -0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5]


class TestFloatColumns:
    @pytest.mark.parametrize("bad_row", [0, 5, corpus._CHUNK_ROWS + 3])
    def test_first_bad_float_is_reported_at_its_line(self, bad_row, monkeypatch):
        # float columns are converted value by value, not dict-coded; the first
        # bad row still wins over a later row's bad earlier field, across blocks
        monkeypatch.setattr(corpus, "_BLOCK_CHARS", 4096)
        rows = [f"o{i},adverse,alpha,1.5,0.25,1.0,2.0,1.0,100.0"
                for i in range(corpus._CHUNK_ROWS + 10)]
        rows[bad_row] = rows[bad_row].replace(",0.25,", ",0.250,")
        rows[bad_row + 1] = rows[bad_row + 1].replace("adverse", "sideways")
        text = "outlet_id,event_type,param,mean,sd,q05,q95,rhat,ess\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match=f"^invalid sd '0.250' at line {bad_row + 2}$"):
            corpus._parse(io.StringIO(text), "csv", latent.PosteriorTable)
        good = text.replace(",0.250,", ",0.25,").replace("sideways", "adverse")
        parsed = corpus._parse(io.StringIO(good), "csv", latent.PosteriorTable)
        assert parsed.sd.dtype == np.float64 and (parsed.sd == 0.25).all()


class TestArtifactRoundTrips:
    def test_posterior(self):
        # only an R-hat may be inf: the other statistics hold the largest float in its place
        finite = [v if math.isfinite(v) else sys.float_info.max for v in EDGE_FLOATS]
        columns = [(EDGE_FLOATS if f.name == "rhat" else finite)
                   for f in dataclasses.fields(latent.ParamStats)]
        stats = [latent.ParamStats(*(np.array(c[k:] + c[:k]) for k, c in enumerate(columns)))
                 for _ in range(2)]
        summaries = {EventType.POSITIVE: latent.ParamSummary(*stats, n_draws=10),
                     EventType.ADVERSE: latent.ParamSummary(*stats[::-1], n_draws=10)}
        outlets = tuple(f"o{i}" for i in range(6))
        table = latent.PosteriorTable.of(outlets, summaries)
        parsed, text, again = _round_trip(latent.PosteriorTable, table)
        assert text == again and parsed == table and len(parsed) == 24
        lines = text.splitlines()
        assert lines[0] == "outlet_id,event_type,param,mean,sd,q05,q95,rhat,ess"
        assert lines[1] == ("o0,positive,alpha,1.7976931348623157e+308,-0.0,5e-324,1e+16,"
                            "0.30000000000000004,-1.5")
        assert lines[7].startswith("o0,positive,x,") and lines[13].startswith("o0,adverse,alpha,")
        assert np.signbit(parsed.mean[1]) and parsed.rhat[2] == float("inf")

    def test_empty_posterior(self):
        parsed, text, again = _round_trip(latent.PosteriorTable, latent.PosteriorTable.of(("o1",), {}))
        assert text == again == "outlet_id,event_type,param,mean,sd,q05,q95,rhat,ess\n"
        assert len(parsed) == 0

    def test_bias(self):
        labels = {"o0": Reliability.QUESTIONABLE, "o2": Reliability.RELIABLE}
        rows = [metrics.BiasRow(f"o{i}", labels.get(f"o{i}"),
                                *(EDGE_FLOATS[i:] + EDGE_FLOATS[:i])[:6], v, i % 2 == 0)
                for i, v in enumerate(EDGE_FLOATS)]
        table = metrics.BiasTable.from_records(rows)
        parsed, text, again = _round_trip(metrics.BiasTable, table)
        assert text == again and parsed == rows
        assert [row.reliability for row in parsed] == [labels.get(r.outlet_id) for r in rows]
        assert text.splitlines()[2] == "o1,,-0.0,5e-324,1e+16,0.30000000000000004,-1.5,inf,-0.0,false"

    def test_engagement(self):
        records = [metrics.EngagementRecord(f"o{i // 3}", event, i + 1, 2**63 - 1 - i, 1e16 + 2 * i, v)
                   for i, (event, v) in enumerate(zip(EVENT_ORDER * 2, EDGE_FLOATS))]
        parsed, text, again = _round_trip(metrics.EngagementTable, records)
        assert text == again and parsed == records
        assert text.splitlines()[2] == "o0,neutral,2,9223372036854775806,1.0000000000000002e+16,-0.0"

    def test_clusters(self):
        buf = io.StringIO()
        network.write_clusters_csv({"b": 2**63 - 1, "a, \"c\"": 0}, buf)
        parsed = corpus._parse(io.StringIO(buf.getvalue()), "csv", network.ClusterTable)
        assert dict(parsed) == {"a, \"c\"": 0, "b": 2**63 - 1}

    def test_cluster_stats_with_none(self):
        rows = [network.ClusterStatsRow(0, 3, None, None, None, None, None),
                network.ClusterStatsRow(1, 1, 1.0, -0.0, 5e-324, float("inf"), 0.5)]
        buf = io.StringIO()
        network.write_cluster_stats_csv(rows, buf)
        assert buf.getvalue().splitlines()[1:] == ["0,3,,,,,", "1,1,1.0,-0.0,5e-324,inf,0.5"]
        parsed, text, again = _round_trip(network.ClusterStatsTable, rows)
        assert text == again == buf.getvalue() and parsed == rows
        assert np.signbit(parsed[1].mean_x_adv)

    @pytest.mark.parametrize("text, message", [
        ("0,3,0.5,abc,0.1,0.2,0.5\n", "invalid mean_x_adv 'abc' at line 2"),
        ("0, 3,0.5,0.1,0.1,0.2,0.5\n", "invalid size ' 3' at line 2"),
        ("0,,0.5,0.1,0.1,0.2,0.5\n", "invalid size '' at line 2"),
    ])
    def test_bad_cluster_stats_value_rejected_at_its_line(self, text, message):
        # no stage reads cluster_stats.csv back, so its schema is checked here alone
        header = ",".join(network.CLUSTER_STATS_FIELDS) + "\n"
        with pytest.raises(ParseError, match=f"^{message}$"):
            corpus._parse(io.StringIO(header + text), "csv", network.ClusterStatsTable)

    @pytest.mark.parametrize("name, text, message", [
        ("posterior", "o1,adverse,alpha,1.0,1.0,1.0,1.0,1.0,1.0\no1,adverse,x,1.0,1.0,1.0,1.0,1.0,1.0\n"
         "o1,adverse,alpha,2.0,1.0,1.0,1.0,1.0,1.0\n",
         r"duplicate cell \('o1', 'adverse', 'alpha'\) at line 4"),
        ("bias", "o1,,1.0,1.0,1.0,1.0,1.0,1.0,1.0,true\no1,reliable,1.0,1.0,1.0,1.0,1.0,1.0,1.0,true\n",
         "duplicate outlet_id 'o1' at line 3"),
        ("engagement", "o1,adverse,1,1,1.0,1.0\no1,positive,1,1,1.0,1.0\no1,adverse,2,1,1.0,0.5\n",
         r"duplicate cell \('o1', 'adverse'\) at line 4"),
        ("clusters", "o1,0\no2,0\no1,1\n", "duplicate outlet_id 'o1' at line 4"),
        ("cluster_stats", "0,1,,,,,\n0,2,,,,,\n", "duplicate cluster_id '0' at line 3"),
    ])
    def test_repeated_key_rejected_at_its_line(self, name, text, message):
        cls = {"posterior": latent.PosteriorTable, "bias": metrics.BiasTable,
               "engagement": metrics.EngagementTable, "clusters": network.ClusterTable,
               "cluster_stats": network.ClusterStatsTable}[name]
        header = ",".join(f.name for f in cls.fields) + "\n"
        with pytest.raises(ParseError, match=f"^{message}$"):
            corpus._parse(io.StringIO(header + text), "csv", cls)

    @pytest.mark.parametrize("cls, key", [
        (corpus.OutletTable, "outlet_id 'o1'"),
        (corpus._CountRows, r"cell \('o1', 'neutral', 'positive'\)"),
        (latent.PosteriorTable, r"cell \('o1', 'neutral', 'alpha'\)"),
        (metrics.BiasTable, "outlet_id 'o1'"),
        (metrics.EngagementTable, r"cell \('o1', 'neutral'\)"),
        (network.ClusterTable, "outlet_id 'o1'"),
        (network.ClusterStatsTable, "cluster_id '0'"),
    ], ids=["outlets", "counts", "posterior", "bias", "engagement", "clusters", "cluster_stats"])
    def test_repeated_key_rejected_when_built(self, cls, key):
        # a table built from columns holds the rule its parser applies, so no
        # writer can write a file that its own parser rejects
        table = cls.from_records(zip(*sample_columns(cls, ("o1", "o2"))))
        with pytest.raises(ValueError, match=f"^record 1: duplicate {key}$"):
            cls([column[[0, 0]] for column in table._columns()], table._ids())
        with pytest.raises(ValueError, match=f"^record 1: duplicate {key}$"):
            table.take([0, 0])

    def test_repeated_outlet_rejected_when_built(self):
        with pytest.raises(ValueError, match="^record 1: duplicate outlet_id 'o1'$"):
            corpus.OutletTable([[0, 0], [0, 1], [1, 1], [0, 0]],
                               {"outlet_id": ["o1"], "name": ["A", "B"]})
        # the repeat at record 1 comes before the bad label at record 2, as
        # a parse of the same rows reports it
        rows = [("o1", "A", "reliable", None), ("o1", "B", "reliable", None),
                ("o3", "C", "bogus", None)]
        for records in (rows, [OutletProfile(*row) for row in rows]):
            with pytest.raises(ValueError, match="^record 1: duplicate outlet_id 'o1'$"):
                corpus.OutletTable.from_records(records)

    def test_reversed_period_rejected_when_built(self):
        jan, feb, mar = (datetime.date(2021, m, 1).toordinal() for m in (1, 2, 3))
        with pytest.raises(ValueError, match="^record 1: period_start 2021-03-01 after "
                                             "period_end 2021-02-01$"):
            corpus.FollowerTable([[0, 0], [0, 0], [jan, mar], [feb, feb], [5, 5]],
                                 {"outlet_id": ["o1"]})

    def test_repeated_retweet_pair_summed_when_built(self):
        # a repeated pair is summed into the first, as parsing reads it back
        table = corpus.RetweetTable([[0, 1, 0], [0, 0, 0], [2, 1, 3]],
                                    {"user_id": ["u1", "u2"], "outlet_id": ["o1"]})
        assert list(table) == [corpus.RetweetRecord("u1", "o1", 5),
                               corpus.RetweetRecord("u2", "o1", 1)]
        with pytest.raises(ValueError):
            table.count[0] = 1
        assert _round_trip(corpus.RetweetTable, table)[0] == table
        top = corpus.INT64_MAX
        with pytest.raises(ValueError, match=rf"^record 1: count total {top + 1} of user 'u1' "
                                             rf"and outlet 'o1' exceeds {top}$"):
            corpus.RetweetTable([[0, 0], [0, 0], [top, 1]],
                                {"user_id": ["u1"], "outlet_id": ["o1"]})

    # PosteriorTable.of's table is covered by test_posterior
    @pytest.mark.parametrize("name", ["bias", "engagement", "cluster_stats", "clusters", "counts"])
    def test_built_table_reads_back_as_built(self, name, built_tables):
        cls, text, rows = built_tables[name]
        parsed = corpus._parse(io.StringIO(text), "csv", cls)
        again = io.StringIO()
        corpus._write(cls, parsed, again)
        assert len(parsed) > 0 and parsed == rows and again.getvalue() == text


@pytest.fixture(scope="module")
def built_tables():
    """Per table that a pipeline stage builds from a small synthetic corpus:
    (its class, its CSV text as the stage writes it, the rows it was built with)."""
    data = synth.generate(n_outlets=12, n_clusters=2, seed=3)
    outlets = tuple(o.outlet_id for o in data.outlets)
    rng = np.random.default_rng(5)
    summaries = {event: latent.ParamSummary(
        *(latent.ParamStats(*rng.normal(size=(6, len(outlets)))) for _ in latent.PARAMS),
        n_draws=10) for event in EVENT_ORDER}
    posterior = latent.PosteriorTable.of(outlets, summaries)
    bias = metrics.build_bias_table(posterior, data.outlets.reliability_of())
    # an outlet without a bias row, alone in its cluster, leaves that cluster's statistics None
    partition = {**data.truth["outlet_clusters"], "extra": 5}
    tables = {
        "bias": (metrics.BiasTable, bias),
        "engagement": (metrics.EngagementTable,
                       metrics.build_engagement_table(data.articles, data.followers)),
        "cluster_stats": (network.ClusterStatsTable, network.cluster_stats(partition, bias)),
    }
    out = {}
    for name, (cls, table) in tables.items():
        text = io.StringIO()
        corpus._write(cls, table, text)
        out[name] = cls, text.getvalue(), table
    text = io.StringIO()
    network.write_clusters_csv(partition, text)
    out["clusters"] = network.ClusterTable, text.getvalue(), sorted(partition.items())
    tensor = corpus.aggregate_counts(data.articles, data.outlets)
    text = io.StringIO()
    corpus.write_count_tensor(tensor, text)
    out["counts"] = corpus._CountRows, text.getvalue(), [
        (outlets[i], NARRATIVE_ORDER[j], EVENT_ORDER[k], count)
        for (i, j, k), count in np.ndenumerate(tensor.counts)]
    return out


def spell(value) -> str:
    """A record value as its CSV field, spelled independently of the writer."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, datetime.date):
        return value.isoformat()
    return repr(value) if isinstance(value, float) else str(value)


def csv_writer_text(cls, records) -> str:
    """`records` as the csv module's writer writes them, a row per record."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in cls.fields])
    writer.writerows([spell(getattr(r, f.name)) for f in cls.fields] for r in records)
    return out.getvalue()


# ids that csv.writer quotes as the one quoting rule does; an id holding a lone
# CR is not among them, as csv.writer on Python 3.11 leaves it bare
WRITER_IDS = ("o1", "a,b", 'say "hi"', "two\nlines", " pad ", "pad ", "", '"', ",", "x\r\ny")
# 0.0 and -0.0 in one column must not be spelled alike
WRITER_FLOATS = [*EDGE_FLOATS, 0.0]
# ids holding a carriage return, each of which must be quoted
CR_IDS = ("u\r0", "\r", "a\rb,c", 'q"\r', "x\r\ny", "plain")


def writer_records(n):
    ids = [WRITER_IDS[i % len(WRITER_IDS)] for i in range(n)]
    labels = [Reliability.QUESTIONABLE, None, Reliability.RELIABLE]
    return {
        corpus.ArticleTable: [
            ArticleRecord(oid, corpus.PLATFORMS[i % 4], datetime.date(2021, 1, 1 + i % 28),
                          NARRATIVE_ORDER[i % 3], EVENT_ORDER[i // 3 % 3], i * 7919 % 1000)
            for i, oid in enumerate(ids)],
        corpus.OutletTable: [
            OutletProfile(oid, WRITER_IDS[-1 - i], tuple(Reliability)[i % 2],
                          (None, *corpus.OutletKind)[i % 5])
            for i, oid in enumerate(WRITER_IDS)],
        corpus.RetweetTable: [corpus.RetweetRecord(u, o, 1 + i)
                              for i, (u, o) in enumerate(zip(WRITER_IDS, WRITER_IDS[::-1]))],
        metrics.BiasTable: [
            metrics.BiasRow(oid, labels[i % 3], *(WRITER_FLOATS * 2)[i % 7:i % 7 + 7], i % 2 == 0)
            for i, oid in enumerate(WRITER_IDS)],
        network.ClusterStatsTable: [
            network.ClusterStatsRow(i, i + 1, *([None] * 5 if i % 2 else EDGE_FLOATS[1:6]))
            for i in range(4)],
    }


def sample_columns(cls, ids):
    """Record values of a valid `cls` table of one row per id, every id field holding `ids`."""
    columns = []
    for i, field in enumerate(cls.fields):
        n = len(ids)
        if isinstance(field, corpus.IdField):
            columns.append(list(ids[i:] + ids[:i]))
        elif isinstance(field, corpus.EnumField):
            columns.append([field.order[(i + j) % len(field.order)] for j in range(n)])
        elif isinstance(field, corpus.DateField):
            columns.append([datetime.date(2021, 3, 1 + j) for j in range(n)])
        elif isinstance(field, corpus.FloatField):
            columns.append([EDGE_FLOATS[(i + j) % 6] if field.name == "rhat" else 0.5 + j
                            for j in range(n)])
        elif isinstance(field, corpus.FlagField):
            columns.append([j % 2 == 0 for j in range(n)])
        else:
            columns.append([field.minimum + j for j in range(n)])
    return columns


ID_TABLES = (corpus.ArticleTable, corpus.OutletTable, corpus.FollowerTable, corpus.RetweetTable,
             corpus._CountRows, latent.PosteriorTable, metrics.BiasTable, metrics.EngagementTable,
             network.ClusterTable)


def table_classes(cls=corpus.Table):
    for sub in cls.__subclasses__():
        yield sub
        yield from table_classes(sub)


class TestBlockWriter:
    @pytest.mark.parametrize("write_rows", [3, corpus._WRITE_ROWS])
    @pytest.mark.parametrize("cls", list(writer_records(1)), ids=lambda cls: cls.__name__)
    def test_matches_csv_writer_byte_for_byte(self, cls, write_rows, monkeypatch):
        monkeypatch.setattr(corpus, "_WRITE_ROWS", write_rows)
        records = writer_records(40)[cls]
        out = io.StringIO()
        corpus._write(cls, records, out)
        assert out.getvalue() == csv_writer_text(cls, records)
        assert corpus._parse(io.StringIO(out.getvalue(), newline=""), "csv", cls) == records

    def test_rows_give_the_same_bytes_in_any_blocks(self):
        records = writer_records(40)[corpus.ArticleTable]
        table = corpus.ArticleTable.from_records(records)
        columns = [f.text(table) for f in corpus.ArticleTable.fields]

        def written(blocks):
            out = io.StringIO()
            corpus._write_columns(corpus.ARTICLE_FIELDS, blocks, out)
            return out.getvalue()

        def shared(start, stop):  # rows start..stop-1, coded into the whole table's texts
            return [(codes[start:stop], texts) for codes, texts in columns]

        def own(start, stop):  # the same rows, each block with only its own texts
            return [(np.arange(stop - start), [texts[i] for i in codes[start:stop]])
                    for codes, texts in columns]

        whole = written([columns])
        assert whole == csv_writer_text(corpus.ArticleTable, records)
        for rows in (shared, own):
            assert written(rows(a, b) for a, b in [(0, 17), (17, 18), (18, 18), (18, 40)]) == whole
        assert written([]) == ",".join(corpus.ARTICLE_FIELDS) + "\n"

    def test_table_larger_than_a_write_block(self):
        records = writer_records(corpus._WRITE_ROWS + 5)[corpus.ArticleTable]
        out = io.StringIO()
        corpus.write_articles(records, out)
        assert out.getvalue() == csv_writer_text(corpus.ArticleTable, records)
        assert corpus.parse_articles(io.StringIO(out.getvalue(), newline="")) == records

    def test_edges_match_csv_writer_byte_for_byte(self, monkeypatch):
        monkeypatch.setattr(corpus, "_WRITE_ROWS", 4)
        nodes = sorted(WRITER_IDS)
        weights = itertools.cycle([0.1 + 0.2, 1.0, 5e-324, 0.5])
        graph = network.AudienceGraph.from_edges(
            nodes, {pair: next(weights) for pair in itertools.combinations(nodes, 2)})
        out, expected = io.StringIO(), io.StringIO()
        network.write_edges_csv(graph, out)
        csv.writer(expected, lineterminator="\n").writerows(
            [network.EDGE_FIELDS, *([u, v, repr(w)] for (u, v), w in graph.edges.items())])
        assert out.getvalue() == expected.getvalue()


class TestCarriageReturnIds:
    # csv.writer on Python 3.11 wrote an id holding a lone CR bare, so a stage
    # could not read back the artifact the stage before it wrote

    def test_every_table_with_an_id_field_is_listed(self):
        with_ids = {cls for cls in table_classes() if cls.__module__.startswith("newsbias")
                    and any(isinstance(f, corpus.IdField) for f in cls.fields)}
        assert with_ids == set(ID_TABLES)

    @pytest.mark.parametrize("cls", ID_TABLES, ids=lambda cls: cls.__name__)
    def test_round_trip(self, cls):
        table = cls.from_records(zip(*sample_columns(cls, CR_IDS)))
        assert cls.from_records(list(table)) == table
        out = io.StringIO()
        corpus._write(cls, table, out)
        text = out.getvalue()
        assert '"u\r0"' in text and '"\r"' in text and '"q""\r"' in text
        for newline in ("", "\n"):
            parsed = corpus._parse(io.StringIO(text, newline=newline), "csv", cls)
            assert parsed == table
            again = io.StringIO()
            corpus._write(cls, parsed, again)
            assert again.getvalue() == text

    @pytest.mark.parametrize("cls", ID_TABLES, ids=lambda cls: cls.__name__)
    def test_built_id_that_xml_cannot_carry_raises(self, cls):
        # parsing rejects such an id at its line; a table built from columns
        # holds the same rule
        table = cls.from_records(zip(*sample_columns(cls, ("o1", "o2"))))
        columns, ids = table._columns(), table._ids()
        with pytest.raises(ValueError, match=r"^outlet_id 'o\\x01' holds a character XML"):
            cls(columns, {**ids, "outlet_id": ("o\x01", "o2")})
        assert cls(columns, {**ids, "outlet_id": ("o\t1", "o2")}).outlet_ids == ("o\t1", "o2")

    def test_edges_read_back_by_csv_reader(self):
        nodes = sorted(CR_IDS)
        graph = network.AudienceGraph.from_edges(
            nodes, {pair: 0.25 for pair in itertools.combinations(nodes, 2)})
        out = io.StringIO()
        network.write_edges_csv(graph, out)
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert rows == [list(network.EDGE_FIELDS),
                        *([u, v, "0.25"] for u, v in itertools.combinations(nodes, 2))]
