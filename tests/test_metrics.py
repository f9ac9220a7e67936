import datetime
import io
import math

import numpy as np
import pytest

import oracle_helpers
from newsbias import corpus, latent, metrics
from newsbias.corpus import (
    EVENT_ORDER,
    ArticleRecord,
    EventType,
    FollowerRecord,
    Narrative,
    Platform,
    Reliability,
)
from newsbias.metrics import (
    adjusted_engagement,
    average_followers,
    build_bias_table,
    build_engagement_table,
    quadratic_fit,
    selection_index,
)


class TestSelectionIndex:
    def test_balanced_outlet_is_zero(self):
        rng = np.random.default_rng(0)
        for a in rng.normal(0, 3, 50):
            assert selection_index(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_axis_value(self):
        assert selection_index(2.0, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_hand_value(self):
        assert selection_index(-1.3, 0.9) == pytest.approx(2.2 / math.sqrt(2), abs=1e-12)

    def test_closed_form_and_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, p = rng.normal(0, 5, 2)
            value = selection_index(a, p)
            assert value == pytest.approx(abs(a - p) / math.sqrt(2), abs=1e-12)
            assert value == pytest.approx(selection_index(p, a), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, p, shift = rng.normal(0, 3, 3)
            assert selection_index(a + shift, p + shift) == pytest.approx(
                selection_index(a, p), abs=1e-9
            )

    def test_other_theta(self):
        theta = 0.3
        a, p = 1.5, -0.4
        assert selection_index(a, p, theta) == pytest.approx(
            abs(math.sin(theta) * a - math.cos(theta) * p), abs=1e-15
        )

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            selection_index(1.0, 1.0, theta=0.0)
        with pytest.raises(ValueError):
            selection_index(1.0, 1.0, theta=math.pi / 2)


class TestAdjustedEngagement:
    def test_simple_values(self):
        assert adjusted_engagement(100, 10, 1000.0) == pytest.approx(0.01)
        assert adjusted_engagement(0, 5, 100.0) == 0.0
        assert adjusted_engagement(333, 7, 2500.0) == pytest.approx(
            333 / 17500, abs=1e-15
        )
        # arrays broadcast, element by element as the scalar formula
        out = adjusted_engagement(np.array([100, 0, 333]), np.array([10, 5, 7]), 2500.0)
        assert out.tolist() == [100 / 25000, 0.0, 333 / 17500]

    def test_errors(self):
        with pytest.raises(ValueError, match="no content"):
            adjusted_engagement(10, 0, 100.0)
        with pytest.raises(ValueError, match="followers"):
            adjusted_engagement(10, 1, 0.0)
        with pytest.raises(ValueError, match="interactions"):
            adjusted_engagement(-1, 1, 10.0)
        with pytest.raises(ValueError, match="no content"):
            adjusted_engagement(np.array([10, 10]), np.array([1, 0]), 100.0)

    def test_scaling_laws(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            i = int(rng.integers(0, 1000))
            c = int(rng.integers(1, 50))
            f = float(rng.uniform(10, 1e5))
            assert adjusted_engagement(i, c, 2 * f) == pytest.approx(
                adjusted_engagement(i, c, f) / 2, rel=1e-12
            )
            assert adjusted_engagement(2 * i, 2 * c, f) == pytest.approx(
                adjusted_engagement(i, c, f), rel=1e-12
            )


def follower_record(outlet, start, end, followers, platform=Platform.FACEBOOK):
    return FollowerRecord(outlet, platform, start, end, followers)


WINDOW = (datetime.date(2021, 1, 1), datetime.date(2021, 12, 31))


class TestAverageFollowers:
    def test_single_record(self):
        records = [follower_record("o1", WINDOW[0], WINDOW[1], 5000)]
        assert average_followers(records, WINDOW) == {"o1": 5000.0}

    def test_unweighted_mean_across_platforms(self):
        records = [
            follower_record("o1", WINDOW[0], WINDOW[1], 1000),
            follower_record("o1", WINDOW[0], WINDOW[1], 3000, Platform.TWITTER),
        ]
        assert average_followers(records, WINDOW) == {"o1": 2000.0}

    def test_record_outside_window_ignored(self):
        records = [
            follower_record("o1", datetime.date(2020, 1, 1), datetime.date(2020, 6, 30), 9999),
            follower_record("o1", WINDOW[0], WINDOW[1], 100),
            follower_record("o1", WINDOW[0], WINDOW[1], 300, Platform.TWITTER),
        ]
        assert average_followers(records, WINDOW) == {"o1": 200.0}

    def test_duration_weighted(self):
        # 100 days at 1000 followers vs 50 days at 4000
        records = [
            follower_record("o1", datetime.date(2021, 1, 1), datetime.date(2021, 4, 10), 1000),
            follower_record(
                "o1",
                datetime.date(2021, 5, 1),
                datetime.date(2021, 6, 19),
                4000,
                Platform.TWITTER,
            ),
        ]
        out = average_followers(records, WINDOW, duration_weighted=True)
        assert out["o1"] == pytest.approx((100 * 1000 + 50 * 4000) / 150)

    def test_missing_outlets_absent(self):
        assert average_followers([], WINDOW) == {}

    def test_matches_record_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        records = []
        for _ in range(300):
            start, end = sorted(datetime.date(2020, 6, 1) + datetime.timedelta(days=int(d))
                                for d in rng.integers(0, 900, 2))
            followers = int(rng.integers(0, 2**62 if rng.random() < 0.2 else 10**6))
            records.append(follower_record(f"o{rng.integers(40)}", start, end, followers))
        late = datetime.date(2022, 1, 1), datetime.date(2022, 2, 1)
        records.append(follower_record("late", *late, 5))
        for weighted in (False, True):
            out = average_followers(records, WINDOW, duration_weighted=weighted)
            expected = oracle_helpers.average_followers_by_row(records, WINDOW, weighted)
            assert "late" not in out and out == expected


class TestQuadraticFit:
    def test_exact_polynomial(self):
        xs = np.linspace(-2, 2, 9)
        ys = 1 + 2 * xs + 3 * xs**2
        fit = quadratic_fit(xs, ys)
        assert (fit.c0, fit.c1, fit.c2) == pytest.approx((1.0, 2.0, 3.0), abs=1e-9)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)
        assert fit.is_convex

    def test_line_has_zero_curvature(self):
        xs = np.linspace(0, 5, 12)
        fit = quadratic_fit(xs, 4 - 0.5 * xs)
        assert abs(fit.c2) < 1e-9

    def test_noisy_u_shape(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 2, 200)
        ys = xs**2 + rng.normal(0, 0.1, 200)
        fit = quadratic_fit(xs, ys)
        assert fit.c2 > 0.9

    def test_rank_deficient(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            quadratic_fit([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="rank-deficient"):
            quadratic_fit([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3 points"):
            quadratic_fit([1.0, 2.0], [1.0, 2.0])

    def test_curvature_sign_invariant_under_translation(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1, 1, 60)
        ys = 0.5 * xs**2 - xs + rng.normal(0, 0.05, 60)
        shifted = quadratic_fit(xs + 10.0, ys)
        assert (quadratic_fit(xs, ys).c2 > 0) == (shifted.c2 > 0)


def posterior_for(rows: dict[str, tuple[float, float, float, float, float, float]], drop=()):
    """rows: outlet -> (pf_adv, x_adv, pf_neu, x_neu, pf_pos, x_pos), as a
    PosteriorTable without the (outlet, event, param) cells in `drop`."""
    cells = [(o, event, param, v[2 * k + j]) for o, v in rows.items()
             for k, event in enumerate(EVENT_ORDER) for j, param in enumerate(latent.PARAMS)
             if (o, event, param) not in drop]
    columns = [list(c) for c in zip(*cells)] or [[], [], [], []]
    return latent.PosteriorTable.from_records(zip(*[*columns, *[[1.0] * len(cells)] * 5]))


class TestBuildBiasTable:
    def test_tie_is_not_adverse_leaning(self):
        table = build_bias_table(posterior_for({"o1": (1.0, 0.1, 0.0, 0.0, 1.0, -0.1)}), {})
        assert table[0].selection_index == pytest.approx(0.0, abs=1e-12)
        assert table[0].adverse_lean is False

    def test_adverse_leaning_outlet(self):
        table = build_bias_table(posterior_for({"o1": (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)}), {})
        assert table[0].selection_index == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert table[0].adverse_lean is True

    def test_row_invariants_on_random_tables(self):
        rng = np.random.default_rng(8)
        rows = {
            f"o{i}": tuple(rng.normal(0, 2, 6)) for i in range(40)
        }
        table = build_bias_table(posterior_for(rows), {})
        assert len(table) == 40
        for row in table:
            assert row.selection_index >= 0
            assert row.adverse_lean == (row.pf_adv > row.pf_pos)
            assert row.selection_index == pytest.approx(
                abs(row.pf_adv - row.pf_pos) / math.sqrt(2), abs=1e-12
            )

    def test_outlet_missing_one_fit_excluded(self, caplog):
        rows = {"o1": (1, 0, 1, 0, 1, 0), "o2": (2, 0, 2, 0, 2, 0)}
        posterior = posterior_for(rows, drop={("o2", EventType.NEUTRAL, p) for p in latent.PARAMS})
        with caplog.at_level("WARNING"):
            table = build_bias_table(posterior, {})
        assert [row.outlet_id for row in table] == ["o1"]
        assert "o2" in caplog.text

    def test_missing_event_type_raises(self):
        posterior = posterior_for({"o1": (1, 0, 1, 0, 1, 0)},
                                  drop={("o1", EventType.POSITIVE, p) for p in latent.PARAMS})
        with pytest.raises(ValueError, match="positive"):
            build_bias_table(posterior, {})

    def test_rows_sorted_by_outlet(self):
        table = build_bias_table(
            posterior_for({"z": (1, 0, 1, 0, 1, 0), "a": (1, 0, 1, 0, 1, 0)}), {}
        )
        assert [row.outlet_id for row in table] == ["a", "z"]

    @pytest.mark.parametrize("seed", range(20))
    def test_columns_match_the_by_row_oracle(self, seed, caplog):
        """Random posteriors with incomplete outlets, pf ties, -0.0 means, an
        unregistered outlet and a random theta: the columnar table spells
        exactly what the per-outlet loop builds, and names the same exclusions."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        values = rng.choice([-0.0, 0.0, 0.5, -1.25], size=(n, 6))
        drawn = rng.random((n, 6)) < 0.5
        values[drawn] = rng.normal(0, 2, int(drawn.sum()))
        values[0, 4] = values[0, 0]  # a pf_adv == pf_pos tie
        values[0, 1] = -0.0
        ids = [f"o{i:02d}" for i in rng.permutation(n)]  # not in sorted order
        rows = dict(zip(ids, map(tuple, values.tolist())))
        drop = {(ids[1], EVENT_ORDER[int(rng.integers(3))], "x")}  # one event's x row
        if rng.random() < 0.5:
            drop.add((ids[2], EVENT_ORDER[int(rng.integers(3))], "alpha"))
        excluded = sorted(o for o, *_ in drop)
        if seed % 2:  # an outlet with one alpha row and no event fit is dropped unnamed
            drop.update((ids[3], e, p) for e in EVENT_ORDER[1:] for p in latent.PARAMS)
            drop.add((ids[3], EVENT_ORDER[0], "x"))
        posterior = posterior_for(rows, drop)
        labels = list(Reliability)
        reliability = {oid: labels[int(rng.integers(2))] for oid in ids[1:]}  # ids[0] unregistered
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05)) if seed % 4 else math.pi / 4
        with caplog.at_level("WARNING"):
            table = build_bias_table(posterior, reliability, theta)
        columnar = [r.message for r in caplog.records]
        expected = oracle_helpers.build_bias_table_by_row(posterior, reliability, theta)
        assert len(table) == n - len(excluded) - seed % 2 and table == expected
        assert text_of(metrics.BiasTable, table) == text_of(metrics.BiasTable, expected)
        assert columnar == [f"excluding {len(excluded)} outlet(s) without all three event fits: "
                            + ", ".join(excluded)]


def text_of(cls, records) -> str:
    buf = io.StringIO()
    corpus._write(cls, records, buf)
    return buf.getvalue()


def article(outlet, event, interactions, day=15):
    return ArticleRecord(
        outlet_id=outlet,
        platform=Platform.FACEBOOK,
        date=datetime.date(2021, 6, day),
        narrative=Narrative.NEUTRAL,
        event=event,
        interactions=interactions,
    )


class TestEngagementTable:
    def test_basic_row(self):
        articles = [
            article("o1", EventType.ADVERSE, 60),
            article("o1", EventType.ADVERSE, 40),
            article("o1", EventType.POSITIVE, 10),
        ]
        followers = [follower_record("o1", WINDOW[0], WINDOW[1], 1000)]
        rows = build_engagement_table(articles, followers, window=WINDOW)
        assert len(rows) == 2
        adverse = rows[0]
        assert adverse.event_type is EventType.ADVERSE
        assert adverse.contents == 2
        assert adverse.interactions == 100
        assert adverse.engagement == pytest.approx(100 / (2 * 1000))

    def test_outlet_without_followers_skipped(self, caplog):
        articles = [article("o1", EventType.NEUTRAL, 5), article("o2", EventType.NEUTRAL, 5)]
        followers = [follower_record("o1", WINDOW[0], WINDOW[1], 100)]
        with caplog.at_level("WARNING"):
            rows = build_engagement_table(articles, followers, window=WINDOW)
        assert [r.outlet_id for r in rows] == ["o1"]
        assert "o2" in caplog.text

    def test_default_window_is_article_range(self):
        articles = [article("o1", EventType.NEUTRAL, 5, day=1), article("o1", EventType.NEUTRAL, 5, day=30)]
        followers = [
            follower_record("o1", datetime.date(2021, 6, 1), datetime.date(2021, 6, 30), 50)
        ]
        rows = build_engagement_table(articles, followers)
        assert rows[0].contents == 2

    def test_empty_articles(self):
        assert build_engagement_table([], []) == []


class TestEngagementBiasFits:
    def test_six_panels_with_planted_convexity(self):
        rng = np.random.default_rng(9)
        bias_rows = []
        engagement = []
        for i in range(60):
            x = float(rng.uniform(-1, 1))
            pf_gap = float(rng.uniform(-1.5, 1.5))
            bias_rows.append(
                metrics.BiasRow(
                    outlet_id=f"o{i:02d}",
                    reliability=None,
                    x_adv=x,
                    x_neu=x,
                    x_pos=x,
                    pf_adv=1.0 + pf_gap,
                    pf_neu=1.0,
                    pf_pos=1.0,
                    selection_index=abs(pf_gap) / math.sqrt(2),
                    adverse_lean=pf_gap > 0,
                )
            )
            for event in (EventType.ADVERSE, EventType.NEUTRAL, EventType.POSITIVE):
                engagement.append(
                    metrics.EngagementRecord(
                        outlet_id=f"o{i:02d}",
                        event_type=event,
                        contents=10,
                        interactions=100,
                        followers=1000.0,
                        engagement=x * x + float(rng.normal(0, 0.02)),
                    )
                )
        fits = metrics.engagement_bias_fits(bias_rows, engagement)
        assert set(fits) == {"narrative", "selection"}
        for event_name in ("adverse", "neutral", "positive"):
            panel = fits["narrative"][event_name]
            assert panel["n_points"] == 60
            assert panel["convex"] and panel["c2"] > 0.9

    def test_insufficient_points_reported(self):
        fits = metrics.engagement_bias_fits([], [])
        assert fits["narrative"]["adverse"]["n_points"] == 0
        assert "error" in fits["narrative"]["adverse"]
