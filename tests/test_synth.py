import datetime

import numpy as np
import pytest

from newsbias import corpus, synth
from newsbias.corpus import PLATFORMS, Platform

WINDOW = (datetime.date(2020, 3, 1), datetime.date(2020, 8, 31))
SETTINGS = [(12, 1), (30, 3)]


@pytest.fixture(scope="module", params=SETTINGS, ids=lambda s: f"{s[0]}-outlets-{s[1]}-clusters")
def data(request):
    n_outlets, n_clusters = request.param
    return synth.generate(n_outlets, n_clusters, seed=3, window=WINDOW)


def test_tables_are_the_pipeline_tables(data):
    assert isinstance(data.articles, corpus.ArticleTable)
    assert isinstance(data.outlets, corpus.OutletTable)
    assert isinstance(data.followers, corpus.FollowerTable)
    assert isinstance(data.retweets, corpus.RetweetTable)
    n = data.truth["n_outlets"]
    assert [o.outlet_id for o in data.outlets] == [f"o{i:03d}" for i in range(n)]
    assert len(data.followers) == 2 * n


def test_stances_lie_in_the_clip(data):
    stances = [x for per_event in data.truth["x"].values() for x in per_event.values()]
    assert len(stances) == 3 * data.truth["n_outlets"]
    assert all(-0.9 <= x <= 0.9 for x in stances)


def test_articles_fall_in_the_window_on_the_four_platforms(data):
    articles = data.articles
    assert len(articles) > 0
    days = articles.date
    assert WINDOW[0].toordinal() <= days.min() and days.max() <= WINDOW[1].toordinal()
    assert {PLATFORMS[p] for p in np.unique(articles.platform)} == set(Platform)
    assert data.truth["window"] == [d.isoformat() for d in WINDOW]


def test_follower_counts_lie_in_their_range(data):
    counts = data.followers.followers
    assert 2_000 <= counts.min() and counts.max() < 100_000
    assert {(f.platform, f.period_start, f.period_end) for f in data.followers} == {
        (Platform.FACEBOOK, *WINDOW), (Platform.TWITTER, *WINDOW)}


def test_retweet_counts_by_cluster(data):
    cluster_of = data.truth["outlet_clusters"]
    inside, across = [], []
    for rec in data.retweets:
        user_cluster = int(rec.user_id[1:]) // 40  # 40 users planted per cluster
        (inside if cluster_of[rec.outlet_id] == user_cluster else across).append(rec.count)
    assert inside and min(inside) >= 1 and max(inside) > 1
    assert set(across) <= {1}
    if data.truth["n_clusters"] > 1:
        assert across


@pytest.mark.parametrize("n_outlets, n_clusters", SETTINGS)
def test_same_seed_gives_equal_tables_and_truth(n_outlets, n_clusters):
    one = synth.generate(n_outlets, n_clusters, seed=8, window=WINDOW)
    two = synth.generate(n_outlets, n_clusters, seed=8, window=WINDOW)
    for name in ("articles", "outlets", "followers", "retweets"):
        assert getattr(one, name) == getattr(two, name)
    assert one.truth == two.truth
    other = synth.generate(n_outlets, n_clusters, seed=9, window=WINDOW)
    assert other.articles != one.articles


@pytest.mark.parametrize("n_outlets, n_clusters", SETTINGS)
def test_each_part_draws_from_its_own_stream(n_outlets, n_clusters):
    low = synth.generate(n_outlets, n_clusters, seed=8, window=WINDOW, alpha_loc=2.0)
    high = synth.generate(n_outlets, n_clusters, seed=8, window=WINDOW, alpha_loc=2.5)
    assert low.outlets == high.outlets
    assert low.followers == high.followers
    assert low.retweets == high.retweets
    assert low.truth["x"] == high.truth["x"]
    assert low.articles != high.articles
