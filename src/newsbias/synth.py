"""Synthetic corpus and audience generators with a ground-truth sidecar.

Plants known latent parameters per outlet and event type, draws counts from
the latent model and expands them into articles, and builds a retweet
population with planted audience communities, so the whole pipeline can be
exercised and checked against the truth it was generated from.

`generate` draws each table as whole numpy columns and returns the tables
the pipeline itself reads (`corpus.OutletTable`, `ArticleTable`,
`FollowerTable` and `RetweetTable`). Each part of the corpus (registry,
parameters, articles, followers, retweets) draws from its own child of
`np.random.SeedSequence(seed)`, so a change to the draws of one part leaves
the others as they were.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .corpus import (
    EVENT_ORDER,
    PLATFORMS,
    ArticleTable,
    EventType,
    FollowerTable,
    InputError,
    OutletKind,
    OutletTable,
    Platform,
    Reliability,
    RetweetTable,
)
from .latent import ModelConstants, simulate_counts

_PARTS = ("registry", "parameters", "articles", "followers", "retweets")
_USERS_PER_CLUSTER = 40  # simulated retweeting users planted in each audience cluster


@dataclass(frozen=True)
class SyntheticData:
    articles: ArticleTable
    outlets: OutletTable
    followers: FollowerTable
    retweets: RetweetTable
    truth: dict


def generate(
    n_outlets: int = 12,
    n_clusters: int = 2,
    seed: int = 0,
    window: tuple[datetime.date, datetime.date] = (
        datetime.date(2020, 1, 1),
        datetime.date(2021, 12, 31),
    ),
    alpha_loc: float = 2.2,
) -> SyntheticData:
    """Build a corpus with planted stances, propensities, and audiences.

    Outlet i belongs to cluster i % n_clusters. Cluster 0 is seeded
    anti-leaning (negative stances, adverse-heavy propensity, mostly
    questionable outlets); the last cluster is the mirror image. Stances
    are clipped to [-0.9, 0.9], where the latent model is well identified.
    """
    if n_outlets < n_clusters or n_clusters < 1:
        raise InputError("need at least one outlet per cluster")
    if window[0] > window[1]:
        raise InputError("window start must be <= window end")
    rng = dict(zip(_PARTS, map(np.random.default_rng,
                               np.random.SeedSequence(seed).spawn(len(_PARTS)))))
    start, end = window
    outlet_ids = tuple(f"o{i:03d}" for i in range(n_outlets))
    row = np.arange(n_outlets)
    cluster = row % n_clusters

    questionable = rng["registry"].random(n_outlets) < np.where(cluster == 0, 0.75, 0.15)
    labels = tuple(Reliability)
    reliability = np.where(questionable, labels.index(Reliability.QUESTIONABLE),
                           labels.index(Reliability.RELIABLE))
    kind = row % len(OutletKind)  # outlet i is of the (i mod 4)-th kind, in OutletKind's order
    outlets = OutletTable(
        [row, row, reliability, kind],
        {"outlet_id": outlet_ids, "name": [f"Outlet {i}" for i in range(n_outlets)]},
    )

    # planted latent parameters, one row per event type, biased by cluster
    alpha = rng["parameters"].normal(alpha_loc, 0.5, (len(EVENT_ORDER), n_outlets))
    alpha[EVENT_ORDER.index(EventType.ADVERSE), cluster == 0] += 0.7
    alpha[EVENT_ORDER.index(EventType.POSITIVE), cluster == n_clusters - 1] += 0.7
    center = -0.5 + cluster / (n_clusters - 1) if n_clusters > 1 else np.zeros(n_outlets)
    x = np.clip(rng["parameters"].normal(center, 0.3, alpha.shape), -0.9, 0.9)

    # articles: event-major, then outlet, then narrative, as the cells count them
    per_event = []
    for k in range(len(EVENT_ORDER)):
        counts = simulate_counts(alpha[k], x[k], ModelConstants(), rng["articles"])
        cell = np.repeat(np.arange(counts.size), counts.ravel())
        outlet, narrative = np.divmod(cell, counts.shape[1])
        n = len(cell)
        per_event.append([
            outlet,
            rng["articles"].integers(0, len(PLATFORMS), n),
            start.toordinal() + rng["articles"].integers(0, (end - start).days + 1, n),
            narrative,
            np.full(n, k),
            # engagement grows with stance extremity, planting the U-shape
            rng["articles"].poisson(30.0 * (1.0 + 3.0 * x[k][outlet] ** 2)),
        ])
    articles = ArticleTable([np.concatenate(c) for c in zip(*per_event)], {"outlet_id": outlet_ids})

    # followers: a Facebook then a Twitter account per outlet, over the window
    accounts = [PLATFORMS.index(p) for p in (Platform.FACEBOOK, Platform.TWITTER)]
    n = len(accounts) * n_outlets
    followers = FollowerTable(
        [np.repeat(row, len(accounts)), np.tile(accounts, n_outlets),
         np.full(n, start.toordinal()), np.full(n, end.toordinal()),
         rng["followers"].integers(2_000, 100_000, n)],
        {"outlet_id": outlet_ids},
    )

    # retweets: each cluster's users retweet its outlets often and others
    # rarely; rows are user-major, outlets in registry order
    per_cluster = []
    for g in range(n_clusters):
        member = cluster == g
        hit = rng["retweets"].random((_USERS_PER_CLUSTER, n_outlets)) < np.where(member, 0.6, 0.03)
        user, outlet = np.nonzero(hit)
        count = np.ones(len(outlet), dtype=np.int64)
        inside = member[outlet]
        count[inside] += rng["retweets"].poisson(2.0, int(inside.sum()))
        per_cluster.append([g * _USERS_PER_CLUSTER + user, outlet, count])
    retweets = RetweetTable(
        [np.concatenate(c) for c in zip(*per_cluster)],
        {"user_id": [f"u{u:04d}" for u in range(n_clusters * _USERS_PER_CLUSTER)],
         "outlet_id": outlet_ids},
    )

    truth = {
        "seed": seed,
        "n_outlets": n_outlets,
        "n_clusters": n_clusters,
        "window": [start.isoformat(), end.isoformat()],
        "alpha": {e.value: dict(zip(outlet_ids, a)) for e, a in zip(EVENT_ORDER, alpha.tolist())},
        "x": {e.value: dict(zip(outlet_ids, s)) for e, s in zip(EVENT_ORDER, x.tolist())},
        "outlet_clusters": dict(zip(outlet_ids, cluster.tolist())),
    }
    return SyntheticData(
        articles=articles,
        outlets=outlets,
        followers=followers,
        retweets=retweets,
        truth=truth,
    )
