"""Synthetic corpus and audience generators with a ground-truth sidecar.

Plants known latent parameters per outlet and event type, expands simulated
counts into article records, and builds a retweet population with planted
audience communities, so the whole pipeline can be exercised and checked
against the truth it was generated from.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .corpus import (
    EVENT_ORDER,
    NARRATIVE_ORDER,
    ArticleRecord,
    FollowerRecord,
    InputError,
    OutletKind,
    OutletProfile,
    Platform,
    Reliability,
    RetweetRecord,
)
from .latent import ModelConstants, simulate_counts

_PLATFORM_CYCLE = (Platform.FACEBOOK, Platform.TWITTER, Platform.INSTAGRAM, Platform.YOUTUBE)
_KIND_CYCLE = (OutletKind.NEWSPAPER, OutletKind.ONLINE, OutletKind.TV, OutletKind.RADIO)
_USERS_PER_CLUSTER = 40  # simulated retweeting users planted in each audience cluster


@dataclass(frozen=True)
class SyntheticData:
    articles: list[ArticleRecord]
    outlets: list[OutletProfile]
    followers: list[FollowerRecord]
    retweets: list[RetweetRecord]
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

    Cluster 0 is seeded anti-leaning (negative stances, adverse-heavy
    propensity, mostly questionable outlets); the last cluster is the
    mirror image. Stances stay inside (-0.9, 0.9) where the latent model
    is well identified.
    """
    if n_outlets < n_clusters or n_clusters < 1:
        raise InputError("need at least one outlet per cluster")
    if window[0] > window[1]:
        raise InputError("window start must be <= window end")
    rng = np.random.default_rng(seed)
    start, end = window
    n_days = (end - start).days + 1

    outlet_ids = [f"o{i:03d}" for i in range(n_outlets)]
    cluster_of = {oid: i % n_clusters for i, oid in enumerate(outlet_ids)}

    outlets = []
    for i, oid in enumerate(outlet_ids):
        p_questionable = 0.75 if cluster_of[oid] == 0 else 0.15
        outlets.append(
            OutletProfile(
                outlet_id=oid,
                name=f"Outlet {i}",
                reliability=(
                    Reliability.QUESTIONABLE
                    if rng.random() < p_questionable
                    else Reliability.RELIABLE
                ),
                kind=_KIND_CYCLE[i % len(_KIND_CYCLE)],
            )
        )

    # planted latent parameters, biased by cluster
    def stance_center(cluster: int) -> float:
        if n_clusters == 1:
            return 0.0
        return -0.5 + cluster / (n_clusters - 1)

    alpha_true: dict[str, dict[str, float]] = {}
    x_true: dict[str, dict[str, float]] = {}
    for event in EVENT_ORDER:
        alpha_true[event.value] = {}
        x_true[event.value] = {}
        for oid in outlet_ids:
            g = cluster_of[oid]
            a = rng.normal(alpha_loc, 0.5)
            if g == 0 and event.value == "adverse":
                a += 0.7
            if g == n_clusters - 1 and event.value == "positive":
                a += 0.7
            x = float(np.clip(rng.normal(stance_center(g), 0.3), -0.9, 0.9))
            alpha_true[event.value][oid] = float(a)
            x_true[event.value][oid] = x

    articles: list[ArticleRecord] = []
    for event in EVENT_ORDER:
        alphas = np.array([alpha_true[event.value][oid] for oid in outlet_ids])
        stances = np.array([x_true[event.value][oid] for oid in outlet_ids])
        counts = simulate_counts(alphas, stances, ModelConstants(), rng)
        for i, oid in enumerate(outlet_ids):
            # engagement grows with stance extremity, planting the U-shape
            rate = 30.0 * (1.0 + 3.0 * stances[i] ** 2)
            for j, narrative in enumerate(NARRATIVE_ORDER):
                for _ in range(int(counts[i, j])):
                    day = int(rng.integers(0, n_days))
                    articles.append(
                        ArticleRecord(
                            outlet_id=oid,
                            platform=_PLATFORM_CYCLE[int(rng.integers(0, 4))],
                            date=start + datetime.timedelta(days=day),
                            narrative=narrative,
                            event=event,
                            interactions=int(rng.poisson(rate)),
                        )
                    )

    followers = []
    for oid in outlet_ids:
        for platform in (Platform.FACEBOOK, Platform.TWITTER):
            followers.append(
                FollowerRecord(
                    outlet_id=oid,
                    platform=platform,
                    period_start=start,
                    period_end=end,
                    followers=int(rng.integers(2_000, 100_000)),
                )
            )

    by_cluster: dict[int, list[str]] = {}
    for oid in outlet_ids:
        by_cluster.setdefault(cluster_of[oid], []).append(oid)
    retweets = []
    user_no = 0
    for g in sorted(by_cluster):
        for _ in range(_USERS_PER_CLUSTER):
            uid = f"u{user_no:04d}"
            user_no += 1
            for oid in outlet_ids:
                if cluster_of[oid] == g:
                    if rng.random() < 0.6:
                        retweets.append(
                            RetweetRecord(uid, oid, 1 + int(rng.poisson(2.0)))
                        )
                elif rng.random() < 0.03:
                    retweets.append(RetweetRecord(uid, oid, 1))

    truth = {
        "seed": seed,
        "n_outlets": n_outlets,
        "n_clusters": n_clusters,
        "window": [start.isoformat(), end.isoformat()],
        "alpha": alpha_true,
        "x": x_true,
        "outlet_clusters": cluster_of,
    }
    return SyntheticData(
        articles=articles,
        outlets=outlets,
        followers=followers,
        retweets=retweets,
        truth=truth,
    )
