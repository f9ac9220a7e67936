"""Selection index, adjusted engagement, and bias-vs-engagement regressions.

Inputs are the posterior means of the latent fits (a PosteriorTable) plus
the raw corpus articles (an ArticleTable or records); everything here is
closed-form array arithmetic on table columns. The bias and engagement
tables are the schemas of bias.csv and engagement.csv, which later stages
read back; both are built straight from columns, with no record per outlet.
"""

from __future__ import annotations

import datetime
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (EVENT_ORDER, ArticleRecord, ArticleTable, CountField, EnumField, FlagField,
                     FloatField, FollowerRecord, FollowerTable, IdField, InputError, Reliability,
                     Table, filter_articles, rows_of)
from .latent import PARAMS, PosteriorTable

log = logging.getLogger(__name__)


def selection_index(pf_adv, pf_pos, theta: float = math.pi / 4):
    """Distance of (pf_adv, pf_pos) from the theta-line through the origin.

    |sin(theta) * pf_adv - cos(theta) * pf_pos|; at theta = pi/4 this is
    |pf_adv - pf_pos| / sqrt(2), zero for outlets that report both event
    types with equal propensity. Floats give a float; arrays broadcast.
    """
    if not 0.0 < theta < math.pi / 2:
        raise InputError("theta must lie in (0, pi/2)")
    return abs(math.sin(theta) * pf_adv - math.cos(theta) * pf_pos)


def adjusted_engagement(interactions: int, contents: int, followers: float) -> float:
    """Interactions per article per follower: I / (C * F)."""
    if contents < 1:
        raise ValueError("engagement undefined: no content published")
    if followers <= 0:
        raise ValueError("followers must be > 0")
    if interactions < 0:
        raise ValueError("interactions must be >= 0")
    return interactions / (contents * followers)


def average_followers(
    records: Iterable[FollowerRecord],
    window: tuple[datetime.date, datetime.date],
    duration_weighted: bool = False,
) -> dict[str, float]:
    """Mean follower count per outlet over records overlapping the window.

    The default is the unweighted mean across an outlet's platform-period
    records; duration_weighted weights each record by its overlap in days.
    Outlets with no overlapping record are absent from the result.
    """
    start, end = (day.toordinal() for day in window)
    if start > end:
        raise InputError("window start must be <= window end")
    table = FollowerTable.from_records(records)
    kept = (table.period_start <= end) & (table.period_end >= start)
    if duration_weighted:
        overlap = np.minimum(table.period_end, end) - np.maximum(table.period_start, start) + 1
        w = overlap[kept].astype(np.float64)
    else:
        w = np.ones(int(kept.sum()))
    # bincount adds in row order, as a running sum per outlet would
    codes, n = table.outlet_id[kept], len(table.outlet_ids)
    sums = np.bincount(codes, w * table.followers[kept], n).tolist()
    weights = np.bincount(codes, w, n).tolist()
    return {oid: s / c for oid, s, c in zip(table.outlet_ids, sums, weights) if c}


@dataclass(frozen=True)
class QuadFit:
    """Least-squares fit of y = c0 + c1*x + c2*x^2."""

    c0: float
    c1: float
    c2: float
    rss: float

    @property
    def is_convex(self) -> bool:
        return self.c2 > 0


def quadratic_fit(xs: Sequence[float], ys: Sequence[float]) -> QuadFit:
    """OLS on the design [1, x, x^2]; errors on rank-deficient designs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient design (fewer than 3 distinct x values)")
    rss = float(np.sum((design @ coef - y) ** 2))
    return QuadFit(c0=float(coef[0]), c1=float(coef[1]), c2=float(coef[2]), rss=rss)


class BiasTable(Table, record="BiasRow"):
    """bias.csv: per outlet, its registry reliability label (None if the
    registry lacks it, written empty), narrative-bias coordinates, propensity
    factors, and the selection index."""

    fields = (IdField("outlet_id"),
              EnumField("reliability", tuple(Reliability), "reliability label", optional=True),
              *map(FloatField, ("x_adv", "x_neu", "x_pos", "pf_adv", "pf_neu", "pf_pos",
                                "selection_index")),
              FlagField("adverse_lean"))
    key = ("outlet_id",)


BiasRow = BiasTable.record


def build_bias_table(
    posterior: PosteriorTable,
    reliability: Mapping[str, Reliability],
    theta: float = math.pi / 4,
) -> BiasTable:
    """Join the three per-event fits of posterior.csv into one row per outlet,
    sorted by id and labelled `reliability.get(outlet_id)`.

    An event type no outlet has both means of raises InputError. Outlets
    missing any of their six means are excluded (and logged). The
    adverse_lean flag is the strict comparison pf_adv > pf_pos, so an exact
    tie counts as not adverse-leaning.
    """
    ids = posterior.outlet_ids
    cell = (posterior.outlet_id, posterior.event_type, posterior.param)
    means = np.zeros((len(ids), len(EVENT_ORDER), len(PARAMS)))
    means[cell] = posterior.mean
    fitted = np.zeros(means.shape, dtype=bool)
    fitted[cell] = True
    fitted = fitted.all(axis=2)  # outlet x event: both means present
    for event, any_fit in zip(EVENT_ORDER, fitted.any(axis=0).tolist()):
        if not any_fit:
            raise InputError(f"posterior.csv has no rows for event type '{event.value}'; "
                             "cannot build the bias table")
    common = fitted.all(axis=1)
    excluded = sorted(ids[i] for i in np.flatnonzero(fitted.any(axis=1) & ~common).tolist())
    if excluded:
        log.warning(
            "excluding %d outlet(s) without all three event fits: %s",
            len(excluded),
            ", ".join(excluded),
        )
    kept = sorted(np.flatnonzero(common).tolist(), key=ids.__getitem__)
    kept_ids = [ids[i] for i in kept]
    (pf_adv, pf_neu, pf_pos), stances = means[kept].T  # params x events x outlets
    labels = {label: k for k, label in enumerate(Reliability)}
    columns = [
        np.arange(len(kept)),
        [labels.get(reliability.get(oid), len(labels)) for oid in kept_ids],
        *stances, pf_adv, pf_neu, pf_pos,
        selection_index(pf_adv, pf_pos, theta),
        pf_adv > pf_pos,
    ]
    return BiasTable(columns, {"outlet_id": kept_ids})


class EngagementTable(Table, record="EngagementRecord"):
    """engagement.csv: per (outlet, event type), the adjusted engagement of
    the outlet's articles about that event type over the window."""

    fields = (IdField("outlet_id"), EnumField("event_type", EVENT_ORDER, "event label"),
              CountField("contents"), CountField("interactions"), FloatField("followers"),
              FloatField("engagement"))
    key = ("outlet_id", "event_type")


EngagementRecord = EngagementTable.record


def build_engagement_table(
    articles: Sequence[ArticleRecord],
    follower_records: Iterable[FollowerRecord],
    window: tuple[datetime.date, datetime.date] | None = None,
    duration_weighted: bool = False,
) -> EngagementTable:
    """Per (outlet, event type) adjusted engagement over the window, outlets
    sorted by id.

    The window defaults to the full article date range. Outlets without
    follower data, with zero average followers, or with no articles of an
    event type produce no row (logged).
    """
    table = ArticleTable.from_records(articles)
    if not len(table):
        return EngagementTable.from_records(())
    if window is None:
        window = (
            datetime.date.fromordinal(int(table.date.min())),
            datetime.date.fromordinal(int(table.date.max())),
        )
    kept = filter_articles(table, *window)
    followers = average_followers(follower_records, window, duration_weighted)

    # group g = outlet code * 3 + event position
    ids, n_groups = kept.outlet_ids, 3 * len(kept.outlet_ids)
    groups = kept.outlet_id.astype(np.intp) * 3 + kept.event
    contents = np.bincount(groups, minlength=n_groups).reshape(-1, 3)
    interactions = np.array(kept.interaction_totals(groups, n_groups), np.int64).reshape(-1, 3)
    present = contents.any(axis=1)
    average = np.array([followers.get(oid, math.nan) for oid in ids])  # NaN: no data

    missing = sorted(ids[i] for i in np.flatnonzero(present & np.isnan(average)).tolist())
    if missing:
        log.warning(
            "no follower data in window for %d outlet(s): %s",
            len(missing),
            ", ".join(missing),
        )
    for oid in sorted(ids[i] for i in np.flatnonzero(present & (average <= 0)).tolist()):
        log.warning("outlet '%s' has zero average followers; skipped", oid)
    order = np.array(sorted(np.flatnonzero(present & (average > 0)).tolist(),
                            key=ids.__getitem__), dtype=np.intp)
    rows, events = np.nonzero(contents[order] > 0)  # by outlet, then event
    outlets = order[rows]
    c = contents[outlets, events]
    i = interactions[outlets, events]
    f = average[outlets]
    return EngagementTable([outlets, events, c, i, f, i / (c * f)], {"outlet_id": ids})


# the BiasTable stance column of each event type, in EVENT_ORDER
_STANCES = ("x_adv", "x_neu", "x_pos")


def engagement_bias_fits(
    bias: Iterable[BiasRow], engagement: Iterable[EngagementRecord]
) -> dict:
    """Quadratic fits of engagement against each bias dimension per event type.

    Mirrors the six-panel view: narrative bias (per-event stance) and
    selection index on the x-axis, adjusted engagement on the y-axis, over
    the engagement rows (in order) whose outlet has a bias row. Panels with
    fewer than 3 usable points or a degenerate design are reported as null
    with a reason. Either argument may be its table or a list of its records.
    """
    bias = BiasTable.from_records(bias)
    engagement = EngagementTable.from_records(engagement)
    bias_row = rows_of(engagement.outlet_ids, bias)[engagement.outlet_id]
    out: dict = {"narrative": {}, "selection": {}}
    for k, event in enumerate(EVENT_ORDER):
        panel = (engagement.event_type == k) & (bias_row >= 0)
        ys = engagement.engagement[panel]
        for dimension, column in (("narrative", _STANCES[k]), ("selection", "selection_index")):
            xs = getattr(bias, column)[bias_row[panel]]
            try:
                fit = quadratic_fit(xs, ys)
            except ValueError as exc:
                out[dimension][event.value] = {"error": str(exc), "n_points": len(xs)}
                continue
            out[dimension][event.value] = {
                "c0": fit.c0,
                "c1": fit.c1,
                "c2": fit.c2,
                "rss": fit.rss,
                "n_points": len(xs),
                "convex": fit.is_convex,
            }
    return out
