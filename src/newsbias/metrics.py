"""Selection index, adjusted engagement, and bias-vs-engagement regressions.

Inputs are posterior point estimates (means) from the latent fits plus the
raw corpus articles (an ArticleTable or records); everything here is
closed-form arithmetic. The bias and engagement tables are the schemas of
bias.csv and engagement.csv, which later stages read back.
"""

from __future__ import annotations

import dataclasses
import datetime
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import (EVENT_ORDER, ArticleRecord, ArticleTable, CountField, EnumField, EventType,
                     FlagField, FloatField, FollowerRecord, FollowerTable, IdField, InputError,
                     Reliability, Table, filter_articles)

log = logging.getLogger(__name__)


def selection_index(pf_adv: float, pf_pos: float, theta: float = math.pi / 4) -> float:
    """Distance of (pf_adv, pf_pos) from the theta-line through the origin.

    |sin(theta) * pf_adv - cos(theta) * pf_pos|; at theta = pi/4 this is
    |pf_adv - pf_pos| / sqrt(2), zero for outlets that report both event
    types with equal propensity.
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


class OutletEstimate(NamedTuple):
    """Posterior means for one outlet under one event type."""

    alpha_mean: float
    x_mean: float


@dataclass(frozen=True)
class BiasRow:
    """Narrative-bias coordinates, propensity factors, and the selection index."""

    outlet_id: str
    x_adv: float
    x_neu: float
    x_pos: float
    pf_adv: float
    pf_neu: float
    pf_pos: float
    selection_index: float
    adverse_lean: bool


class BiasTable(Table):
    """bias.csv: each outlet's BiasRow after its registry reliability label,
    None (written empty) for an outlet the registry lacks; one row per outlet."""

    fields = (IdField("outlet_id"),
              EnumField("reliability", tuple(Reliability), "reliability label", optional=True),
              *(FloatField(f.name) for f in dataclasses.fields(BiasRow)[1:-1]),
              FlagField("adverse_lean"))
    key = ("outlet_id",)

    @classmethod
    def of(cls, rows: Sequence[BiasRow], reliability: Mapping[str, Reliability]) -> BiasTable:
        """`rows`, each labelled `reliability.get(outlet_id)`."""
        columns = [[getattr(row, f.name) for row in rows] for f in dataclasses.fields(BiasRow)]
        columns.insert(1, [reliability.get(row.outlet_id) for row in rows])
        return cls.from_columns(columns)

    def rows(self) -> list[BiasRow]:
        """The BiasRows, without their labels."""
        return [BiasRow(outlet_id, *values) for outlet_id, _, *values in self]


def build_bias_table(
    estimates: Mapping[EventType, Mapping[str, OutletEstimate]],
    theta: float = math.pi / 4,
) -> list[BiasRow]:
    """Join the three per-event fits into one row per outlet.

    Outlets missing any event-type fit are excluded (and logged). The
    adverse_lean flag is the strict comparison pf_adv > pf_pos, so an exact
    tie counts as not adverse-leaning.
    """
    for event in EVENT_ORDER:
        if event not in estimates:
            raise ValueError(f"missing fit for event type '{event.value}'")
    adv, neu, pos = (estimates[e] for e in EVENT_ORDER)
    union = set(adv) | set(neu) | set(pos)
    common = set(adv) & set(neu) & set(pos)
    excluded = sorted(union - common)
    if excluded:
        log.warning(
            "excluding %d outlet(s) without all three event fits: %s",
            len(excluded),
            ", ".join(excluded),
        )
    rows = []
    for outlet in sorted(common):
        pf_adv, x_adv = adv[outlet].alpha_mean, adv[outlet].x_mean
        pf_neu, x_neu = neu[outlet].alpha_mean, neu[outlet].x_mean
        pf_pos, x_pos = pos[outlet].alpha_mean, pos[outlet].x_mean
        rows.append(
            BiasRow(
                outlet_id=outlet,
                x_adv=x_adv,
                x_neu=x_neu,
                x_pos=x_pos,
                pf_adv=pf_adv,
                pf_neu=pf_neu,
                pf_pos=pf_pos,
                selection_index=selection_index(pf_adv, pf_pos, theta),
                adverse_lean=pf_adv > pf_pos,
            )
        )
    return rows


@dataclass(frozen=True)
class EngagementRecord:
    """Adjusted engagement of one outlet for one event type over the window."""

    outlet_id: str
    event: EventType
    contents: int
    interactions: int
    followers: float
    engagement: float

    @property
    def event_type(self) -> EventType:  # `event`, named as its engagement.csv column
        return self.event


class EngagementTable(Table):
    """engagement.csv: one EngagementRecord per (outlet, event type)."""

    fields = (IdField("outlet_id"), EnumField("event_type", EVENT_ORDER, "event label"),
              CountField("contents"), CountField("interactions"), FloatField("followers"),
              FloatField("engagement"))
    record = EngagementRecord
    key = ("outlet_id", "event_type")


def build_engagement_table(
    articles: Sequence[ArticleRecord],
    follower_records: Iterable[FollowerRecord],
    window: tuple[datetime.date, datetime.date] | None = None,
    duration_weighted: bool = False,
) -> list[EngagementRecord]:
    """Per (outlet, event type) adjusted engagement over the window.

    The window defaults to the full article date range. Outlets without
    follower data, with zero average followers, or with no articles of an
    event type produce no row (logged).
    """
    table = ArticleTable.from_records(articles)
    if not len(table):
        return []
    if window is None:
        window = (
            datetime.date.fromordinal(int(table.date.min())),
            datetime.date.fromordinal(int(table.date.max())),
        )
    kept = filter_articles(table, *window)
    followers = average_followers(follower_records, window, duration_weighted)

    # group g = outlet code * 3 + event position
    groups = kept.outlet_id.astype(np.intp) * 3 + kept.event
    n_groups = 3 * len(kept.outlet_ids)
    contents = np.bincount(groups, minlength=n_groups).tolist()
    interactions = kept.interaction_totals(groups, n_groups)
    present = {
        oid: code
        for code, oid in enumerate(kept.outlet_ids)
        if any(contents[3 * code : 3 * code + 3])
    }

    missing = sorted(set(present) - set(followers))
    if missing:
        log.warning(
            "no follower data in window for %d outlet(s): %s",
            len(missing),
            ", ".join(missing),
        )
    rows = []
    for oid in sorted(present):
        f = followers.get(oid)
        if f is None:
            continue
        if f <= 0:
            log.warning("outlet '%s' has zero average followers; skipped", oid)
            continue
        for k, event in enumerate(EVENT_ORDER):
            g = 3 * present[oid] + k
            c = contents[g]
            if c == 0:
                continue
            i = interactions[g]
            rows.append(
                EngagementRecord(
                    outlet_id=oid,
                    event=event,
                    contents=c,
                    interactions=i,
                    followers=f,
                    engagement=adjusted_engagement(i, c, f),
                )
            )
    return rows


def engagement_bias_fits(
    bias_rows: Sequence[BiasRow], engagement: Sequence[EngagementRecord]
) -> dict:
    """Quadratic fits of engagement against each bias dimension per event type.

    Mirrors the six-panel view: narrative bias (per-event stance) and
    selection index on the x-axis, adjusted engagement on the y-axis. Panels
    with fewer than 3 usable points or a degenerate design are reported as
    null with a reason.
    """
    bias_by_outlet = {row.outlet_id: row for row in bias_rows}
    narrative_coord = {
        EventType.ADVERSE: lambda r: r.x_adv,
        EventType.NEUTRAL: lambda r: r.x_neu,
        EventType.POSITIVE: lambda r: r.x_pos,
    }
    out: dict = {"narrative": {}, "selection": {}}
    for event in EVENT_ORDER:
        points = [
            (bias_by_outlet[rec.outlet_id], rec.engagement)
            for rec in engagement
            if rec.event == event and rec.outlet_id in bias_by_outlet
        ]
        for dimension in ("narrative", "selection"):
            if dimension == "narrative":
                xs = [narrative_coord[event](row) for row, _ in points]
            else:
                xs = [row.selection_index for row, _ in points]
            ys = [e for _, e in points]
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
