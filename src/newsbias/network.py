"""Outlet audience-similarity graph: cosine weights, Louvain, cluster stats.

The graph is built from a users x outlets retweet-count matrix: edge weights
are cosine similarities between outlet columns, weak edges are dropped at the
mean weight, and communities come from a deterministic weighted Louvain.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterable, Mapping, Sequence, TextIO
from xml.sax.saxutils import escape, quoteattr

import numpy as np
from scipy import sparse

from .corpus import OutletProfile, Reliability, RetweetRecord, write_csv
from .metrics import BiasRow

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetweetMatrix:
    """Sparse users x outlets retweet counts, rows and columns sorted."""

    users: tuple[str, ...]
    outlets: tuple[str, ...]
    counts: sparse.csc_array

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


def build_matrix(records: Iterable[RetweetRecord]) -> RetweetMatrix:
    """Assemble the retweet matrix; duplicate (user, outlet) pairs are summed."""
    records = list(records)
    users = tuple(sorted({r.user_id for r in records}))
    outlets = tuple(sorted({r.outlet_id for r in records}))
    urow = {u: i for i, u in enumerate(users)}
    ocol = {o: j for j, o in enumerate(outlets)}
    rows = np.array([urow[r.user_id] for r in records], dtype=np.int64)
    cols = np.array([ocol[r.outlet_id] for r in records], dtype=np.int64)
    data = np.array([r.count for r in records], dtype=np.int64)
    counts = sparse.coo_array(
        (data, (rows, cols)), shape=(len(users), len(outlets))
    ).tocsc()
    counts.sum_duplicates()
    return RetweetMatrix(users=users, outlets=outlets, counts=counts)


def cosine_weight(col_h, col_k) -> float:
    """Cosine of two nonnegative count vectors; errors on a zero-norm column."""
    h = col_h.toarray().ravel() if sparse.issparse(col_h) else np.asarray(col_h, float).ravel()
    k = col_k.toarray().ravel() if sparse.issparse(col_k) else np.asarray(col_k, float).ravel()
    if h.shape != k.shape:
        raise ValueError("columns must have equal length")
    sq_h = float(h @ h)
    sq_k = float(k @ k)
    if sq_h == 0.0 or sq_k == 0.0:
        raise ValueError("zero-norm column: outlet was never retweeted")
    return min(1.0, max(0.0, float(h @ k) / math.sqrt(sq_h * sq_k)))


@dataclass(frozen=True)
class AudienceGraph:
    """Undirected weighted outlet graph; edge keys are (u, v) with u < v."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    reliability: dict[str, Reliability] | None = None
    clusters: dict[str, int] | None = None

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for (u, v), w in self.edges.items():
            if u >= v:
                raise ValueError(f"edge key ({u!r}, {v!r}) must be ordered u < v")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if not 0.0 < w <= 1.0:
                raise ValueError(f"edge weight {w} outside (0, 1]")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[str, int]:
        deg = {n: 0 for n in self.nodes}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def strengths(self) -> dict[str, float]:
        s = {n: 0.0 for n in self.nodes}
        for (u, v), w in self.edges.items():
            s[u] += w
            s[v] += w
        return s


def build_graph(
    matrix: RetweetMatrix, reliability: Mapping[str, Reliability] | None = None
) -> AudienceGraph:
    """Cosine-similarity graph over outlets whose columns have positive norm.

    Zero-weight pairs (disjoint audiences) are omitted as edges; outlets that
    were never retweeted are omitted as nodes.
    """
    counts = matrix.counts.astype(np.float64)
    sq_norms = np.asarray(counts.multiply(counts).sum(axis=0)).ravel()
    keep = np.flatnonzero(sq_norms > 0)
    kept = set(keep.tolist())
    dropped = [o for j, o in enumerate(matrix.outlets) if j not in kept]
    if dropped:
        log.info("dropping %d outlet(s) with no retweets: %s", len(dropped), ", ".join(dropped))
    nodes = tuple(matrix.outlets[j] for j in keep)
    sub = counts[:, keep]
    gram = (sub.T @ sub).toarray()
    weights = gram / np.sqrt(np.outer(sq_norms[keep], sq_norms[keep]))
    weights = np.clip(weights, 0.0, 1.0)
    edges: dict[tuple[str, str], float] = {}
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            w = float(weights[a, b])
            if w > 0.0:
                edges[(nodes[a], nodes[b])] = w
    rel = dict(reliability) if reliability is not None else None
    if rel is not None:
        rel = {n: rel[n] for n in nodes if n in rel}
    return AudienceGraph(nodes=nodes, edges=edges, reliability=rel)


def threshold_graph(
    graph: AudienceGraph,
    cutoff: float | None = None,
    strict: bool = True,
    drop_isolated: bool = True,
) -> AudienceGraph:
    """Drop 0-degree nodes, then edges below the mean weight.

    The cutoff defaults to the mean weight of the edges that remain after the
    first step; pass a recorded cutoff to re-apply a previous threshold. With
    strict=True an edge is removed when weight < cutoff (edges exactly at the
    cutoff survive); strict=False also removes weight == cutoff. Nodes left
    isolated by edge removal are dropped unless drop_isolated=False.
    """
    if not graph.edges:
        raise ValueError("graph has no edges")
    degrees = graph.degrees()
    connected = tuple(n for n in graph.nodes if degrees[n] > 0)
    n_isolated = len(graph.nodes) - len(connected)
    # statistics.mean is exact (Fraction arithmetic), so a graph whose edges
    # all carry the same weight keeps every edge under the strict cutoff
    mean = cutoff if cutoff is not None else statistics.mean(graph.edges.values())
    if strict:
        kept_edges = {e: w for e, w in graph.edges.items() if w >= mean}
    else:
        kept_edges = {e: w for e, w in graph.edges.items() if w > mean}
    touched = {u for u, _ in kept_edges} | {v for _, v in kept_edges}
    if drop_isolated:
        kept_nodes = tuple(n for n in connected if n in touched)
    else:
        kept_nodes = connected
    log.info(
        "threshold: %d nodes (%d isolated removed), mean weight %.6f, "
        "%d of %d edges kept, %d newly isolated node(s) %s",
        len(connected),
        n_isolated,
        mean,
        len(kept_edges),
        len(graph.edges),
        len(connected) - len(touched & set(connected)),
        "removed" if drop_isolated else "kept",
    )
    rel = None
    if graph.reliability is not None:
        kept = set(kept_nodes)
        rel = {n: r for n, r in graph.reliability.items() if n in kept}
    return AudienceGraph(nodes=kept_nodes, edges=kept_edges, reliability=rel)


def modularity(graph: AudienceGraph, partition: Mapping[str, int]) -> float:
    """Weighted Newman modularity of the partition.

    Q = (1/2m) sum_ij [A_ij - k_i k_j / (2m)] delta(c_i, c_j) with weighted
    degrees k and total weight m.
    """
    for node in graph.nodes:
        if node not in partition:
            raise ValueError(f"partition does not cover node '{node}'")
    strengths = graph.strengths()
    two_m = sum(strengths.values())
    if two_m == 0.0:
        raise ValueError("graph has zero total weight")
    internal: dict[int, float] = {}
    k_c: dict[int, float] = {}
    for node in graph.nodes:
        c = partition[node]
        k_c[c] = k_c.get(c, 0.0) + strengths[node]
    for (u, v), w in graph.edges.items():
        if partition[u] == partition[v]:
            c = partition[u]
            internal[c] = internal.get(c, 0.0) + 2.0 * w
    q = 0.0
    for c, kc in k_c.items():
        q += internal.get(c, 0.0) / two_m - (kc / two_m) ** 2
    return q


def _local_moves(
    adj: list[dict[int, float]],
    strengths: list[float],
    two_m: float,
    order: np.ndarray,
) -> list[int]:
    """One Louvain level: greedy modularity moves until a full silent pass.

    A node moves only on a strict improvement over staying put (so zero-gain
    ties never oscillate); among strictly better target communities, equal
    gains break toward the lowest community id.
    """
    comm = list(range(len(adj)))
    comm_strength = list(strengths)
    m = two_m / 2.0
    improved = True
    while improved:
        improved = False
        for v in order:
            v = int(v)
            old = comm[v]
            k_v = strengths[v]
            comm_strength[old] -= k_v
            links: dict[int, float] = {old: 0.0}
            for u, w in adj[v].items():
                c = comm[u]
                links[c] = links.get(c, 0.0) + w
            best_c = old
            best_gain = links[old] / m - comm_strength[old] * k_v / (2.0 * m * m)
            for c in sorted(links):
                if c == old:
                    continue
                gain = links[c] / m - comm_strength[c] * k_v / (2.0 * m * m)
                tie_break = gain == best_gain and best_c != old and c < best_c
                if gain > best_gain or tie_break:
                    best_gain = gain
                    best_c = c
            if best_c != old:
                comm[v] = best_c
                improved = True
            comm_strength[comm[v]] += k_v
    return comm


def louvain(graph: AudienceGraph, seed: int = 0) -> dict[str, int]:
    """Louvain communities of the weighted graph, deterministic under seed.

    Local moves maximize weighted-modularity gain (ties broken toward the
    lowest community id), node visit order is shuffled by the seeded RNG, and
    levels aggregate until no move improves modularity. Nodes with no edges
    end up in singleton communities. Community ids are consecutive integers
    numbered by first appearance in node order.
    """
    if not graph.nodes:
        raise ValueError("graph has no nodes")
    rng = np.random.default_rng(seed)
    n = len(graph.nodes)
    index = {node: i for i, node in enumerate(graph.nodes)}
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for (u, v), w in graph.edges.items():
        adj[index[u]][index[v]] = w
        adj[index[v]][index[u]] = w
    self_loops = [0.0] * n
    strengths = [sum(a.values()) for a in adj]
    two_m = sum(strengths)
    membership = list(range(n))

    if two_m > 0.0:
        while True:
            order = rng.permutation(len(adj))
            comm = _local_moves(adj, strengths, two_m, order)
            labels = sorted(set(comm))
            if len(labels) == len(adj):
                break
            relabel = {c: i for i, c in enumerate(labels)}
            membership = [relabel[comm[membership[i]]] for i in range(n)]
            # aggregate communities into super-nodes
            n_next = len(labels)
            new_adj: list[dict[int, float]] = [dict() for _ in range(n_next)]
            new_self = [0.0] * n_next
            for v, loops in enumerate(self_loops):
                new_self[relabel[comm[v]]] += loops
            for v in range(len(adj)):
                cv = relabel[comm[v]]
                for u, w in adj[v].items():
                    if u <= v:
                        continue
                    cu = relabel[comm[u]]
                    if cu == cv:
                        new_self[cv] += 2.0 * w
                    else:
                        new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                        new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
            adj = new_adj
            self_loops = new_self
            strengths = [sum(a.values()) + self_loops[i] for i, a in enumerate(adj)]

    final: dict[str, int] = {}
    relabel: dict[int, int] = {}
    for i, node in enumerate(graph.nodes):
        c = membership[i]
        if c not in relabel:
            relabel[c] = len(relabel)
        final[node] = relabel[c]
    return final


@dataclass(frozen=True)
class ClusterStatsRow:
    """Composition and mean bias profile of one audience cluster."""

    cluster_id: int
    size: int
    frac_questionable: float | None
    mean_x_adv: float | None
    mean_x_pos: float | None
    mean_selection: float | None
    frac_adverse_lean: float | None


def cluster_stats(
    partition: Mapping[str, int],
    bias_rows: Sequence[BiasRow],
    registry: Sequence[OutletProfile],
) -> list[ClusterStatsRow]:
    """Per-cluster size, questionable share, and mean bias statistics.

    Means are plain (unweighted) over cluster members. Members missing from
    the registry or the bias table are excluded from the affected statistic
    only; the exclusion counts are logged.
    """
    reliability = {p.outlet_id: p.reliability for p in registry}
    bias = {row.outlet_id: row for row in bias_rows}
    members: dict[int, list[str]] = {}
    for node, c in partition.items():
        members.setdefault(c, []).append(node)
    missing_rel = sorted(n for n in partition if n not in reliability)
    missing_bias = sorted(n for n in partition if n not in bias)
    if missing_rel:
        log.warning("%d clustered outlet(s) not in registry: %s",
                    len(missing_rel), ", ".join(missing_rel))
    if missing_bias:
        log.warning("%d clustered outlet(s) without bias rows: %s",
                    len(missing_bias), ", ".join(missing_bias))

    rows = []
    for c in sorted(members):
        nodes = members[c]
        rel = [reliability[n] for n in nodes if n in reliability]
        brows = [bias[n] for n in nodes if n in bias]
        frac_q = (
            sum(r is Reliability.QUESTIONABLE for r in rel) / len(rel) if rel else None
        )
        if brows:
            mean_x_adv = sum(b.x_adv for b in brows) / len(brows)
            mean_x_pos = sum(b.x_pos for b in brows) / len(brows)
            mean_sel = sum(b.selection_index for b in brows) / len(brows)
            frac_lean = sum(b.adverse_lean for b in brows) / len(brows)
        else:
            mean_x_adv = mean_x_pos = mean_sel = frac_lean = None
        rows.append(
            ClusterStatsRow(
                cluster_id=c,
                size=len(nodes),
                frac_questionable=frac_q,
                mean_x_adv=mean_x_adv,
                mean_x_pos=mean_x_pos,
                mean_selection=mean_sel,
                frac_adverse_lean=frac_lean,
            )
        )
    return rows


EDGE_FIELDS = ("src", "dst", "weight")
CLUSTER_FIELDS = ("outlet_id", "cluster_id")
CLUSTER_STATS_FIELDS = tuple(f.name for f in fields(ClusterStatsRow))


def write_edges_csv(graph: AudienceGraph, stream: TextIO) -> None:
    write_csv(EDGE_FIELDS, ((u, v, graph.edges[(u, v)]) for u, v in sorted(graph.edges)), stream)


def write_clusters_csv(partition: Mapping[str, int], stream: TextIO) -> None:
    write_csv(CLUSTER_FIELDS, sorted(partition.items()), stream)


def write_cluster_stats_csv(rows: Sequence[ClusterStatsRow], stream: TextIO) -> None:
    write_csv(CLUSTER_STATS_FIELDS, map(astuple, rows), stream)


def write_graphml(graph: AudienceGraph, stream: TextIO) -> None:
    """Minimal deterministic GraphML export with weight/label attributes."""
    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    stream.write('  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>\n')
    if graph.reliability is not None:
        stream.write(
            '  <key id="reliability" for="node" attr.name="reliability" attr.type="string"/>\n'
        )
    if graph.clusters is not None:
        stream.write('  <key id="cluster" for="node" attr.name="cluster" attr.type="int"/>\n')
    stream.write('  <graph edgedefault="undirected">\n')
    for node in graph.nodes:
        attrs = []
        if graph.reliability is not None and node in graph.reliability:
            attrs.append(
                f'<data key="reliability">{escape(graph.reliability[node].value)}</data>'
            )
        if graph.clusters is not None and node in graph.clusters:
            attrs.append(f'<data key="cluster">{graph.clusters[node]}</data>')
        if attrs:
            stream.write(f"    <node id={quoteattr(node)}>{''.join(attrs)}</node>\n")
        else:
            stream.write(f"    <node id={quoteattr(node)}/>\n")
    for (u, v) in sorted(graph.edges):
        stream.write(
            f"    <edge source={quoteattr(u)} target={quoteattr(v)}>"
            f'<data key="weight">{graph.edges[(u, v)]!r}</data></edge>\n'
        )
    stream.write("  </graph>\n")
    stream.write("</graphml>\n")


def with_clusters(graph: AudienceGraph, partition: Mapping[str, int]) -> AudienceGraph:
    """Copy of the graph with cluster assignments attached."""
    return replace(graph, clusters={n: partition[n] for n in graph.nodes})
