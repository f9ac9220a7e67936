"""Outlet audience-similarity graph: cosine weights, Louvain, cluster stats.

The graph is built from a users x outlets retweet-count matrix: edge weights
are cosine similarities between outlet columns, weak edges are dropped at the
mean weight, and communities come from a deterministic weighted Louvain.
ClusterTable and ClusterStatsTable are the schemas of clusters.csv and
cluster_stats.csv.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TextIO
from xml.sax.saxutils import escape, quoteattr

import numpy as np
from scipy import sparse

from .corpus import (
    CountField, FloatField, IdField, Reliability, RetweetRecord, RetweetTable, Table, _write,
    _write_columns, exact_sums, rows_of,
)
from .metrics import BiasRow, BiasTable

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
    """Assemble the retweet matrix from a RetweetTable or records; records are
    read under the table's rule, so duplicate (user, outlet) pairs are summed and
    a sum beyond int64 raises. Id codes become ranks among the sorted ids."""
    table = RetweetTable.from_records(records)
    users, rows = _ranks(table.user_ids, table.user_id)
    outlets, cols = _ranks(table.outlet_ids, table.outlet_id)
    counts = sparse.csc_array((table.count, (rows, cols)), shape=(len(users), len(outlets)))
    return RetweetMatrix(users=users, outlets=outlets, counts=counts)


def _ranks(ids: Sequence[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids that `codes` use, sorted, and each code's rank among them."""
    used = sorted(np.unique(codes).tolist(), key=ids.__getitem__)
    rank = np.zeros(len(ids), dtype=np.int64)
    rank[used] = np.arange(len(used))
    return tuple(ids[c] for c in used), rank[codes]


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


class AudienceGraph:
    """Undirected weighted outlet graph stored as edge arrays over `nodes`.

    Edge i joins nodes[src[i]] and nodes[dst[i]] with float64 weight[i] in
    (0, 1]. Its ids are ordered nodes[src[i]] < nodes[dst[i]] and edges are
    sorted by that id pair, which for sorted nodes (as `build_graph` gives)
    is row-major upper-triangle order; memory is linear in the edge count.
    `AudienceGraph(nodes, edges={(u, v): w})` builds and checks a graph from
    a dict, and `edges` is a read-only view of that form, built on first use
    for tests and small callers. `reliability` may label outlets that are not
    nodes; only the nodes' labels are written.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Mapping[tuple[str, str], float] | None = None,
        reliability: dict[str, Reliability] | None = None,
        clusters: dict[str, int] | None = None,
    ):
        nodes = tuple(nodes)
        index = {n: i for i, n in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("duplicate node ids")
        edges = edges or {}
        keys = list(edges)
        src = np.array([index.get(u, -1) for u, _ in keys], dtype=np.int64)
        dst = np.array([index.get(v, -1) for _, v in keys], dtype=np.int64)
        weight = np.array([edges[k] for k in keys], dtype=np.float64)
        rank = np.empty(len(nodes), dtype=np.int64)
        rank[sorted(range(len(nodes)), key=nodes.__getitem__)] = np.arange(len(nodes))
        bad = (src < 0) | (dst < 0)
        if bad.any():
            u, v = keys[int(np.argmax(bad))]
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
        bad = rank[src] >= rank[dst]
        if bad.any():
            u, v = keys[int(np.argmax(bad))]
            raise ValueError(f"edge key ({u!r}, {v!r}) must be ordered u < v")
        bad = ~((weight > 0.0) & (weight <= 1.0))
        if bad.any():
            raise ValueError(f"edge weight {edges[keys[int(np.argmax(bad))]]} outside (0, 1]")
        order = np.lexsort((rank[dst], rank[src]))
        self.nodes = nodes
        self.src, self.dst, self.weight = src[order], dst[order], weight[order]
        self.reliability = reliability
        self.clusters = clusters

    @classmethod
    def _from_arrays(cls, nodes, src, dst, weight, reliability=None, clusters=None):
        """Graph from edge arrays already in the class's order; not re-checked."""
        graph = cls.__new__(cls)
        graph.nodes = nodes
        graph.src, graph.dst, graph.weight = src, dst, weight
        graph.reliability = reliability
        graph.clusters = clusters
        return graph

    def __repr__(self) -> str:
        return f"AudienceGraph({len(self.nodes)} nodes, {self.n_edges} edges)"

    @cached_property
    def edges(self) -> Mapping[tuple[str, str], float]:
        """Read-only {(u, v): weight} in edge order; one Python object per edge."""
        names = self.nodes
        return MappingProxyType({
            (names[a], names[b]): w
            for a, b, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())
        })

    @cached_property
    def weight_text(self) -> list[str]:
        """Each edge weight as written to edges.csv and GraphML: its float repr."""
        return list(map(repr, self.weight.tolist()))

    @property
    def n_edges(self) -> int:
        return len(self.weight)

    def degrees(self) -> np.ndarray:
        """Edge count per node, aligned with `nodes`."""
        n = len(self.nodes)
        return np.bincount(self.src, minlength=n) + np.bincount(self.dst, minlength=n)

    def strengths(self) -> np.ndarray:
        """Summed edge weight per node, aligned with `nodes`."""
        n = len(self.nodes)
        return np.bincount(self.src, self.weight, n) + np.bincount(self.dst, self.weight, n)


# Gram entries (rows x remaining columns) that one row block of `build_graph`
# may span; bounds the sparse product's transient, whatever the outlet count
_GRAM_BLOCK = 1 << 18

# weights per chunk of `_exact_mean`; bounds its temporaries
_MEAN_CHUNK = 1 << 16
# frexp's exponent of the least positive float, 5e-324 = 0.5 * 2**-1073
_LEAST_EXPONENT = -1073


def build_graph(
    matrix: RetweetMatrix, reliability: Mapping[str, Reliability] | None = None
) -> AudienceGraph:
    """Cosine-similarity graph over outlets whose columns have positive norm.

    Zero-weight pairs (disjoint audiences) are omitted as edges; outlets that
    were never retweeted are omitted as nodes. Weights come from the nonzero
    upper triangle of the sparse Gram matrix, computed in row blocks of at
    most `_GRAM_BLOCK` entries, so beyond the returned edge arrays memory
    holds one block; no dense N x N array is formed.
    """
    counts = matrix.counts.astype(np.float64)
    sq_norms = np.asarray(counts.multiply(counts).sum(axis=0)).ravel()
    keep = np.flatnonzero(sq_norms > 0)
    dropped = [matrix.outlets[j] for j in np.flatnonzero(sq_norms <= 0)]
    if dropped:
        log.info("dropping %d outlet(s) with no retweets: %s", len(dropped), ", ".join(dropped))
    nodes = tuple(matrix.outlets[j] for j in keep)
    n = len(nodes)
    sub = counts[:, keep]
    sub_t = sub.T.tocsr()
    sq = sq_norms[keep]
    src, dst, weight = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    a = 0
    while a < n:
        b = min(n, a + max(1, _GRAM_BLOCK // (n - a)))
        # rows a..b-1 against columns a..; integer counts make every entry exact
        # through CSC: converting it to CSR leaves each row's columns
        # ascending, as edge order needs, in less time and memory than
        # CSR output plus sort_indices
        block = sparse.triu(sub_t[a:b] @ sub[:, a:], k=1, format="csc").tocsr()
        rows = np.repeat(np.arange(a, b, dtype=np.int64), np.diff(block.indptr))
        cols = block.indices.astype(np.int64) + a
        cosine = np.clip(block.data / np.sqrt(sq[rows] * sq[cols]), 0.0, 1.0)
        positive = cosine > 0.0
        kept = int(np.count_nonzero(positive))
        for out, values in ((src, rows), (dst, cols), (weight, cosine)):
            # resize reallocs: an array in a mapping of its own grows by
            # remapping its pages, and no list of parts is joined at the end
            out.resize(len(out) + kept, refcheck=False)
            np.compress(positive, values, out=out[len(out) - kept:])
        a = b
    return AudienceGraph._from_arrays(nodes, src, dst, weight, reliability=reliability)


def _exact_mean(weights: np.ndarray) -> float:
    """Correctly rounded mean of floats in [0, 1], equal to `statistics.mean`.

    Each weight is an integer mantissa m < 2**53 times 2**(e - 53) with e <= 1;
    the mantissas' exact sums per exponent, taken over chunks of `_MEAN_CHUNK`
    weights, add up as Python ints to the exact total in units of
    2**(_LEAST_EXPONENT - 53), and one integer division rounds total / n once.
    """
    total = 0
    for start in range(0, len(weights), _MEAN_CHUNK):
        mantissa, exponent = np.frexp(weights[start:start + _MEAN_CHUNK])
        low = int(exponent.min())
        sums = exact_sums(
            (mantissa * 2.0**53).astype(np.int64), exponent - low, int(exponent.max()) - low + 1
        )
        total += sum(s << (e + low - _LEAST_EXPONENT) for e, s in enumerate(sums))
    return total / (len(weights) << (53 - _LEAST_EXPONENT))


def threshold_graph(
    graph: AudienceGraph,
    strict: bool = True,
    drop_isolated: bool = True,
) -> AudienceGraph:
    """Drop 0-degree nodes, then edges below the mean weight.

    The cutoff is the mean weight of the edges that remain after the first
    step. With strict=True an edge is removed when weight < cutoff (edges
    exactly at the cutoff survive); strict=False also removes weight ==
    cutoff. Nodes left isolated by edge removal are dropped unless
    drop_isolated=False.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    connected = graph.degrees() > 0
    n_connected = int(connected.sum())
    # the mean is exact, so a graph whose edges all carry the same weight
    # keeps every edge under the strict cutoff
    mean = _exact_mean(graph.weight)
    kept_edges = graph.weight >= mean if strict else graph.weight > mean
    src, dst = graph.src[kept_edges], graph.dst[kept_edges]
    touched = np.zeros(len(graph.nodes), dtype=bool)
    touched[src] = True
    touched[dst] = True
    kept = touched if drop_isolated else connected
    log.info(
        "threshold: %d nodes (%d isolated removed), mean weight %.6f, "
        "%d of %d edges kept, %d newly isolated node(s) %s",
        n_connected,
        len(graph.nodes) - n_connected,
        mean,
        len(src),
        graph.n_edges,
        n_connected - int(touched.sum()),
        "removed" if drop_isolated else "kept",
    )
    kept_nodes = tuple(n for n, k in zip(graph.nodes, kept.tolist()) if k)
    new_index = np.cumsum(kept) - 1
    return AudienceGraph._from_arrays(
        kept_nodes, new_index[src], new_index[dst], graph.weight[kept_edges], graph.reliability
    )


def modularity(graph: AudienceGraph, partition: Mapping[str, int]) -> float:
    """Weighted Newman modularity of the partition.

    Q = (1/2m) sum_ij [A_ij - k_i k_j / (2m)] delta(c_i, c_j) with weighted
    degrees k and total weight m.
    """
    for node in graph.nodes:
        if node not in partition:
            raise ValueError(f"partition does not cover node '{node}'")
    strengths = graph.strengths()
    two_m = float(strengths.sum())
    if two_m == 0.0:
        raise ValueError("graph has zero total weight")
    ids: dict = {}
    comm = np.array([ids.setdefault(partition[n], len(ids)) for n in graph.nodes], dtype=np.int64)
    k_c = np.bincount(comm, strengths, len(ids))
    inside = comm[graph.src] == comm[graph.dst]
    internal = np.bincount(comm[graph.src[inside]], 2.0 * graph.weight[inside], len(ids))
    return float(np.sum(internal / two_m - (k_c / two_m) ** 2))


def _local_moves(
    bounds: list[int],
    cols: list[int],
    weights: list[float],
    strengths: list[float],
    two_m: float,
    order: np.ndarray,
) -> list[int]:
    """One Louvain level: greedy modularity moves until a full silent pass.

    Node v's neighbours are cols[bounds[v]:bounds[v + 1]] with the matching
    weights, a CSR row with its column indices sorted. A node moves only on a
    strict improvement over staying put (so zero-gain ties never oscillate);
    candidates are tried in ascending id, so equal gains go to the lowest id.
    """
    comm = list(range(len(strengths)))
    comm_strength = list(strengths)
    m = two_m / 2.0
    improved = True
    while improved:
        improved = False
        for v in order.tolist():
            old = comm[v]
            k_v = strengths[v]
            comm_strength[old] -= k_v
            links: dict[int, float] = {old: 0.0}
            a, b = bounds[v], bounds[v + 1]
            for u, w in zip(cols[a:b], weights[a:b]):
                c = comm[u]
                links[c] = links.get(c, 0.0) + w
            best_c = old
            best_gain = links[old] / m - comm_strength[old] * k_v / (2.0 * m * m)
            for c in sorted(links):
                gain = links[c] / m - comm_strength[c] * k_v / (2.0 * m * m)
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            if best_c != old:
                comm[v] = best_c
                improved = True
            comm_strength[best_c] += k_v
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
    # each level is a symmetric CSR without a diagonal, plus each node's
    # self-loop weight: twice the edge weight inside the communities it merged
    adj = sparse.csr_array(
        (
            np.concatenate([graph.weight, graph.weight]),
            (np.concatenate([graph.src, graph.dst]), np.concatenate([graph.dst, graph.src])),
        ),
        shape=(n, n),
    )
    loops = np.zeros(n)
    membership = np.arange(n)
    two_m = None
    while True:
        # sorted column indices: each node's neighbours in ascending index order
        adj.sort_indices()
        bounds, cols, weights = adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()
        # bincount and the fold add left to right; sum() compensates from Python 3.12 on
        row = np.repeat(np.arange(len(loops)), np.diff(adj.indptr))
        strengths = (np.bincount(row, adj.data, len(loops)) + loops).tolist()
        if two_m is None:
            two_m = reduce(add, strengths, 0.0)
        if two_m == 0.0:
            break
        comm = _local_moves(bounds, cols, weights, strengths, two_m, rng.permutation(len(loops)))
        labels, comm = np.unique(comm, return_inverse=True)
        if len(labels) == len(loops):
            break
        membership = comm[membership]
        # with P the one-hot nodes x communities matrix, P.T @ A @ P holds the
        # weight between two communities, and twice that inside one on its diagonal
        onehot = sparse.csr_array((np.ones(len(comm)), (np.arange(len(comm)), comm)))
        merged = (onehot.T @ adj @ onehot).tocoo()
        loops = onehot.T @ loops + merged.diagonal()
        off = merged.row != merged.col
        adj = sparse.csr_array(
            (merged.data[off], (merged.row[off], merged.col[off])), shape=merged.shape
        )
    _, first, membership = np.unique(membership, return_index=True, return_inverse=True)
    return dict(zip(graph.nodes, np.argsort(np.argsort(first))[membership].tolist()))


# the BiasTable columns whose cluster means a ClusterStatsRow ends with, in its order
_MEANS = ("x_adv", "x_pos", "selection_index", "adverse_lean")
_QUESTIONABLE = tuple(Reliability).index(Reliability.QUESTIONABLE)  # a BiasTable reliability code


def cluster_stats(partition: Mapping[str, int], bias_rows: Iterable[BiasRow]) -> ClusterStatsTable:
    """Per-cluster size, questionable share, and mean bias statistics, by cluster id.

    The questionable share is over the members whose bias row carries a label;
    each mean is plain, over the members with a bias row, summed left to right
    in partition order. Members without a bias row are logged. A statistic no
    member has data for is None. `bias_rows` is read under the BiasTable rule,
    so an outlet listed twice raises.
    """
    bias = BiasTable.from_records(bias_rows)
    rows = rows_of(partition, bias)
    missing = sorted(n for n, row in zip(partition, rows.tolist()) if row < 0)
    if missing:
        log.warning("%d clustered outlet(s) without bias rows: %s",
                    len(missing), ", ".join(missing))
    ids, codes = np.unique(list(partition.values()), return_inverse=True)
    columns = [ids.tolist(), np.bincount(codes, minlength=len(ids)).tolist()]
    codes, rows = codes[rows >= 0], rows[rows >= 0]
    label = bias.reliability[rows]
    labelled = label < len(Reliability)
    statistics = [(codes[labelled], label[labelled] == _QUESTIONABLE),
                  *((codes, getattr(bias, name)[rows]) for name in _MEANS)]
    for members, values in statistics:
        n = np.bincount(members, minlength=len(ids))
        with np.errstate(invalid="ignore"):  # 0/0 where no member has data
            means = np.bincount(members, values, len(ids)) / n
        columns.append([mean if k else None for mean, k in zip(means.tolist(), n.tolist())])
    return ClusterStatsTable.from_columns(columns)


class ClusterTable(Table):
    """clusters.csv: each outlet's Louvain community, one row per outlet."""

    fields = (IdField("outlet_id"), CountField("cluster_id"))
    key = ("outlet_id",)


class ClusterStatsTable(Table, record="ClusterStatsRow"):
    """cluster_stats.csv: per audience cluster, its size, questionable share and
    mean bias profile; a statistic that no member has data for is None,
    written empty."""

    fields = (CountField("cluster_id"), CountField("size"),
              *(FloatField(name, optional=True) for name in (
                  "frac_questionable", "mean_x_adv", "mean_x_pos", "mean_selection",
                  "frac_adverse_lean")))
    key = ("cluster_id",)


ClusterStatsRow = ClusterStatsTable.record


EDGE_FIELDS = ("src", "dst", "weight")
CLUSTER_FIELDS, CLUSTER_STATS_FIELDS = (
    tuple(f.name for f in table.fields) for table in (ClusterTable, ClusterStatsTable)
)


def write_edges_csv(graph: AudienceGraph, stream: TextIO) -> None:
    """edges.csv: one (src, dst, weight) row per edge, each outlet id spelled once."""
    names = list(graph.nodes)
    columns = [(graph.src, names), (graph.dst, names),
               (np.arange(graph.n_edges), graph.weight_text)]
    _write_columns(EDGE_FIELDS, [columns], stream)


def write_clusters_csv(partition: Mapping[str, int], stream: TextIO) -> None:
    """clusters.csv, outlets sorted by id."""
    outlets = sorted(partition)
    table = ClusterTable.from_columns([outlets, [partition[o] for o in outlets]])
    _write(ClusterTable, table, stream)


def write_cluster_stats_csv(rows: Sequence[ClusterStatsRow], stream: TextIO) -> None:
    _write(ClusterStatsTable, rows, stream)


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
    ids = [quoteattr(node) for node in graph.nodes]
    for node, node_id in zip(graph.nodes, ids):
        attrs = []
        if graph.reliability is not None and node in graph.reliability:
            attrs.append(
                f'<data key="reliability">{escape(graph.reliability[node].value)}</data>'
            )
        if graph.clusters is not None and node in graph.clusters:
            attrs.append(f'<data key="cluster">{graph.clusters[node]}</data>')
        if attrs:
            stream.write(f"    <node id={node_id}>{''.join(attrs)}</node>\n")
        else:
            stream.write(f"    <node id={node_id}/>\n")
    stream.writelines(
        f"    <edge source={ids[a]} target={ids[b]}>"
        f'<data key="weight">{w}</data></edge>\n'
        for a, b, w in zip(graph.src.tolist(), graph.dst.tolist(), graph.weight_text)
    )
    stream.write("  </graph>\n")
    stream.write("</graphml>\n")


def with_clusters(graph: AudienceGraph, partition: Mapping[str, int]) -> AudienceGraph:
    """Copy of the graph with cluster assignments attached."""
    return AudienceGraph._from_arrays(
        graph.nodes, graph.src, graph.dst, graph.weight, graph.reliability,
        clusters={n: partition[n] for n in graph.nodes},
    )
