import io
import math
import statistics
import tracemalloc
import xml.etree.ElementTree as ET
from functools import reduce
from operator import add

import numpy as np
import pytest

from oracle_helpers import brute_force_best_partition, dense_modularity

from newsbias import corpus, network, synth
from newsbias.corpus import Reliability, RetweetRecord
from newsbias.metrics import BiasRow
from newsbias.network import (
    AudienceGraph,
    build_graph,
    build_matrix,
    cluster_stats,
    cosine_weight,
    louvain,
    modularity,
    threshold_graph,
)


def clique_pair_graph(k=5, bridge=0.01) -> AudienceGraph:
    nodes = tuple(f"n{i:02d}" for i in range(2 * k))
    edges = {}
    for a in range(k):
        for b in range(a + 1, k):
            edges[(nodes[a], nodes[b])] = 1.0
            edges[(nodes[k + a], nodes[k + b])] = 1.0
    edges[(nodes[k - 1], nodes[k])] = bridge
    return AudienceGraph(nodes=nodes, edges=edges)


def random_graph(rng, n=8, p=0.5) -> AudienceGraph:
    nodes = tuple(f"v{i:02d}" for i in range(n))
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges[(nodes[a], nodes[b])] = float(rng.uniform(0.05, 1.0))
    if not edges:
        edges[(nodes[0], nodes[1])] = 0.5
    return AudienceGraph(nodes=nodes, edges=edges)


class TestBuildMatrix:
    def test_single_record(self):
        matrix = build_matrix([RetweetRecord("u1", "o1", 2)])
        assert matrix.users == ("u1",)
        assert matrix.outlets == ("o1",)
        assert matrix.counts.toarray().tolist() == [[2]]

    def test_duplicates_summed(self):
        matrix = build_matrix(
            [RetweetRecord("u1", "o1", 2), RetweetRecord("u1", "o1", 3)]
        )
        assert matrix.counts.toarray().tolist() == [[5]]

    def test_sum_beyond_int64_raises(self):
        with pytest.raises(ValueError, match=rf"^record 1: count total {2**63} of user 'u' "
                                             rf"and outlet 'o' exceeds {2**63 - 1}$"):
            build_matrix([RetweetRecord("u", "o", 2**62)] * 2)

    def test_column_sums_match_tally(self):
        rng = np.random.default_rng(4)
        records = [
            RetweetRecord(f"u{rng.integers(20)}", f"o{rng.integers(6)}", int(rng.integers(1, 5)))
            for _ in range(100)
        ]
        matrix = build_matrix(records)
        totals = {o: 0 for o in matrix.outlets}
        for r in records:
            totals[r.outlet_id] += r.count
        col_sums = np.asarray(matrix.counts.sum(axis=0)).ravel()
        assert [totals[o] for o in matrix.outlets] == col_sums.tolist()

    def test_sorted_orders(self):
        matrix = build_matrix(
            [RetweetRecord("ub", "oz", 1), RetweetRecord("ua", "oa", 1)]
        )
        assert matrix.users == ("ua", "ub")
        assert matrix.outlets == ("oa", "oz")

    def test_parsed_table_ranks_its_codes_by_sorted_id(self):
        text = "user_id,outlet_id,count\nuz,ob,1\nua,oc,2\nuz,oa,3\nuq,ob,4\nuz,ob,5\n"
        table = corpus.parse_retweets(io.StringIO(text))
        records = list(table)
        for retweets, kept in ((table, records), (table.take([0, 2]), [records[0], records[2]])):
            matrix = build_matrix(retweets)
            expected = build_matrix(kept)
            assert (matrix.users, matrix.outlets) == (expected.users, expected.outlets)
            assert matrix.counts.toarray().tolist() == expected.counts.toarray().tolist()
        # the codes of ids no kept row uses get no row or column
        assert build_matrix(table.take([0, 2])).users == ("uz",)


class TestCosineWeight:
    def test_identical_columns(self):
        assert cosine_weight([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint_supports(self):
        assert cosine_weight([1, 0, 2], [0, 3, 0]) == 0.0

    def test_hand_value_exact(self):
        assert cosine_weight([1, 2], [2, 1]) == 0.8

    def test_zero_norm_errors(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_weight([0, 0], [1, 2])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = rng.integers(0, 10, 6).astype(float)
            k = rng.integers(0, 10, 6).astype(float)
            if not h.any() or not k.any():
                continue
            base = cosine_weight(h, k)
            assert 0.0 <= base <= 1.0
            scale = float(rng.uniform(0.1, 50))
            assert abs(cosine_weight(scale * h, k) - base) < 1e-12

    def test_sparse_columns_accepted(self):
        matrix = build_matrix(
            [RetweetRecord("u1", "o1", 1), RetweetRecord("u2", "o1", 2),
             RetweetRecord("u1", "o2", 2), RetweetRecord("u2", "o2", 1)]
        )
        assert cosine_weight(matrix.counts[:, [0]], matrix.counts[:, [1]]) == 0.8


class TestBuildGraph:
    def test_proportional_audiences_weight_one(self):
        records = [
            RetweetRecord("u1", "o1", 1), RetweetRecord("u2", "o1", 2),
            RetweetRecord("u1", "o2", 2), RetweetRecord("u2", "o2", 4),
        ]
        graph = build_graph(build_matrix(records))
        assert graph.edges == {("o1", "o2"): 1.0}

    def test_disjoint_audiences_no_edges(self):
        records = [
            RetweetRecord("u1", "o1", 1),
            RetweetRecord("u2", "o2", 1),
            RetweetRecord("u3", "o3", 1),
        ]
        graph = build_graph(build_matrix(records))
        assert len(graph.nodes) == 3
        assert graph.edges == {}

    def test_weights_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        records = [
            RetweetRecord(f"u{rng.integers(30)}", f"o{rng.integers(8)}", int(rng.integers(1, 4)))
            for _ in range(150)
        ]
        matrix = build_matrix(records)
        graph = build_graph(matrix)
        dense = matrix.counts.toarray().astype(float)
        index = {o: j for j, o in enumerate(matrix.outlets)}
        for (u, v), w in graph.edges.items():
            h, k = dense[:, index[u]], dense[:, index[v]]
            oracle = float(h @ k) / (np.linalg.norm(h) * np.linalg.norm(k))
            assert abs(w - oracle) < 1e-12

    def test_equals_dense_pair_loop(self):
        rng = np.random.default_rng(14)
        records = [
            RetweetRecord(f"u{rng.integers(40)}", f"o{rng.integers(25):02d}", int(rng.integers(1, 6)))
            for _ in range(300)
        ]
        matrix = build_matrix(records)
        assert graph_edges(build_graph(matrix)) == dense_pair_edges(matrix)

    def test_row_blocks_equal_dense_pair_loop(self, monkeypatch):
        # 24 outlets plus a never-retweeted one in the middle; outlets o20-o23
        # share no retweeter with any outlet, so their rows have no upper
        # entries. Budget 1 gives one-row blocks, down to a last block of one
        # row; the largest budget gives one block
        rng = np.random.default_rng(15)
        records = [
            RetweetRecord(f"u{rng.integers(30)}", f"o{rng.integers(20):02d}", int(rng.integers(1, 6)))
            for _ in range(200)
        ] + [RetweetRecord(f"v{i}", f"o{i:02d}", 1) for i in range(20, 24)]
        retweeted = build_matrix(records)
        counts = retweeted.counts.toarray()
        matrix = network.RetweetMatrix(
            users=retweeted.users,
            outlets=retweeted.outlets[:10] + ("o09z",) + retweeted.outlets[10:],
            counts=network.sparse.csc_array(np.insert(counts, 10, 0, axis=1)),
        )
        expected = dense_pair_edges(matrix)
        assert len(expected) > 100
        for budget in (1, 2, 5, 23, 24, 25, 47, 48, 100, 24 * 24):
            monkeypatch.setattr(network, "_GRAM_BLOCK", budget)
            graph = build_graph(matrix)
            assert "o09z" not in graph.nodes
            assert graph_edges(graph) == expected, budget
            # scipy's indices here are int32; the edge arrays must not be
            assert graph.src.dtype == graph.dst.dtype == np.int64
            assert graph.weight.dtype == np.float64

    def test_never_retweeted_outlet_dropped(self):
        matrix = build_matrix([RetweetRecord("u1", "o1", 1)])
        extended = network.RetweetMatrix(
            users=matrix.users,
            outlets=("o1", "o2"),
            counts=network.sparse.csc_array(
                np.array([[1, 0]], dtype=np.int64)
            ),
        )
        graph = build_graph(extended)
        assert graph.nodes == ("o1",)


def dense_pair_edges(matrix) -> list[tuple[str, str, float]]:
    """Reference: dense Gram matrix over the outlets with retweets, elementwise
    cosine, one loop over pairs; integer counts make every Gram entry exact, so
    `build_graph` must match these weights bit for bit."""
    dense = matrix.counts.toarray().astype(np.float64)
    retweeted = (dense > 0).any(axis=0)
    dense = dense[:, retweeted]
    names = [o for o, r in zip(matrix.outlets, retweeted) if r]
    sq = (dense * dense).sum(axis=0)
    weights = np.clip(dense.T @ dense / np.sqrt(np.outer(sq, sq)), 0.0, 1.0)
    return [
        (names[a], names[b], float(weights[a, b]))
        for a in range(len(names)) for b in range(a + 1, len(names))
        if weights[a, b] > 0.0
    ]


def graph_edges(graph: AudienceGraph) -> list[tuple[str, str, float]]:
    """The graph's edges in their stored order, as (u, v, weight)."""
    return list(zip(
        [graph.nodes[i] for i in graph.src], [graph.nodes[i] for i in graph.dst],
        graph.weight.tolist(),
    ))


class TestThresholdGraph:
    def test_equal_weights_nothing_removed(self):
        graph = AudienceGraph(
            nodes=("a", "b", "c"),
            edges={("a", "b"): 0.4, ("b", "c"): 0.4, ("a", "c"): 0.4},
        )
        out = threshold_graph(graph)
        assert out.edges == graph.edges
        assert out.nodes == graph.nodes

    def test_low_edge_removed(self):
        graph = AudienceGraph(
            nodes=("a", "b", "c"), edges={("a", "b"): 0.1, ("b", "c"): 0.9}
        )
        out = threshold_graph(graph)
        assert out.edges == {("b", "c"): 0.9}
        assert out.nodes == ("b", "c")

    def test_keep_isolates_toggle(self):
        graph = AudienceGraph(
            nodes=("a", "b", "c"), edges={("a", "b"): 0.1, ("b", "c"): 0.9}
        )
        out = threshold_graph(graph, drop_isolated=False)
        assert out.nodes == ("a", "b", "c")

    def test_inclusive_cutoff_removes_edge_at_mean(self):
        graph = AudienceGraph(
            nodes=("a", "b", "c"),
            edges={("a", "b"): 0.4, ("b", "c"): 0.4, ("a", "c"): 0.4},
        )
        out = threshold_graph(graph, strict=False)
        assert out.edges == {}
        assert out.nodes == ()

    def test_matches_independent_two_pass_filter(self):
        rng = np.random.default_rng(7)
        graph = random_graph(rng, n=12, p=0.4)
        out = threshold_graph(graph)
        mean = sum(graph.edges.values()) / len(graph.edges)
        expected = {e: w for e, w in graph.edges.items() if w >= mean}
        assert out.edges == expected

    def test_zero_degree_nodes_removed_first(self):
        graph = AudienceGraph(nodes=("a", "b", "lonely"), edges={("a", "b"): 0.5})
        out = threshold_graph(graph)
        assert out.nodes == ("a", "b")

    def test_edgeless_graph_errors(self):
        with pytest.raises(ValueError, match="no edges"):
            threshold_graph(AudienceGraph(nodes=("a",), edges={}))


def path_graph(weights) -> AudienceGraph:
    """Path n000 - n001 - ... whose i-th edge carries weights[i]."""
    nodes = tuple(f"n{i:03d}" for i in range(len(weights) + 1))
    return AudienceGraph(
        nodes=nodes, edges={(nodes[i], nodes[i + 1]): w for i, w in enumerate(weights)}
    )


def weights_at_their_mean(rng, count):
    """`count` weight sets whose last weight is their exact mean, which
    fsum(w) / n misses by at least one rounding step."""
    found = []
    while len(found) < count:
        head = rng.uniform(0.01, 1.0, int(rng.integers(2, 40))).tolist()
        weights = head + [statistics.mean(head)]
        mean = statistics.mean(weights)
        if mean == weights[-1] and math.fsum(weights) / len(weights) != mean:
            found.append(weights)
    return found


class TestExactCutoff:
    def test_cutoff_is_the_exact_mean(self):
        for weights in weights_at_their_mean(np.random.default_rng(20), 8):
            graph = path_graph(weights)
            mean = statistics.mean(weights)
            at_mean = (graph.nodes[-2], graph.nodes[-1])
            strict = threshold_graph(graph)
            assert strict.edges == {e: w for e, w in graph.edges.items() if w >= mean}
            assert at_mean in strict.edges
            inclusive = threshold_graph(graph, strict=False)
            assert inclusive.edges == {e: w for e, w in graph.edges.items() if w > mean}
            assert at_mean not in inclusive.edges

    def test_equal_weights_keep_every_edge_under_strict(self):
        for n_edges in range(3, 51):
            graph = path_graph([0.1] * n_edges)
            out = threshold_graph(graph)
            assert out.edges == graph.edges
            assert out.nodes == graph.nodes

    def test_mean_is_exact_across_chunks(self, monkeypatch):
        # the least subnormal, 0.5 and 1.0 each land in their own chunk
        sets = weights_at_their_mean(np.random.default_rng(21), 6)
        for chunk in (1, 2, 3, 7, 64):
            monkeypatch.setattr(network, "_MEAN_CHUNK", chunk)
            for weights in sets:
                spread = [5e-324, *[0.25] * chunk, *weights, 0.5, *[0.25] * chunk, 1.0]
                for values in (weights, spread):
                    assert network._exact_mean(np.array(values)) == statistics.mean(values)

    def test_inclusive_cutoff_drops_equal_weights(self):
        for n_edges in (3, 7, 50):
            out = threshold_graph(path_graph([0.1] * n_edges), strict=False)
            assert out.n_edges == 0 and out.nodes == ()


class TestMemoryBound:
    def test_pair_audiences_stay_far_below_dense(self):
        # outlets 2i and 2i+1 share one retweeter and nothing else, so the
        # graph has n / 2 edges among n(n-1)/2 pairs
        n = 1500
        records = []
        for i in range(0, n, 2):
            records += [
                RetweetRecord(f"u{i}", f"o{i:04d}", 1 + i % 3),
                RetweetRecord(f"u{i}", f"o{i + 1:04d}", 2),
                RetweetRecord(f"v{i}", f"o{i:04d}", 1),
            ]
        matrix = build_matrix(records)
        tracemalloc.start()
        try:
            graph = threshold_graph(build_graph(matrix))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < graph.n_edges <= n // 2
        # one dense n x n float64 array is 18 MB
        assert peak < n * n * 8 / 20

    def test_build_peak_is_its_edges_plus_one_block(self, monkeypatch):
        # three users retweet every outlet, so all n(n-1)/2 pairs are edges;
        # one block's temporaries hold at most about 80 bytes per Gram entry
        rng = np.random.default_rng(16)
        n, budget = 600, 4096
        matrix = build_matrix([
            RetweetRecord(f"u{u}", f"o{i:04d}", int(rng.integers(1, 6)))
            for u in range(3) for i in range(n)
        ])
        monkeypatch.setattr(network, "_GRAM_BLOCK", budget)
        tracemalloc.start()
        try:
            graph = build_graph(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.n_edges == n * (n - 1) // 2
        returned = graph.src.nbytes + graph.dst.nbytes + graph.weight.nbytes
        assert peak <= 1.5 * returned + 80 * budget


def pinned_graph(k: int) -> AudienceGraph:
    """Seeded sparse graph on 20-60 nodes; odd k draws weights from
    {0.25, 0.5, 1.0}, so modularity gains tie exactly, even k from (0, 1]."""
    rng = np.random.default_rng(k)
    n = int(rng.integers(20, 61))
    nodes = tuple(f"v{i:02d}" for i in range(n))
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 2.5 / n:
                edges[nodes[a], nodes[b]] = (
                    (0.25, 0.5, 1.0)[int(rng.integers(0, 3))] if k % 2 else 1.0 - rng.random()
                )
    return AudienceGraph(nodes=nodes, edges=edges)


# louvain(pinned_graph(k), seed=s) as recorded before levels were aggregated
# by a sparse product: node i's community id is character i, in base 36
PINNED_PARTITIONS = {
    (0, 0): "00012341356643037068617449a7467661037077334176694b3440",
    (0, 3): "00012341356643037068617449a7467661037077334176694b3440",
    (1, 0): "001230451615671041558360194366a313b80c3",
    (1, 3): "001230451615671041558360194366a313b80c3",
    (2, 0): "010123453601789a656b129c0019d1e76f16936919e53361009775",
    (2, 3): "010123453601789a656b129c0019d1e76f16936919e53361009775",
    (3, 0): "012345455450657388534980438a0875bb164854455c545418351",
    (3, 3): "012345455450657388538980438a0875bb164858455c545418351",
    (4, 0): "012312345346224744438922a5b4c4b65c2d323e7325bc3e2",
    (4, 3): "012314356357446865539a24b6c4d4c76d2e343f8326cd3f2",
    (5, 0): "01123450003332326424327331470532254891455123250",
    (5, 3): "011234500033363674643683314805366549a1455123650",
    (6, 0): "00010203430566015673544856167544565931",
    (6, 3): "00010203430566015673544856167544565931",
    (7, 0): "010120034512263461437442081662901311321340033a04634006434b",
    (7, 3): "010120034512263461437442081662901311321340033a04634006434b",
    (8, 0): "01230450262466728942a99909aa924648abc9a284a9da0b8",
    (8, 3): "01230450262466789a488aaa0a88a286498bca82948ad80b9",
    (9, 0): "0121345606507655258688159a26582618852",
    (9, 3): "0121340506007600208688159a25582518852",
    (10, 0): "0112234561478297a9b1659c465dd2e1d31162747974c35d14f",
    (10, 3): "0112234561478297a9b1659c465dd2e1d31162747974c35d14f",
    (11, 0): "0121220310314451123664221",
    (11, 3): "0121220310314451123664221",
}


class TestLouvain:
    def test_two_cliques_recovered_and_optimal(self):
        graph = clique_pair_graph()
        partition = louvain(graph, seed=3)
        first = {partition[f"n{i:02d}"] for i in range(5)}
        second = {partition[f"n{i:02d}"] for i in range(5, 10)}
        assert len(first) == 1 and len(second) == 1 and first != second
        best_q, _ = brute_force_best_partition(graph.nodes, graph.edges)
        assert modularity(graph, partition) == pytest.approx(best_q, abs=1e-9)

    def test_single_clique_single_community(self):
        nodes = ("a", "b", "c", "d")
        edges = {
            (u, v): 1.0 for i, u in enumerate(nodes) for v in nodes[i + 1 :]
        }
        partition = louvain(AudienceGraph(nodes=nodes, edges=edges), seed=0)
        assert set(partition.values()) == {0}

    def test_edgeless_nodes_singletons(self):
        graph = AudienceGraph(nodes=("a", "b", "c"), edges={})
        assert louvain(graph, seed=1) == {"a": 0, "b": 1, "c": 2}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, seed", sorted(PINNED_PARTITIONS))
    def test_pinned_partitions_through_aggregated_levels(self, k, seed, monkeypatch):
        levels = []
        local_moves = network._local_moves

        def checked(bounds, cols, weights, strengths, two_m, order):
            # a stored zero or a diagonal entry would change the moves compared
            assert all(
                u != v and w > 0.0
                for v, (a, b) in enumerate(zip(bounds, bounds[1:]))
                for u, w in zip(cols[a:b], weights[a:b])
            )
            levels.append(len(strengths))
            return local_moves(bounds, cols, weights, strengths, two_m, order)

        monkeypatch.setattr(network, "_local_moves", checked)
        graph = pinned_graph(k)
        expected = [int(c, 36) for c in PINNED_PARTITIONS[k, seed]]
        assert sorted(louvain(graph, seed=seed).items()) == list(zip(graph.nodes, expected))
        # every run aggregates at least twice; (3, 0) and (3, 3) three times
        assert len(levels) >= 3

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        graph = random_graph(rng, n=14, p=0.3)
        assert louvain(graph, seed=11) == louvain(graph, seed=11)

    def test_never_below_singleton_partition(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            graph = random_graph(rng, n=10, p=0.4)
            partition = louvain(graph, seed=seed)
            singletons = {n: i for i, n in enumerate(graph.nodes)}
            assert modularity(graph, partition) >= modularity(graph, singletons) - 1e-12

    def test_strengths_sum_left_to_right(self, monkeypatch):
        # node a's weights 1.0 then ten 1e-16 sum to 1.0 left to right, and
        # to 1.000000000000001 under a compensated sum
        nodes = ("a", "b", *(f"c{i}" for i in range(10)))
        edges = {("a", "b"): 1.0, **{("a", c): 1e-16 for c in nodes[2:]}}
        levels = []
        local_moves = network._local_moves

        def record(bounds, cols, weights, strengths, two_m, order):
            levels.append((bounds, weights, strengths, two_m))
            return local_moves(bounds, cols, weights, strengths, two_m, order)

        monkeypatch.setattr(network, "_local_moves", record)
        louvain(AudienceGraph(nodes=nodes, edges=edges), seed=0)
        bounds, weights, strengths, two_m = levels[0]
        rows = [weights[a:b] for a, b in zip(bounds, bounds[1:])]
        assert strengths == [reduce(add, row, 0.0) for row in rows]
        assert strengths[0] == 1.0
        assert two_m == reduce(add, strengths) == 2.0


class TestModularity:
    def two_triangles(self):
        return AudienceGraph(
            nodes=("a", "b", "c", "d", "e", "f"),
            edges={
                ("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0,
                ("d", "e"): 1.0, ("d", "f"): 1.0, ("e", "f"): 1.0,
            },
        )

    def test_all_in_one_is_zero(self):
        graph = self.two_triangles()
        assert modularity(graph, {n: 0 for n in graph.nodes}) == 0.0
        rng = np.random.default_rng(10)
        weighted = random_graph(rng, n=9, p=0.6)
        assert modularity(weighted, {n: 0 for n in weighted.nodes}) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_split_cliques_half(self):
        graph = self.two_triangles()
        partition = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
        assert modularity(graph, partition) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        graph = random_graph(rng, n=9, p=0.5)
        partition = louvain(graph, seed=0)
        assert modularity(graph, partition) == pytest.approx(
            dense_modularity(graph.nodes, graph.edges, partition), abs=1e-12
        )

    def test_louvain_beats_random_partitions(self):
        rng = np.random.default_rng(12)
        graph = random_graph(rng, n=9, p=0.45)
        best = modularity(graph, louvain(graph, seed=2))
        for _ in range(1000):
            labels = rng.integers(0, 4, len(graph.nodes))
            random_partition = {n: int(labels[i]) for i, n in enumerate(graph.nodes)}
            assert modularity(graph, random_partition) <= best + 1e-12

    def test_errors(self):
        graph = self.two_triangles()
        with pytest.raises(ValueError, match="cover"):
            modularity(graph, {"a": 0})
        with pytest.raises(ValueError, match="zero total weight"):
            modularity(AudienceGraph(nodes=("a",), edges={}), {"a": 0})


class TestNetworkxCrossCheck:
    @staticmethod
    def networkx_modularity(nx, graph, partition):
        g = nx.Graph()
        g.add_nodes_from(graph.nodes)
        g.add_weighted_edges_from((u, v, w) for (u, v), w in graph.edges.items())
        communities = {}
        for node, c in partition.items():
            communities.setdefault(c, set()).add(node)
        return nx.algorithms.community.modularity(g, communities.values(), weight="weight")

    def test_random_weighted_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(21)
        for seed in range(20):
            graph = random_graph(rng, n=int(rng.integers(4, 16)), p=0.4)
            labels = rng.integers(0, 4, len(graph.nodes))
            for partition in (
                {n: int(c) for n, c in zip(graph.nodes, labels)},
                louvain(graph, seed=seed),
            ):
                assert modularity(graph, partition) == pytest.approx(
                    self.networkx_modularity(nx, graph, partition), abs=1e-12
                )

    def test_louvain_partition_of_synthetic_pipeline(self):
        nx = pytest.importorskip("networkx")
        data = synth.generate(n_outlets=60, n_clusters=3, seed=4)
        graph = threshold_graph(build_graph(build_matrix(data.retweets)))
        partition = louvain(graph, seed=5)
        assert len(set(partition.values())) >= 3
        assert modularity(graph, partition) == pytest.approx(
            self.networkx_modularity(nx, graph, partition), abs=1e-12
        )


def bias_row(outlet, x_adv=0.0, x_pos=0.0, selection=0.0, lean=False, reliability=None):
    return BiasRow(
        outlet_id=outlet,
        reliability=reliability,
        x_adv=x_adv,
        x_neu=0.0,
        x_pos=x_pos,
        pf_adv=1.0 if lean else 0.0,
        pf_neu=0.0,
        pf_pos=0.0,
        selection_index=selection,
        adverse_lean=lean,
    )


class TestClusterStats:
    def test_single_questionable_cluster(self):
        stats = cluster_stats({"o1": 0}, [bias_row("o1", reliability=Reliability.QUESTIONABLE)])
        assert stats[0].size == 1
        assert stats[0].frac_questionable == 1.0

    def test_mean_of_opposite_biases_is_zero(self):
        stats = cluster_stats(
            {"o1": 0, "o2": 0},
            [bias_row("o1", x_adv=0.2, reliability=Reliability.RELIABLE),
             bias_row("o2", x_adv=-0.2, reliability=Reliability.RELIABLE)],
        )
        assert stats[0].mean_x_adv == pytest.approx(0.0, abs=1e-15)

    def test_sums_reconcile_with_global(self):
        rng = np.random.default_rng(13)
        outlets = [f"o{i}" for i in range(30)]
        partition = {o: int(rng.integers(0, 4)) for o in outlets}
        bias_rows = [
            bias_row(o, x_adv=float(rng.normal()), selection=float(rng.uniform(0, 2)),
                     reliability=Reliability.QUESTIONABLE if rng.random() < 0.3
                     else Reliability.RELIABLE)
            for o in outlets
        ]
        stats = cluster_stats(partition, bias_rows)
        assert sum(s.size for s in stats) == len(outlets)
        total_x = sum(s.mean_x_adv * s.size for s in stats)
        assert total_x == pytest.approx(sum(r.x_adv for r in bias_rows), abs=1e-9)
        questionable = sum(s.frac_questionable * s.size for s in stats)
        assert questionable == pytest.approx(
            sum(r.reliability is Reliability.QUESTIONABLE for r in bias_rows))

    def test_members_missing_data_excluded_from_stats(self, caplog):
        with caplog.at_level("WARNING"):
            stats = cluster_stats(
                {"o1": 0, "ghost": 0, "o2": 1, "ghost2": 5},
                [bias_row("o1", x_adv=0.4, reliability=Reliability.RELIABLE),
                 bias_row("o2", x_adv=0.1, lean=True)],
            )
        assert isinstance(stats, network.ClusterStatsTable)
        assert stats == [
            network.ClusterStatsRow(0, 2, 0.0, 0.4, 0.0, 0.0, 0.0),
            network.ClusterStatsRow(1, 1, None, 0.1, 0.0, 0.0, 1.0),
            network.ClusterStatsRow(5, 1, None, None, None, None, None),
        ]
        assert "ghost, ghost2" in caplog.text

    def test_means_sum_left_to_right_in_partition_order(self):
        # ((1 + 1e100) + 1) - 1e100 is 0.0, where a compensated sum gives 2.0
        values = [1.0, 1e100, 1.0, -1e100]
        outlets = [f"o{i}" for i in range(len(values))]
        stats = cluster_stats(dict.fromkeys(outlets, 0),
                              [bias_row(o, x_adv=v) for o, v in zip(outlets, values)])
        assert stats[0].mean_x_adv == reduce(add, values) / len(values) == 0.0

    def test_duplicated_bias_row_raises(self):
        rows = [bias_row("o1"), bias_row("o1", x_adv=1.0)]
        with pytest.raises(ValueError, match="record 1: duplicate outlet_id 'o1'"):
            cluster_stats({"o1": 0}, rows)


class TestExports:
    def graph(self):
        return AudienceGraph(
            nodes=("a", "b"),
            edges={("a", "b"): 0.5},
            reliability={"a": Reliability.RELIABLE, "b": Reliability.QUESTIONABLE},
            clusters={"a": 0, "b": 0},
        )

    def test_edges_csv(self):
        buf = io.StringIO()
        network.write_edges_csv(self.graph(), buf)
        assert buf.getvalue() == "src,dst,weight\na,b,0.5\n"

    def test_clusters_csv(self):
        buf = io.StringIO()
        network.write_clusters_csv({"b": 1, "a": 0}, buf)
        assert buf.getvalue() == "outlet_id,cluster_id\na,0\nb,1\n"

    def test_graphml_parses_and_carries_attributes(self):
        buf = io.StringIO()
        network.write_graphml(self.graph(), buf)
        root = ET.fromstring(buf.getvalue())
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph_el = root.find(f"{ns}graph")
        assert graph_el.get("edgedefault") == "undirected"
        nodes = graph_el.findall(f"{ns}node")
        assert [n.get("id") for n in nodes] == ["a", "b"]
        edge = graph_el.find(f"{ns}edge")
        assert edge.get("source") == "a" and edge.get("target") == "b"
        assert edge.find(f"{ns}data").text == "0.5"

    def test_graphml_labels_only_its_own_nodes(self):
        graph = self.graph()
        labels = {**graph.reliability, "z": Reliability.RELIABLE}
        extra = AudienceGraph(graph.nodes, graph.edges, labels, graph.clusters)
        written = []
        for g in (graph, extra):
            buf = io.StringIO()
            network.write_graphml(g, buf)
            written.append(buf.getvalue())
        assert written[0] == written[1]

    def test_dict_graph_written_in_id_order(self):
        graph = AudienceGraph(
            nodes=("c", "a", "b"),
            edges={("b", "c"): 0.25, ("a", "c"): 0.5, ("a", "b"): 1.0},
        )
        buf = io.StringIO()
        network.write_edges_csv(graph, buf)
        assert buf.getvalue() == "src,dst,weight\na,b,1.0\na,c,0.5\nb,c,0.25\n"
        assert list(graph.edges) == [("a", "b"), ("a", "c"), ("b", "c")]
        assert graph.degrees().tolist() == [2, 2, 2]
        assert graph.strengths().tolist() == [0.75, 1.5, 1.25]

    def test_graph_invariants_enforced(self):
        with pytest.raises(ValueError, match="ordered"):
            AudienceGraph(nodes=("a", "b"), edges={("b", "a"): 0.5})
        with pytest.raises(ValueError, match="weight"):
            AudienceGraph(nodes=("a", "b"), edges={("a", "b"): 1.5})
        with pytest.raises(ValueError, match="unknown node"):
            AudienceGraph(nodes=("a",), edges={("a", "z"): 0.5})

    def test_both_writers_share_one_weight_formatting(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(1e-9, 1.0, 40)
        names = [f"n{i:02d}" for i in range(41)]
        graph = AudienceGraph(
            nodes=names, edges={(names[i], names[i + 1]): w for i, w in enumerate(weights)}
        )
        assert graph.weight_text == [repr(float(w)) for w in weights]
        assert graph.weight_text is graph.weight_text
        csv_buf, gml_buf = io.StringIO(), io.StringIO()
        network.write_edges_csv(graph, csv_buf)
        network.write_graphml(graph, gml_buf)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        gml = [e.find(f"{ns}data").text for e in ET.fromstring(gml_buf.getvalue()).iter(f"{ns}edge")]
        written = [line.rsplit(",", 1)[1] for line in csv_buf.getvalue().splitlines()[1:]]
        assert written == gml == graph.weight_text
        assert [float(w) for w in written] == weights.tolist()
