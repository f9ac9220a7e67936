import io
import math
import statistics
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracle_helpers import brute_force_best_partition, dense_modularity

from newsbias import corpus, network, synth
from newsbias.corpus import OutletProfile, Reliability, RetweetRecord
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
        # reference: dense Gram matrix, elementwise cosine, one loop over
        # pairs; integer counts make every Gram entry exact, so the weights
        # must match bit for bit
        rng = np.random.default_rng(14)
        records = [
            RetweetRecord(f"u{rng.integers(40)}", f"o{rng.integers(25):02d}", int(rng.integers(1, 6)))
            for _ in range(300)
        ]
        matrix = build_matrix(records)
        dense = matrix.counts.toarray().astype(np.float64)
        sq = (dense * dense).sum(axis=0)
        weights = np.clip(dense.T @ dense / np.sqrt(np.outer(sq, sq)), 0.0, 1.0)
        names = matrix.outlets
        expected = [
            (names[a], names[b], float(weights[a, b]))
            for a in range(len(names)) for b in range(a + 1, len(names))
            if weights[a, b] > 0.0
        ]
        graph = build_graph(matrix)
        found = list(zip(
            [graph.nodes[i] for i in graph.src], [graph.nodes[i] for i in graph.dst],
            graph.weight.tolist(),
        ))
        assert found == expected

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

    def test_idempotent_with_recorded_cutoff(self):
        rng = np.random.default_rng(8)
        graph = random_graph(rng, n=10, p=0.5)
        mean = sum(graph.edges.values()) / len(graph.edges)
        once = threshold_graph(graph)
        twice = threshold_graph(once, cutoff=mean)
        assert twice.edges == once.edges
        assert twice.nodes == once.nodes

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


def bias_row(outlet, x_adv=0.0, x_pos=0.0, selection=0.0, lean=False):
    return BiasRow(
        outlet_id=outlet,
        x_adv=x_adv,
        x_neu=0.0,
        x_pos=x_pos,
        pf_adv=1.0 if lean else 0.0,
        pf_neu=0.0,
        pf_pos=0.0,
        selection_index=selection,
        adverse_lean=lean,
    )


def profile(outlet, reliability):
    return OutletProfile(outlet, outlet, reliability)


class TestClusterStats:
    def test_single_questionable_cluster(self):
        stats = cluster_stats(
            {"o1": 0},
            [bias_row("o1")],
            [profile("o1", Reliability.QUESTIONABLE)],
        )
        assert stats[0].size == 1
        assert stats[0].frac_questionable == 1.0

    def test_mean_of_opposite_biases_is_zero(self):
        stats = cluster_stats(
            {"o1": 0, "o2": 0},
            [bias_row("o1", x_adv=0.2), bias_row("o2", x_adv=-0.2)],
            [profile("o1", Reliability.RELIABLE), profile("o2", Reliability.RELIABLE)],
        )
        assert stats[0].mean_x_adv == pytest.approx(0.0, abs=1e-15)

    def test_sums_reconcile_with_global(self):
        rng = np.random.default_rng(13)
        outlets = [f"o{i}" for i in range(30)]
        partition = {o: int(rng.integers(0, 4)) for o in outlets}
        bias_rows = [
            bias_row(o, x_adv=float(rng.normal()), selection=float(rng.uniform(0, 2)))
            for o in outlets
        ]
        registry = [
            profile(o, Reliability.QUESTIONABLE if rng.random() < 0.3 else Reliability.RELIABLE)
            for o in outlets
        ]
        stats = cluster_stats(partition, bias_rows, registry)
        assert sum(s.size for s in stats) == len(outlets)
        total_x = sum(s.mean_x_adv * s.size for s in stats)
        assert total_x == pytest.approx(sum(r.x_adv for r in bias_rows), abs=1e-9)

    def test_members_missing_data_excluded_from_stats(self, caplog):
        with caplog.at_level("WARNING"):
            stats = cluster_stats(
                {"o1": 0, "ghost": 0},
                [bias_row("o1", x_adv=0.4)],
                [profile("o1", Reliability.RELIABLE)],
            )
        assert stats[0].size == 2
        assert stats[0].mean_x_adv == pytest.approx(0.4)
        assert "ghost" in caplog.text

    def test_duplicated_registry_outlet_raises(self):
        registry = [profile("o1", Reliability.RELIABLE), profile("o1", Reliability.QUESTIONABLE)]
        with pytest.raises(ValueError, match="record 1: duplicate outlet_id 'o1'"):
            cluster_stats({"o1": 0}, [bias_row("o1")], registry)


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
