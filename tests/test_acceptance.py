"""Acceptance suite: one check per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Every expected value is either closed-form arithmetic, a published table
figure, or computed by an independent oracle (quadrature, brute-force
enumeration, dense recomputation) that never calls the code path it checks.
"""

import datetime
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from oracle_helpers import adjusted_rand_index, brute_force_best_partition

from newsbias import corpus, latent, metrics, network
from newsbias.cli import main
from newsbias.corpus import ArticleRecord, EventType, Narrative, OutletProfile, Platform, Reliability


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_c01_selection_index_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        a, p = rng.normal(0.0, 5.0, 2)
        worst = max(
            worst, abs(metrics.selection_index(a, p) - abs(a - p) / math.sqrt(2.0))
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "selection index closed form",
        worst < 1e-12 and elapsed < 1.0,
        f"max |err|={worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_breakdown_table_arithmetic():
    start = time.perf_counter()
    registry = [
        OutletProfile(f"q{i:03d}", f"Q{i}", Reliability.QUESTIONABLE) for i in range(161)
    ] + [OutletProfile(f"r{i:03d}", f"R{i}", Reliability.RELIABLE) for i in range(521)]

    def articles_for(outlet, narrative, event, n, total_interactions):
        base, remainder = divmod(total_interactions, n)
        day = datetime.date(2021, 1, 1)
        return [
            ArticleRecord(outlet, Platform.FACEBOOK, day, narrative, event,
                          base + (1 if i < remainder else 0))
            for i in range(n)
        ]

    articles = articles_for("q000", Narrative.ANTI, EventType.ADVERSE, 44_547, 10_898_774)
    articles += articles_for("r000", Narrative.PRO, EventType.POSITIVE, 308_983, 84_332_137)
    table = corpus.dataset_breakdown(articles, registry)
    elapsed = time.perf_counter() - start
    shares = (
        f"{table.questionable.sources_pct:.1f}",
        f"{table.reliable.sources_pct:.1f}",
        f"{table.questionable.contents_pct:.1f}",
        f"{table.reliable.contents_pct:.1f}",
        f"{table.questionable.interactions_pct:.1f}",
        f"{table.reliable.interactions_pct:.1f}",
    )
    expected = ("23.6", "76.4", "12.6", "87.4", "11.4", "88.6")
    ok = (
        shares == expected
        and table.total.contents == 353_530
        and table.total.interactions == 95_230_911
        and elapsed < 5.0
    )
    report(2, "published breakdown shares", ok, f"{shares}, {elapsed:.1f}s")


def test_c03_rwmh_standard_normal_stationarity():
    rng = np.random.default_rng(42)
    value = 0.0
    draws = np.empty(100_000)
    for t in range(draws.size):
        value, _ = latent.rwmh_update(value, lambda v: -0.5 * v * v, 2.4, rng)
        draws[t] = value
    mean, var = draws.mean(), draws.var()
    ok = abs(mean) < 0.02 and abs(var - 1.0) < 0.05
    report(3, "random-walk Metropolis stationarity", ok, f"mean={mean:.4f}, var={var:.4f}")


def test_c04_mcmc_matches_quadrature_oracle():
    start = time.perf_counter()
    consts = latent.ModelConstants()
    counts = np.array([[50, 10, 0]])
    grid = latent.grid_posterior_oracle(
        counts[0], latent.default_grid(counts[0], consts, step=0.01), consts
    )
    config = latent.ChainConfig(iterations=5000, burn_in=1000, chains=4, seed=1)
    summary = latent.posterior_summary(
        latent.run_chain(counts, config, consts), config.burn_in
    )
    d_alpha = abs(float(summary.alpha.mean[0]) - grid.mean_alpha)
    d_x = abs(float(summary.x.mean[0]) - grid.mean_x)
    elapsed = time.perf_counter() - start
    ok = d_alpha <= 0.05 and d_x <= 0.05 and elapsed < 10.0
    report(
        4,
        "quadrature-oracle equivalence",
        ok,
        f"d_alpha={d_alpha:.4f}, d_x={d_x:.4f}, {elapsed:.1f}s",
    )


def test_c05_parameter_recovery_per_event_type():
    start = time.perf_counter()
    consts = latent.ModelConstants()
    results = []
    for offset, event in enumerate(corpus.EVENT_ORDER):
        rng = np.random.default_rng(100 + offset)
        alpha_true = rng.uniform(5.2, 6.2, 50)  # row totals around 500
        x_true = rng.uniform(-0.9, 0.9, 50)
        counts = latent.simulate_counts(alpha_true, x_true, consts, rng)
        config = latent.ChainConfig(iterations=5000, burn_in=1000, chains=4, seed=11 + offset)
        summary = latent.posterior_summary(
            latent.run_chain(counts, config, consts), config.burn_in
        )
        r_alpha = float(np.corrcoef(alpha_true, summary.alpha.mean)[0, 1])
        r_x = float(np.corrcoef(x_true, summary.x.mean)[0, 1])
        results.append((event.value, r_alpha, r_x))
    elapsed = time.perf_counter() - start
    ok = all(r_a >= 0.95 and r_x >= 0.90 for _, r_a, r_x in results) and elapsed < 60.0
    detail = ", ".join(f"{e}: r_a={ra:.3f} r_x={rx:.3f}" for e, ra, rx in results)
    report(5, "synthetic parameter recovery", ok, f"{detail}, {elapsed:.0f}s")


def test_c06_credible_interval_coverage():
    start = time.perf_counter()
    consts = latent.ModelConstants()
    hits = total = 0
    for rep in range(100):
        rng = np.random.default_rng(10_000 + rep)
        alpha_true = rng.normal(2.0, 1.0, 20)
        x_true = rng.uniform(-0.9, 0.9, 20)
        counts = latent.simulate_counts(alpha_true, x_true, consts, rng)
        config = latent.ChainConfig(
            iterations=1500, burn_in=500, chains=2, seed=20_000 + rep
        )
        summary = latent.posterior_summary(
            latent.run_chain(counts, config, consts), config.burn_in
        )
        hits += int(((summary.alpha.q05 <= alpha_true) & (alpha_true <= summary.alpha.q95)).sum())
        total += alpha_true.size
    coverage = hits / total
    elapsed = time.perf_counter() - start
    ok = 0.80 <= coverage <= 0.98 and elapsed < 600.0
    report(6, "90% interval coverage", ok, f"coverage={coverage:.3f}, {elapsed:.0f}s")


def _clique_pair(k: int, bridge: float) -> network.AudienceGraph:
    nodes = tuple(f"n{i:02d}" for i in range(2 * k))
    edges = {}
    for a in range(k):
        for b in range(a + 1, k):
            edges[(nodes[a], nodes[b])] = 1.0
            edges[(nodes[k + a], nodes[k + b])] = 1.0
    edges[(nodes[k - 1], nodes[k])] = bridge
    return network.AudienceGraph.from_edges(nodes=nodes, edges=edges)


def _random_fixture(n: int, p: float, seed: int) -> network.AudienceGraph:
    rng = np.random.default_rng(seed)
    nodes = tuple(f"v{i:02d}" for i in range(n))
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges[(nodes[a], nodes[b])] = float(rng.uniform(0.1, 1.0))
    return network.AudienceGraph.from_edges(nodes=nodes, edges=edges)


def test_c07_louvain_matches_brute_force_on_fixtures():
    fixtures = {
        "two-5-cliques": _clique_pair(5, 0.01),
        "two-triangles": _clique_pair(3, 0.3),
        "dense-8a": _random_fixture(8, 0.5, 1),
        "dense-8b": _random_fixture(8, 0.45, 2),
        "dense-9": _random_fixture(9, 0.4, 3),
    }
    gaps = {}
    for name, graph in fixtures.items():
        best_q, _ = brute_force_best_partition(graph.nodes, graph.edges)
        partition = network.louvain(graph, seed=3)
        gaps[name] = abs(network.modularity(graph, partition) - best_q)
    partition = network.louvain(fixtures["two-5-cliques"], seed=3)
    first = {partition[f"n{i:02d}"] for i in range(5)}
    second = {partition[f"n{i:02d}"] for i in range(5, 10)}
    cliques_exact = len(first) == 1 and len(second) == 1 and first != second
    ok = all(gap < 1e-9 for gap in gaps.values()) and cliques_exact
    worst = max(gaps, key=gaps.get)
    report(
        7,
        "Louvain equals brute-force optimum",
        ok,
        f"{len(gaps)} fixtures, worst gap {gaps[worst]:.1e} ({worst})",
    )


def test_c08_modularity_identities():
    triangles = network.AudienceGraph.from_edges(
        nodes=("a", "b", "c", "d", "e", "f"),
        edges={
            ("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0,
            ("d", "e"): 1.0, ("d", "f"): 1.0, ("e", "f"): 1.0,
        },
    )
    q_one = network.modularity(triangles, {n: 0 for n in triangles.nodes})
    q_split = network.modularity(
        triangles, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    )
    ok = q_one == 0.0 and abs(q_split - 0.5) <= 1e-12
    report(8, "modularity identities", ok, f"Q_all={q_one!r}, Q_split={q_split!r}")


def test_c09_cosine_example_and_scaling():
    exact = network.cosine_weight([1, 2], [2, 1])
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        h = rng.uniform(0.0, 10.0, 5)
        k = rng.uniform(0.0, 10.0, 5)
        h[rng.integers(5)] += 0.1  # keep norms positive
        k[rng.integers(5)] += 0.1
        base = network.cosine_weight(h, k)
        scaled = network.cosine_weight(float(rng.uniform(0.01, 100.0)) * h, k)
        worst = max(worst, abs(scaled - base))
    ok = exact == 0.8 and worst < 1e-12
    report(9, "cosine weight example and scaling", ok, f"w={exact!r}, max drift={worst:.1e}")


def test_c10_convexity_regression():
    rng = np.random.default_rng(10)
    xs = rng.uniform(-2.0, 2.0, 200)
    noisy = metrics.quadratic_fit(xs, xs**2 + rng.normal(0.0, 0.1, 200))
    exact = metrics.quadratic_fit(np.linspace(-3, 3, 25), 1 + 2 * np.linspace(-3, 3, 25) + 3 * np.linspace(-3, 3, 25) ** 2)
    exact_err = max(abs(exact.c0 - 1), abs(exact.c1 - 2), abs(exact.c2 - 3))
    ok = noisy.c2 > 0 and exact_err < 1e-9
    report(10, "convex engagement regression", ok, f"c2={noisy.c2:.3f}, exact err={exact_err:.1e}")


def _run_pipeline(sim: Path, out: Path) -> None:
    steps = [
        ["ingest", "--articles", str(sim / "articles.csv"), "--outlets", str(sim / "outlets.csv"),
         "--followers", str(sim / "followers.csv"), "--retweets", str(sim / "retweets.csv"),
         "--out", str(out)],
        ["fit", "--out", str(out), "--seed", "5", "--iters", "1200", "--burnin", "300",
         "--chains", "2"],
        ["bias", "--out", str(out)],
        ["engagement", "--out", str(out)],
        ["network", "--out", str(out), "--seed", "5"],
        ["report", "--out", str(out)],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage failed: {argv[0]}"


def _digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_c11_end_to_end_determinism_and_cluster_recovery(tmp_path):
    start = time.perf_counter()
    sim = tmp_path / "sim"
    out = tmp_path / "run"
    sim.mkdir()
    assert main(["simulate", "--out", str(sim), "--n-outlets", "12", "--clusters", "2",
                 "--seed", "5"]) == 0
    _run_pipeline(sim, out)
    first = _digest_dir(out)
    for artifact in out.iterdir():
        artifact.unlink()
    _run_pipeline(sim, out)
    second = _digest_dir(out)

    truth = json.loads((sim / "truth.json").read_text())["outlet_clusters"]
    found = {}
    with open(out / "clusters.csv") as handle:
        next(handle)
        for line in handle:
            outlet, cluster = line.strip().split(",")
            found[outlet] = int(cluster)
    planted = {o: truth[o] for o in found}
    ari = adjusted_rand_index(planted, found)
    elapsed = time.perf_counter() - start
    ok = first == second and ari >= 0.9 and elapsed < 120.0
    report(
        11,
        "pipeline determinism and audience recovery",
        ok,
        f"{len(first)} files byte-identical={first == second}, ARI={ari:.2f}, {elapsed:.0f}s",
    )
