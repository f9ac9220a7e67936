"""Spans around the public functions of the newsbias layers.

The tracer wraps functions by replacing module attributes, so `cli` (which
calls `corpus.parse_articles` and friends through the module) and the
benchmark itself both go through the wrappers without any source edit.
Spans are kept in memory and written out when the run ends.

A wrapped function that no longer exists is recorded as absent; the layer
metrics it would feed are then reported as 0 and listed under "absent".
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# module -> public function -> per-layer metric its span time adds to
TIMED = {
    "corpus": {
        "parse_articles": "corpus.parse_s",
        "parse_outlets": "corpus.parse_s",
        "parse_followers": "corpus.parse_s",
        "parse_retweets": "corpus.parse_s",
        "read_count_tensor": "corpus.parse_s",
        "filter_articles": "corpus.aggregate_s",
        "aggregate_counts": "corpus.aggregate_s",
        "dataset_breakdown": "corpus.aggregate_s",
        "write_articles": "corpus.write_s",
        "write_outlets": "corpus.write_s",
        "write_followers": "corpus.write_s",
        "write_retweets": "corpus.write_s",
        "write_count_tensor": "corpus.write_s",
    },
    "latent": {
        "run_chain": "latent.run_chain_s",
        "posterior_summary": "latent.summary_s",
    },
    "metrics": {
        "build_bias_table": "metrics.bias_s",
        "build_engagement_table": "metrics.engagement_s",
        "engagement_bias_fits": "metrics.fits_s",
    },
    "network": {
        "build_matrix": "network.matrix_s",
        "build_graph": "network.graph_s",
        "threshold_graph": "network.threshold_s",
        "louvain": "network.louvain_s",
        "with_clusters": "network.graph_s",
        "cluster_stats": "network.cluster_stats_s",
        "write_edges_csv": "network.write_s",
        "write_graphml": "network.write_s",
        "write_clusters_csv": "network.write_s",
        "write_cluster_stats_csv": "network.write_s",
    },
}

LAYERS = ("cli", "corpus", "latent", "metrics", "network")
STAGES = ("ingest", "fit", "bias", "engagement", "network", "report")

COUNTS = (
    "corpus.records_parsed",
    "corpus.rows_written",
    "latent.updates",
    "latent.accepted_alpha",
    "latent.accepted_x",
    "network.pair_edges",
    "network.kept_edges",
    "network.communities",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count(function: str, args: tuple, result, counts: dict) -> None:
    """Record the work one call did, measured where it happened."""
    if function.startswith("parse_"):
        counts["corpus.records_parsed"] += len(result)
    elif function == "read_count_tensor":
        counts["corpus.records_parsed"] += result.counts.size
    elif function == "write_count_tensor":
        counts["corpus.rows_written"] += args[0].counts.size
    elif function.startswith("write_") and function in TIMED["corpus"]:
        counts["corpus.rows_written"] += len(args[0])
    elif function == "run_chain":
        chains, iterations, n = result.alpha.shape
        counts["latent.updates"] += chains * iterations * 2 * n
        counts["latent.accepted_alpha"] += int(result.accepted_alpha.sum())
        counts["latent.accepted_x"] += int(result.accepted_x.sum())
    elif function == "build_graph":
        counts["network.pair_edges"] += result.n_edges
    elif function == "threshold_graph":
        counts["network.kept_edges"] += result.n_edges
    elif function == "louvain":
        counts["network.communities"] += len(set(result.values()))


class Tracer:
    """Records (name, start, end, parent, run id) spans while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def _wrap(self, module_name: str, function: str, original):
        name = f"{module_name}.{function}"

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            _count(function, args, result, self.counts)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for module_name, functions in TIMED.items():
            module = self.modules[module_name]
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    if f"{module_name}.{function}" not in self.absent:
                        self.absent.append(f"{module_name}.{function}")
                    continue
                self._originals.append((module, function, original))
                setattr(module, function, self._wrap(module_name, function, original))

    def uninstall(self) -> None:
        for module, function, original in reversed(self._originals):
            setattr(module, function, original)
        self._originals.clear()

    def start_rep(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts = dict.fromkeys(COUNTS, 0)

    def layer_metrics(self, run_id: str, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced repetition."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time: dict[int, float] = {}
        for _, (_, start, end, parent, _) in rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {f"cli.{stage}_s": 0.0 for stage in STAGES}
        for functions in TIMED.values():
            out.update(dict.fromkeys(functions.values(), 0.0))
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in rows:
            layer, function = name.split(".", 1)
            metric = f"cli.{function}_s" if layer == "cli" else TIMED[layer][function]
            out[metric] += end - start
            self_time[layer] += end - start - child_time.get(i, 0.0)
        c = self.counts
        out.update({k: float(c[k]) for k in COUNTS if "accepted" not in k})
        out["corpus.us_per_record"] = _ratio(1e6 * out["corpus.parse_s"],
                                             c["corpus.records_parsed"])
        out["latent.ns_per_update"] = _ratio(1e9 * out["latent.run_chain_s"],
                                             c["latent.updates"])
        # an update proposes one alpha_i or one x_i, half of them each
        for param in ("alpha", "x"):
            out[f"latent.accept_rate_{param}"] = _ratio(
                2 * c[f"latent.accepted_{param}"], c["latent.updates"])
        out["network.kept_ratio"] = _ratio(c["network.kept_edges"], c["network.pair_edges"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
            out[f"share.{layer}"] = _ratio(self_time[layer], wall_s)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": r}
            for n, s, e, p, r in self.spans
        ]
