"""Peak memory of the audience graph at 5000 outlets, in a process of its own.

Runs synth.generate(5000, 8, seed=1, alpha_loc=0.5) -> build_matrix ->
build_graph -> threshold_graph -> with_clusters, so every graph the network
stage builds goes through the checked AudienceGraph constructor, and exits 1
if the process's peak RSS passes LIMIT_MB. The graph holds about 10.5 M
outlet pairs, so a Gram product whose transient grows with N^2 rather than
with its edges shows.

    PYTHONPATH=src python scripts/network_memory.py
"""

from __future__ import annotations

import resource
import sys
import time

from newsbias import network, synth

N_OUTLETS = 5000
LIMIT_MB = 500.0


def main() -> int:
    data = synth.generate(N_OUTLETS, 8, seed=1, alpha_loc=0.5)
    matrix = network.build_matrix(data.retweets)
    start = time.perf_counter()
    graph = network.build_graph(matrix)
    kept = network.threshold_graph(graph)
    network.with_clusters(kept, {n: 0 for n in kept.nodes})
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(
        f"{N_OUTLETS} outlets: {graph.n_edges} pair edges, {kept.n_edges} kept, "
        f"build + threshold + clusters {seconds:.2f} s, "
        f"peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB:.0f} MB)"
    )
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
