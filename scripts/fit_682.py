"""The default fit at the paper's 682 outlets, in a process of its own.

Runs `latent.run_chain` with the `ChainConfig()` defaults (4 chains x 5000
iterations, burn-in 1000) at seed 5 on the paper-682 counts,
synth.generate(682, 2, seed=1, alpha_loc=4.3) -> corpus.aggregate_counts, one
fit per event type as `newsbias fit` runs it, and exits 1 if any event's max
split R-hat passes RHAT_LIMIT or its min ESS falls below ESS_FLOOR. Prints
each event's max R-hat, min ESS and seconds, then the total wall time and the
process's peak RSS.

    PYTHONPATH=src python scripts/fit_682.py
"""

from __future__ import annotations

import dataclasses
import math
import resource
import sys
import time

from newsbias import corpus, latent, synth

RHAT_LIMIT = 1.05
ESS_FLOOR = 1000.0


def main() -> int:
    data = synth.generate(682, 2, seed=1, alpha_loc=4.3)
    tensor = corpus.aggregate_counts(data.articles, data.outlets)
    config = dataclasses.replace(latent.ChainConfig(), seed=5)
    consts = latent.ModelConstants()
    worst, fewest = 0.0, math.inf
    start = time.perf_counter()
    for k, event in enumerate(corpus.EVENT_ORDER):
        t0 = time.perf_counter()
        draws = latent.run_chain(tensor.event_slice(event), config, consts, event_index=k)
        summary = latent.posterior_summary(draws, config.burn_in)
        del draws
        rhat = max(float(summary.alpha.rhat.max()), float(summary.x.rhat.max()))
        ess = min(float(summary.alpha.ess.min()), float(summary.x.ess.min()))
        worst, fewest = max(worst, rhat), min(fewest, ess)
        print(f"{event.value}: max R-hat {rhat:.4f}, min ESS {ess:.0f}, "
              f"{time.perf_counter() - t0:.2f} s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{config.chains} x {config.iterations} (burn-in {config.burn_in}) at 682 outlets: "
          f"{time.perf_counter() - start:.2f} s, peak RSS {peak_mb:.1f} MB, "
          f"max R-hat {worst:.4f} (limit {RHAT_LIMIT}), "
          f"min ESS {fewest:.0f} (floor {ESS_FLOOR:.0f})")
    return 0 if worst <= RHAT_LIMIT and fewest >= ESS_FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
