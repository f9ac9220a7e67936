"""Convergence diagnostics owned by the benchmark.

The benchmark scores the sampler with these estimators rather than with
`newsbias.latent.posterior_summary`, so that a change to the program's own
diagnostics cannot redefine `min_ess_per_s` or `max_rhat`.

Both follow Gelman et al., *Bayesian Data Analysis* (3rd ed., ch. 11):
split R-hat without rank normalisation, and ESS from the multi-chain
autocorrelation with Geyer's initial monotone sequence truncation. All work
is vectorised over parameters; draws are shaped (chains, draws, params).
"""

from __future__ import annotations

import numpy as np


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Split R-hat per parameter: each chain is cut into two halves."""
    n = draws.shape[1]
    half = n // 2
    halves = np.concatenate([draws[:, :half], draws[:, n - half:]], axis=0)
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between = half * halves.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (half - 1) / half * within + between / half
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / within)
    # a parameter that never moves has R-hat 1 if all halves agree, else inf
    rhat[within == 0] = np.where(between[within == 0] > 0, np.inf, 1.0)
    return rhat


def ess(draws: np.ndarray) -> np.ndarray:
    """Effective sample size per parameter, capped at the number of draws."""
    chains, n, _ = draws.shape
    total = chains * n
    centred = draws - draws.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size, axis=1)[:, :n] / n
    within = draws.var(axis=1, ddof=1).mean(axis=0)
    between_over_n = draws.mean(axis=1).var(axis=0, ddof=1) if chains > 1 else 0.0
    var_plus = (n - 1) / n * within + between_over_n
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    # Geyer: sum pairs rho[2k] + rho[2k+1] while positive, made monotone
    pairs = rho[: 2 * (n // 2)].reshape(n // 2, 2, -1).sum(axis=1)
    positive = np.logical_and.accumulate(pairs > 0, axis=0)
    pairs = np.minimum.accumulate(np.where(positive, pairs, np.inf), axis=0)
    tau = -1.0 + 2.0 * np.where(positive, pairs, 0.0).sum(axis=0)
    out = np.where(tau > 0, total / tau, float(total))
    out[~(var_plus > 0)] = float(total)
    return np.minimum(out, float(total))


def ar1_self_check(rho: float = 0.9, chains: int = 4, n: int = 5_000,
                   params: int = 16, seed: int = 0) -> tuple[float, float]:
    """Mean ESS of simulated AR(1) chains and the closed form n(1 - rho)/(1 + rho).

    Each of `params` independent parameters runs `chains` AR(1) chains of
    length n; the mean over parameters damps the estimator's sampling noise.
    Returns (estimated, expected) for all chains pooled.
    """
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(1.0 - rho * rho), (chains, n, params))
    series = np.empty((chains, n, params))
    series[:, 0] = rng.normal(0.0, 1.0, (chains, params))
    for t in range(1, n):
        series[:, t] = rho * series[:, t - 1] + noise[:, t]
    return float(ess(series).mean()), chains * n * (1.0 - rho) / (1.0 + rho)
