"""Poisson latent-position model of outlet stance and its MCMC estimator.

For one event type, outlet i publishes y_ij articles of narrative class j
with y_ij ~ Poisson(lambda_ij) and

    log lambda_ij = alpha_i - |x_i - z_j|

where z = (-1, 0, 1) anchors the anti/neutral/pro classes, alpha_i is the
outlet's baseline publishing intensity and x_i its latent stance. Priors are
alpha_i ~ N(0, sd_alpha^2) (vague) and x_i ~ N(0, sd_x^2) (soft identification
constraint). Inference is Metropolis-within-Gibbs on beta_i = alpha_i +
log S(x_i), S(x) = sum_j exp(-|x - z_j|), and x_i: the likelihood splits into
Poisson(y_i. | e^beta_i) x Multinomial(y_i | pi(x_i)), which removes the
alpha-x ridge, and the Jacobian is 1, so the (alpha, x) posterior is unchanged.
The conditionals factorize by outlet, so each update moves every outlet of
every chain in one array step. PosteriorTable is the schema of posterior.csv.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from .corpus import EVENT_ORDER, EnumField, EventType, FloatField, IdField, InputError, Table

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModelConstants:
    """Fixed stance anchors and prior scales (standard deviations)."""

    stances: tuple[float, float, float] = (-1.0, 0.0, 1.0)
    prior_sd_alpha: float = 15.0
    prior_sd_x: float = 1.0

    def __post_init__(self):
        if len(self.stances) != 3 or not all(
            a < b for a, b in zip(self.stances, self.stances[1:])
        ):
            raise ValueError("stances must be 3 strictly increasing values")
        if self.prior_sd_alpha <= 0 or self.prior_sd_x <= 0:
            raise InputError("prior standard deviations must be > 0")


@dataclass(frozen=True)
class LatentParams:
    """One parameter state: intercepts alpha and stances x, both length N."""

    alpha: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if alpha.ndim != 1 or x.shape != alpha.shape:
            raise ValueError("alpha and x must be 1-D arrays of equal length")
        if not (np.isfinite(alpha).all() and np.isfinite(x).all()):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5000
    burn_in: int = 1000
    chains: int = 4
    seed: int = 0
    initial_proposal_sd: float = 0.5
    adapt: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise InputError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.chains < 1:
            raise InputError("chains must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be a nonnegative integer")
        if self.initial_proposal_sd <= 0:
            raise InputError("initial_proposal_sd must be > 0")


@dataclass(frozen=True)
class ChainDraws:
    """Raw draws, shaped (chains, iterations, N), plus per-parameter accept counts."""

    alpha: np.ndarray
    x: np.ndarray
    accepted_alpha: np.ndarray
    accepted_x: np.ndarray

    @property
    def n_chains(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_outlets(self) -> int:
        return self.alpha.shape[2]


@dataclass(frozen=True)
class ParamStats:
    """Posterior summaries per parameter index (arrays of length N)."""

    mean: np.ndarray
    sd: np.ndarray
    q05: np.ndarray
    q95: np.ndarray
    rhat: np.ndarray
    ess: np.ndarray


@dataclass(frozen=True)
class ParamSummary:
    alpha: ParamStats
    x: ParamStats
    n_draws: int


PARAMS = ("alpha", "x")


class PosteriorTable(Table):
    """posterior.csv: per fitted event type, the ParamStats of every outlet's
    alpha, then of its x; its rule: one row per (outlet, event type, param).
    Finite draws give finite statistics, so only `rhat` may be inf."""

    fields = (IdField("outlet_id"), EnumField("event_type", EVENT_ORDER, "event label"),
              EnumField("param", PARAMS, "parameter"),
              *(FloatField(f.name, finite=f.name != "rhat")
                for f in dataclasses.fields(ParamStats)))
    key = ("outlet_id", "event_type", "param")

    @classmethod
    def of(
        cls, outlets: Sequence[str], summaries: Mapping[EventType, ParamSummary]
    ) -> PosteriorTable:
        """Per summary, in order, its alpha rows, then its x rows; row i of each is outlets[i]'s."""
        stats = [s for summary in summaries.values() for s in (summary.alpha, summary.x)]
        n = len(outlets)
        events = np.repeat([EVENT_ORDER.index(event) for event in summaries], 2 * n)
        values = (np.ravel([getattr(s, f.name) for s in stats]) for f in cls.fields[3:])
        columns = [np.tile(np.arange(n), len(stats)), events, np.arange(len(stats) * n) // n % 2]
        return cls([*columns, *values], {"outlet_id": outlets})


def log_intensity(alpha, x, z):
    """log lambda = alpha - |x - z|; the 1-D Euclidean distance is |x - z|.

    Broadcasts over numpy arrays; the likelihood, the simulator and the
    sampler all take their log rates from here.
    """
    return alpha - np.abs(x - z)


def _check_counts(Y_k, n_params: int | None = None) -> np.ndarray:
    Y = np.asarray(Y_k)
    if Y.ndim != 2 or Y.shape[1] != 3:
        raise ValueError(f"count slice must be N x 3, got shape {Y.shape}")
    if n_params is not None and Y.shape[0] != n_params:
        raise ValueError(
            f"count slice has {Y.shape[0]} rows but parameters have length {n_params}"
        )
    if (Y < 0).any():
        raise ValueError("counts must be >= 0")
    return Y.astype(float)


def log_likelihood(params: LatentParams, Y_k, consts: ModelConstants) -> float:
    """Poisson log likelihood, log(y!) included so values match pmf oracles."""
    Y = _check_counts(Y_k, params.alpha.shape[0])
    z = np.asarray(consts.stances)
    loglam = log_intensity(params.alpha[:, None], params.x[:, None], z)
    return float(np.sum(Y * loglam - np.exp(loglam) - gammaln(Y + 1.0)))


def _log_prior(params: LatentParams, consts: ModelConstants) -> float:
    n = params.alpha.shape[0]
    sa, sx = consts.prior_sd_alpha, consts.prior_sd_x
    qa = float(np.sum(params.alpha**2)) / (2.0 * sa * sa)
    qx = float(np.sum(params.x**2)) / (2.0 * sx * sx)
    return -qa - qx - n * (math.log(sa) + math.log(sx) + _LOG_2PI)


def log_posterior(params: LatentParams, Y_k, consts: ModelConstants) -> float:
    """Unnormalized log posterior: log likelihood plus Gaussian log priors."""
    return log_likelihood(params, Y_k, consts) + _log_prior(params, consts)


def rwmh_update(
    current_value: float,
    conditional_logpdf,
    proposal_sd: float,
    rng: np.random.Generator,
    current_logpdf: float | None = None,
) -> tuple[float, bool]:
    """One random-walk Metropolis step on a scalar parameter.

    Proposes current + N(0, proposal_sd^2) and accepts with probability
    min(1, exp(logpdf(proposal) - logpdf(current))). A non-finite logpdf at
    the proposal is treated as a rejection. Consumes exactly one normal and
    one uniform draw from rng per call. Pass current_logpdf to skip
    re-evaluating the target at the current value.
    """
    if proposal_sd <= 0:
        raise ValueError("proposal_sd must be > 0")
    proposal = current_value + rng.normal(0.0, proposal_sd)
    u = rng.random()
    lp_prop = conditional_logpdf(proposal)
    if not math.isfinite(lp_prop):
        return current_value, False
    lp_cur = (
        conditional_logpdf(current_value) if current_logpdf is None else current_logpdf
    )
    if _accept(lp_prop - lp_cur, u):
        return proposal, True
    return current_value, False


def _accept(delta, u):
    """Metropolis rule: accept iff u < exp(min(delta, 0)), u ~ U[0, 1).

    Works elementwise on arrays; a NaN or -inf log ratio is a rejection.
    """
    return u < np.exp(np.minimum(delta, 0.0))


# Acceptance-rate target and multiplicative step for burn-in proposal tuning.
_ADAPT_TARGET = 0.44
_ADAPT_EVERY = 50
_ADAPT_UP = 1.1
_ADAPT_DOWN = 0.9

# Cap on the log intensity; exp() overflows just above 709.
_MAX_LOG_INTENSITY = 700.0


def _stance_terms(x: np.ndarray, Y: np.ndarray, totals: np.ndarray, z: np.ndarray):
    """log S(x) and the multinomial log likelihood sum_j y_j log pi_j(x)."""
    log_rates = log_intensity(0.0, x[..., None], z)
    log_s = np.log(np.exp(log_rates).sum(axis=-1))
    return log_s, (Y * log_rates).sum(axis=-1) - totals * log_s


def _log_target(beta, x, log_s, multinomial, totals, consts: ModelConstants):
    """Per-outlet log posterior in (beta, x), up to a constant.

    -inf where alpha = beta - log S(x) exceeds the log-intensity cap.
    """
    alpha = beta - log_s
    lp = (
        totals * beta
        - np.exp(beta)
        + multinomial
        - alpha * alpha / (2.0 * consts.prior_sd_alpha**2)
        - x * x / (2.0 * consts.prior_sd_x**2)
    )
    return np.where(alpha > _MAX_LOG_INTENSITY, -np.inf, lp)


def run_chain(
    Y_k, config: ChainConfig, consts: ModelConstants, *, event_index: int = 0
) -> ChainDraws:
    """Run config.chains independent Metropolis-within-Gibbs chains on (beta, x).

    Chain c draws from default_rng(SeedSequence([config.seed, event_index, c])),
    so each (seed, event type, chain) has its own stream. Chains start at
    alpha = 0 and x = +0.5 / -0.5 (alternating by chain index, so multi-chain
    starts are overdispersed in x). Each iteration moves every beta, then every
    x, and records alpha = beta - log S(x). During burn-in, per-parameter
    proposal scales are rescaled every 50 iterations toward a 0.44 acceptance
    rate (x1.1 if above, x0.9 if below) and frozen afterwards. accepted_alpha
    counts accepted beta moves. Identical inputs produce identical draws.
    """
    Y = _check_counts(Y_k)
    n = Y.shape[0]
    chains, iterations = config.chains, config.iterations
    z = np.asarray(consts.stances)
    totals = Y.sum(axis=1)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([config.seed, event_index, c]))
        for c in range(chains)
    ]

    x = np.empty((chains, n))
    x[0::2], x[1::2] = 0.5, -0.5
    log_s, multinomial = _stance_terms(x, Y, totals, z)
    beta = log_s.copy()
    lp = _log_target(beta, x, log_s, multinomial, totals, consts)
    # index 0 is beta, index 1 is x
    scale = np.full((2, chains, n), config.initial_proposal_sd)
    accepted = np.zeros((2, chains, n), dtype=np.int64)
    window_start = accepted.copy()
    noise = np.empty((chains, 2, n))
    uniform = np.empty_like(noise)
    out_a = np.empty((chains, iterations, n))
    out_x = np.empty_like(out_a)

    # exp(beta) may overflow and log S(x) underflow on far-out proposals;
    # the resulting inf/NaN log ratios are rejections
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for h in range(iterations):
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=noise[c])
                rng.random(out=uniform[c])

            prop = beta + scale[0] * noise[:, 0]
            lp_prop = _log_target(prop, x, log_s, multinomial, totals, consts)
            ok = _accept(lp_prop - lp, uniform[:, 0])
            beta = np.where(ok, prop, beta)
            lp = np.where(ok, lp_prop, lp)
            accepted[0] += ok

            prop = x + scale[1] * noise[:, 1]
            prop_s, prop_m = _stance_terms(prop, Y, totals, z)
            lp_prop = _log_target(beta, prop, prop_s, prop_m, totals, consts)
            ok = _accept(lp_prop - lp, uniform[:, 1])
            x = np.where(ok, prop, x)
            log_s = np.where(ok, prop_s, log_s)
            multinomial = np.where(ok, prop_m, multinomial)
            lp = np.where(ok, lp_prop, lp)
            accepted[1] += ok

            out_a[:, h] = beta - log_s
            out_x[:, h] = x

            if config.adapt and h < config.burn_in and (h + 1) % _ADAPT_EVERY == 0:
                rate = (accepted - window_start) / _ADAPT_EVERY
                window_start = accepted.copy()
                scale[rate > _ADAPT_TARGET] *= _ADAPT_UP
                scale[rate < _ADAPT_TARGET] *= _ADAPT_DOWN

    return ChainDraws(
        alpha=out_a, x=out_x, accepted_alpha=accepted[0], accepted_x=accepted[1]
    )


def _mean_autocovariance(seqs: np.ndarray) -> np.ndarray:
    """Chain-averaged biased autocovariances via FFT; seqs is (chains, n, N)."""
    n = seqs.shape[1]
    centered = seqs - seqs.mean(axis=1, keepdims=True)
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, m, axis=1)
    power = (f.real**2 + f.imag**2).mean(axis=0)
    return np.fft.irfft(power, m, axis=0)[:n] / n


def _split_rhat(seqs: np.ndarray) -> np.ndarray:
    """Split-R-hat per parameter; seqs is (chains, n, N) with n >= 4."""
    n = seqs.shape[1]
    half = n // 2
    halves = np.concatenate([seqs[:, :half, :], seqs[:, n - half :, :]], axis=0)
    w = halves.var(axis=1, ddof=1).mean(axis=0)
    b = half * halves.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (half - 1) / half * w + b / half
    out = np.ones(seqs.shape[2])
    nonzero = w > 0
    out[nonzero] = np.sqrt(var_plus[nonzero] / w[nonzero])
    out[(~nonzero) & (b > 0)] = np.inf
    return out


def _effective_sample_size(seqs: np.ndarray) -> np.ndarray:
    """ESS per parameter from chain-averaged autocorrelations (Geyer truncation);
    seqs is (chains, n, N) with n >= 4."""
    chains, n, n_params = seqs.shape
    total = chains * n
    mean_acov = _mean_autocovariance(seqs)
    w = seqs.var(axis=1, ddof=1).mean(axis=0)
    if chains > 1:
        b_over_n = seqs.mean(axis=1).var(axis=0, ddof=1)
    else:
        b_over_n = np.zeros(n_params)
    var_plus = (n - 1) / n * w + b_over_n
    mixed = var_plus > 0
    rho = 1.0 - (w[mixed] - mean_acov[:, mixed]) / var_plus[mixed]
    # Geyer's initial monotone sequence: the pairs rho_{2k-1} + rho_{2k},
    # 1 <= k < (n - 1) // 2, each capped by its predecessors, summed up to
    # the first negative pair
    end = 2 * ((n - 1) // 2)
    pairs = rho[1 : end - 1 : 2] + rho[2:end:2]
    positive = np.logical_and.accumulate(pairs >= 0, axis=0)
    monotone = np.minimum.accumulate(pairs, axis=0)
    tau = 1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=0)
    ess = np.full(n_params, float(total))
    ess[mixed] = np.minimum(float(total), total / tau)
    return ess


def _stats(seqs: np.ndarray) -> ParamStats:
    pooled = seqs.reshape(-1, seqs.shape[2])
    q05, q95 = np.quantile(pooled, [0.05, 0.95], axis=0)
    # interval order is guaranteed for finite draws, so a violation is a bug
    # upstream; the mean may legitimately fall outside the central interval
    # for skewed posteriors
    if not (q05 <= q95).all():
        raise RuntimeError("posterior quantiles out of order: the draws are not finite")
    return ParamStats(
        mean=pooled.mean(axis=0),
        sd=pooled.std(axis=0, ddof=1),
        q05=q05,
        q95=q95,
        rhat=_split_rhat(seqs),
        ess=_effective_sample_size(seqs),
    )


def posterior_summary(draws: ChainDraws, burn_in: int) -> ParamSummary:
    """Pooled post-burn-in means, sds, central 90% intervals, R-hat and ESS."""
    if burn_in >= draws.n_iterations:
        raise ValueError("burn_in must be smaller than the number of iterations")
    kept = draws.n_iterations - burn_in
    if kept * draws.n_chains < 10:
        raise InputError(
            f"only {kept * draws.n_chains} post-burn-in draws; need at least 10"
        )
    if kept < 4:
        raise InputError(f"only {kept} post-burn-in draws per chain; need at least 4")
    alpha = draws.alpha[:, burn_in:, :]
    x = draws.x[:, burn_in:, :]
    return ParamSummary(
        alpha=_stats(alpha), x=_stats(x), n_draws=kept * draws.n_chains
    )


def simulate_counts(
    alpha_true, x_true, consts: ModelConstants, rng: np.random.Generator
) -> np.ndarray:
    """Draw an N x 3 count slice from the model at the given parameters."""
    params = LatentParams(np.asarray(alpha_true, float), np.asarray(x_true, float))
    z = np.asarray(consts.stances)
    loglam = log_intensity(params.alpha[:, None], params.x[:, None], z)
    return rng.poisson(np.exp(loglam)).astype(np.int64)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (alpha, x) evaluation grid with a common step."""

    alpha_range: tuple[float, float]
    x_range: tuple[float, float]
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.alpha_range[0] >= self.alpha_range[1]:
            raise ValueError("alpha_range must be increasing")
        if self.x_range[0] >= self.x_range[1]:
            raise ValueError("x_range must be increasing")


@dataclass(frozen=True)
class GridPosterior:
    mean_alpha: float
    mean_x: float
    warnings: tuple[str, ...] = ()


def default_grid(y_row, consts: ModelConstants, step: float = 0.01) -> GridSpec:
    """Data-informed alpha range plus +-6 prior sds for x."""
    total = float(np.asarray(y_row).sum())
    if total > 0:
        center = math.log(total + 1.0)
        alpha_range = (center - 8.0, center + 4.0)
    else:
        alpha_range = (-6.0 * consts.prior_sd_alpha, 4.0)
    half = 6.0 * consts.prior_sd_x
    return GridSpec(alpha_range=alpha_range, x_range=(-half, half), step=step)


def grid_posterior_oracle(
    y_row, grid: GridSpec, consts: ModelConstants
) -> GridPosterior:
    """Riemann-sum posterior means of (alpha, x) for a single outlet.

    Independent of the MCMC path: evaluates the log posterior on the full
    grid and normalizes. Intended as a verification oracle for N = 1 fits.
    """
    y = np.asarray(y_row, dtype=float).reshape(-1)
    if y.shape != (3,):
        raise ValueError("oracle requires a single outlet's 3 narrative counts")
    if (y < 0).any():
        raise ValueError("counts must be >= 0")
    warnings = ()
    if grid.step > 0.02:
        warnings = (
            f"grid step {grid.step:g} exceeds 0.02; posterior means may be coarse",
        )
    alphas = np.arange(grid.alpha_range[0], grid.alpha_range[1] + grid.step / 2, grid.step)
    xs = np.arange(grid.x_range[0], grid.x_range[1] + grid.step / 2, grid.step)
    z = np.asarray(consts.stances)
    dist = np.abs(xs[:, None] - z[None, :])
    loglam = alphas[:, None, None] - dist[None, :, :]
    loglik = (y * loglam).sum(axis=2) - np.exp(loglam).sum(axis=2) - gammaln(y + 1.0).sum()
    logpost = (
        loglik
        - (alphas[:, None] ** 2) / (2.0 * consts.prior_sd_alpha**2)
        - (xs[None, :] ** 2) / (2.0 * consts.prior_sd_x**2)
    )
    weights = np.exp(logpost - logpost.max())
    norm = weights.sum()
    return GridPosterior(
        mean_alpha=float((weights.sum(axis=1) @ alphas) / norm),
        mean_x=float((weights.sum(axis=0) @ xs) / norm),
        warnings=warnings,
    )
