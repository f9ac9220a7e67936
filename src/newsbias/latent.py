"""Poisson latent-position model of outlet stance and its MCMC estimator.

For one event type, outlet i publishes y_ij articles of narrative class j
with y_ij ~ Poisson(lambda_ij) and

    log lambda_ij = alpha_i - |x_i - z_j|

where z = STANCES = (-1, 0, 1) anchors the anti/neutral/pro classes, alpha_i
is the outlet's baseline publishing intensity and x_i its latent stance.
Priors are alpha_i ~ N(0, sd_alpha^2) (vague) and x_i ~ N(0, sd_x^2) (soft
identification constraint). Inference is on beta_i = alpha_i + log S(x_i),
S(x) = sum_j exp(-|x - z_j|), and x_i: the likelihood splits into
Poisson(y_i. | e^beta_i) x Multinomial(y_i | pi(x_i)), which removes the
alpha-x ridge, and the Jacobian is 1, so the (alpha, x) posterior is unchanged.
The posterior factorizes by outlet, and run_chain moves each outlet by an
independence Metropolis-Hastings kernel whose proposal follows that outlet's
own posterior, every outlet of every chain in one array step.
fit_event is the per-event fit that `newsbias fit` runs on each event type's
slice: run_chain, then posterior_summary. PosteriorTable is the schema of
posterior.csv.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.fft
from scipy.special import gammaln

from .corpus import EVENT_ORDER, EnumField, EventType, FloatField, IdField, InputError, Table

_LOG_2PI = math.log(2.0 * math.pi)

# the anchors z_j of the anti, neutral and pro narrative classes
STANCES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ModelConstants:
    """Prior scales (standard deviations)."""

    prior_sd_alpha: float = 15.0
    prior_sd_x: float = 1.0

    def __post_init__(self):
        if not (0 < self.prior_sd_alpha < math.inf and 0 < self.prior_sd_x < math.inf):
            raise InputError("prior standard deviations must be > 0 and finite")


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
    iterations: int = 1000
    burn_in: int = 200
    chains: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise InputError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.chains < 1:
            raise InputError("chains must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class ChainDraws:
    """Raw draws, shaped (chains, iterations, N), plus accept counts shaped
    (chains, N); alpha and x move jointly, so both count the joint moves."""

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

    @property
    def max_rhat(self) -> float:
        """The largest split R-hat over alpha and x."""
        return max(float(self.alpha.rhat.max()), float(self.x.rhat.max()))

    @property
    def min_ess(self) -> float:
        """The smallest effective sample size over alpha and x."""
        return min(float(self.alpha.ess.min()), float(self.x.ess.min()))


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
    loglam = log_intensity(params.alpha[:, None], params.x[:, None], np.asarray(STANCES))
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
    # a NaN or -inf log ratio is a rejection
    if u < math.exp(min(lp_prop - lp_cur, 0.0)):
        return proposal, True
    return current_value, False


# Cap on the log intensity; exp() overflows just above 709.
_MAX_LOG_INTENSITY = 700.0

# Iterations whose proposals are drawn and weighed together; the draws depend on it.
_BLOCK = 256
# The x proposal: _CELLS equal cells over each outlet's support, found on a coarse
# grid of _COARSE_STEP prior sds over +-_COARSE_HALF prior sds as the points within
# _SUPPORT_DROP nats of the maximum, widened by _SUPPORT_PAD coarse steps; mixed
# with weight _DEFENSIVE with the N(0, sd_x^2) prior, so it covers the real line.
_CELLS = 128
_COARSE_STEP = 0.1
_COARSE_HALF = 6.0
_SUPPORT_DROP = 20.0
_SUPPORT_PAD = 1.5
_DEFENSIVE = 0.05
# Values per array call when drawing and weighing proposals: 128 KB of
# float64, so a call's temporaries stay in cache.
_CHUNK = 16384


def _stance_terms(x: np.ndarray, Y: np.ndarray, totals: np.ndarray):
    """log S(x) and the multinomial log likelihood sum_j y_j log pi_j(x);
    x broadcasts against Y[..., j] and totals. The log rates are one array
    per anchor rather than a trailing axis of 3, which numpy reduces slowly."""
    r0, r1, r2 = (log_intensity(0.0, x, z_j) for z_j in STANCES)
    log_s = np.log(np.exp(r0) + np.exp(r1) + np.exp(r2))
    return log_s, Y[..., 0] * r0 + Y[..., 1] * r1 + Y[..., 2] * r2 - totals * log_s


def _log_ratio(beta, x, Y, totals, consts: ModelConstants):
    """log pi(beta, x) - log q(beta | x), up to a constant per outlet, and
    alpha = beta - log S(x); the arguments broadcast.

    q(beta | x) is Gamma(T, 1) in e^beta if T > 0, whose density
    exp(T beta - e^beta) cancels the Poisson factor and leaves the alpha
    prior; else the alpha prior N(log S(x), sd_alpha^2), which leaves the
    Poisson factor exp(-e^beta). At beta = log max(T, 1) this is the x
    posterior with beta held there, so it is also the log shape of the x
    proposal. -inf where alpha exceeds the log-intensity cap.
    """
    log_s, multinomial = _stance_terms(x, Y, totals)
    alpha = beta - log_s
    remainder = np.where(totals > 0, alpha * alpha / (2.0 * consts.prior_sd_alpha**2),
                         np.exp(beta))
    lp = multinomial - x * x / (2.0 * consts.prior_sd_x**2) - remainder
    return np.where(alpha > _MAX_LOG_INTENSITY, -np.inf, lp), alpha


@dataclass(frozen=True)
class _StanceProposal:
    """Per outlet i, _CELLS equal cells of `width[i]` from `lo[i]`. Outlets
    with equal counts share one grid: the flat (rows, _CELLS) arrays `cdf`,
    the cells' cumulative probabilities ending at 1, and `log_density`, the
    log density of the grid part in each cell. `cell_base[i]` is the flat
    index of outlet i's first cell."""

    cell_base: np.ndarray
    lo: np.ndarray
    width: np.ndarray
    cdf: np.ndarray
    log_density: np.ndarray
    sd: float

    @classmethod
    def of(cls, Y: np.ndarray, consts: ModelConstants) -> _StanceProposal:
        counts, row = np.unique(Y, axis=0, return_inverse=True)
        counts = counts[:, None]  # broadcasts against a row of stances
        totals = counts.sum(axis=2)
        log_t = np.log(np.maximum(totals, 1.0))
        step = _COARSE_STEP * consts.prior_sd_x
        coarse = step * np.arange(-_COARSE_HALF / _COARSE_STEP, _COARSE_HALF / _COARSE_STEP + 1)
        shape = _log_ratio(log_t, coarse, counts, totals, consts)[0]
        kept = shape >= shape.max(axis=1, keepdims=True) - _SUPPORT_DROP
        lo = coarse[kept.argmax(axis=1)] - _SUPPORT_PAD * step
        hi = coarse[-1 - kept[:, ::-1].argmax(axis=1)] + _SUPPORT_PAD * step
        width = (hi - lo) / _CELLS

        mid = lo[:, None] + (np.arange(_CELLS) + 0.5) * width[:, None]
        shape = _log_ratio(log_t, mid, counts, totals, consts)[0]
        cdf = np.cumsum(np.exp(shape - shape.max(axis=1, keepdims=True)), axis=1)
        cdf /= cdf[:, -1:]
        cdf[:, -1] = 1.0
        # cells whose probability underflows get log density -inf
        with np.errstate(divide="ignore"):
            log_density = np.log(np.diff(cdf, axis=1, prepend=0.0)) + np.log(
                (1.0 - _DEFENSIVE) / width[:, None])
        row = row.reshape(-1)
        return cls(row * _CELLS, lo[row], width[row], cdf.ravel(), log_density.ravel(),
                   consts.prior_sd_x)

    def draw(self, u: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Stances from uniforms u (3, ..., N), plus the flat index of each
        one's cell (or of where it would lie): u[0] picks the defensive part,
        u[1] the cell by inverse cdf and u[2] the point in the cell; defensive
        stances take normals from rng."""
        # u[1]'s cell: binary search for how many of the row's cdf entries are <= u[1]
        cell = np.broadcast_to(self.cell_base, u[1].shape).copy()
        for half in (64, 32, 16, 8, 4, 2, 1):
            cell += half * (self.cdf.take(cell + (half - 1)) <= u[1])
        x = self.lo + (cell - self.cell_base + u[2]) * self.width
        defensive = u[0] < _DEFENSIVE
        x[defensive] = self.sd * rng.standard_normal(np.count_nonzero(defensive))
        cell[defensive] = self.locate(x[defensive], np.nonzero(defensive)[-1])
        return x, cell

    def locate(self, x: np.ndarray, outlet) -> np.ndarray:
        """The flat cell index of each stance x of outlet `outlet`; -1 outside the grid."""
        k = np.floor((x - self.lo[outlet]) / self.width[outlet])
        return np.where((k >= 0) & (k < _CELLS), k + self.cell_base[outlet], -1).astype(np.intp)

    def log_pdf(self, x: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Log proposal density of stances x, each in flat cell `cell` (-1: none)."""
        grid = np.where(cell >= 0, self.log_density.take(cell), -np.inf)
        defensive = math.log(_DEFENSIVE / self.sd) - 0.5 * _LOG_2PI - x * x / (2.0 * self.sd**2)
        return np.logaddexp(grid, defensive)


def run_chain(
    Y_k, config: ChainConfig, consts: ModelConstants, *, event_index: int = 0
) -> ChainDraws:
    """Run config.chains independent independence-Metropolis chains on (beta, x).

    Each iteration makes one joint move per outlet: x' from the outlet's
    _StanceProposal, then beta' given x' (see _log_ratio); it is accepted
    with probability min(1, exp(w' - w)), w the importance weight _log_ratio
    less the proposal's log q(x), and alpha = beta - log S(x) is recorded.
    Proposals do not depend on the state, so in each block of _BLOCK
    iterations each chain draws and weighs its proposals in one pass, and
    then a per-iteration loop only accepts or rejects.
    Chain c draws from default_rng(SeedSequence([config.seed, event_index, c])),
    so each (seed, event type, chain) has its own stream. Chains start at
    alpha = 0 and x = +0.5 / -0.5 (alternating by chain index, so multi-chain
    starts are overdispersed in x). accepted_alpha and accepted_x both count
    the accepted joint moves. Identical inputs produce identical draws.
    """
    Y = _check_counts(Y_k)
    n = Y.shape[0]
    chains, iterations = config.chains, config.iterations
    totals = Y.sum(axis=1)
    empty = np.nonzero(totals == 0)[0]
    rngs = [
        np.random.default_rng(np.random.SeedSequence([config.seed, event_index, c]))
        for c in range(chains)
    ]
    out_a = np.empty((chains, iterations, n))
    out_x = np.empty_like(out_a)
    accepted = np.zeros((chains, n), dtype=np.int64)
    rows = max(1, _CHUNK // max(n, 1))  # iterations per array call

    # exp(beta) may overflow on far-out prior draws of beta, and cells and
    # weights may be -inf; such proposals are rejected
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        proposal = _StanceProposal.of(Y, consts)
        x = np.empty((chains, n))
        x[0::2], x[1::2] = 0.5, -0.5
        beta = _stance_terms(x, Y, totals)[0]
        w, alpha = _log_ratio(beta, x, Y, totals, consts)
        w -= proposal.log_pdf(x, proposal.locate(x, np.arange(n)))

        for start in range(0, iterations, _BLOCK):
            size = min(_BLOCK, iterations - start)
            # slot 0 of `stance` and `alpha_all` holds the state before the block
            stance = np.empty((chains, size + 1, n))
            alpha_all = np.empty_like(stance)
            stance[:, 0], alpha_all[:, 0] = x, alpha
            bar = np.empty((chains, size, n))  # -log u of each accept test
            block_w = np.empty_like(bar)
            # one chain's scratch: its uniforms, cells, e^beta (then beta) and normals
            u = np.empty((3, size, n))
            cell = np.empty((size, n), dtype=np.intp)
            beta = np.empty((size, n))
            normal = np.empty((size, len(empty)))
            parts = [slice(i, i + rows) for i in range(0, size, rows)]
            for c, rng in enumerate(rngs):
                proposed = stance[c, 1:]
                rng.random(out=u)
                rng.standard_exponential(out=bar[c])
                for part in parts:
                    proposed[part], cell[part] = proposal.draw(u[:, part], rng)
                # zero-count outlets take a Gamma(1) placeholder, replaced by their prior beta
                rng.standard_gamma(np.maximum(totals, 1.0), out=beta)
                rng.standard_normal(out=normal)
                np.log(beta, out=beta)
                beta[:, empty] = consts.prior_sd_alpha * normal + _stance_terms(
                    proposed[:, empty], Y[empty], totals[empty])[0]
                for part in parts:
                    ratio, alpha_all[c, 1:][part] = _log_ratio(
                        beta[part], proposed[part], Y, totals, consts)
                    block_w[c, part] = ratio - proposal.log_pdf(proposed[part], cell[part])

            # accept iff log u < w' - w, i.e. w' - log u > w
            bar += block_w
            took = np.empty(bar.shape, dtype=bool)  # whether each move was accepted
            for h in range(size):
                np.greater(bar[:, h], w, out=took[:, h])
                np.copyto(w, block_w[:, h], where=took[:, h])
            accepted += took.sum(axis=1)
            # each iteration's state is the one in its latest accepted slot, or slot 0
            picks = np.maximum.accumulate(took * np.arange(1, size + 1)[:, None], axis=1)
            out_a[:, start : start + size] = np.take_along_axis(alpha_all, picks, axis=1)
            out_x[:, start : start + size] = np.take_along_axis(stance, picks, axis=1)
            alpha, x = out_a[:, start + size - 1], out_x[:, start + size - 1]

    return ChainDraws(alpha=out_a, x=out_x, accepted_alpha=accepted, accepted_x=accepted.copy())


# Zero-padded values per FFT call in _mean_autocovariance (4 MB of float64),
# which bounds its transients.
_FFT_VALUES = 1 << 19


def _mean_autocovariance(seqs: np.ndarray) -> np.ndarray:
    """Chain-averaged biased autocovariances via FFT, shaped (n, N); seqs is
    (chains, n, N). The FFT runs along a contiguous axis, zero-padded to a
    fast length >= 2n - 1, for as many parameters at a time as _FFT_VALUES
    allows."""
    chains, n, n_params = seqs.shape
    m = scipy.fft.next_fast_len(2 * n - 1, real=True)
    step = max(1, _FFT_VALUES // (chains * m))
    out = np.empty((n, n_params))
    for i in range(0, n_params, step):
        part = seqs[:, :, i : i + step].transpose(2, 0, 1)
        f = scipy.fft.rfft(part - part.mean(axis=2, keepdims=True), m, axis=2)
        power = np.square(f.real)
        power += np.square(f.imag)
        out[:, i : i + step] = scipy.fft.irfft(power.mean(axis=1), m, axis=1)[:, :n].T
    return out / n


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


@dataclass(frozen=True)
class EventFit:
    """One event type's fit: its draws, their summary, and `empty`, the rows
    of the outlets with no articles, whose estimates are prior-driven."""

    draws: ChainDraws
    summary: ParamSummary
    empty: np.ndarray


def fit_event(Y_k, config: ChainConfig, consts: ModelConstants, event_index: int = 0) -> EventFit:
    """Fit one event type's N x 3 count slice: run_chain on the streams of
    `event_index`, then posterior_summary of the post-burn-in draws. Both are
    looked up in this module at call time, so a wrapper installed on
    `latent.run_chain` or `latent.posterior_summary` sees the calls."""
    draws = run_chain(Y_k, config, consts, event_index=event_index)
    empty = np.flatnonzero(np.asarray(Y_k).sum(axis=1) == 0)
    return EventFit(draws, posterior_summary(draws, config.burn_in), empty)


def simulate_counts(
    alpha_true, x_true, consts: ModelConstants, rng: np.random.Generator
) -> np.ndarray:
    """Draw an N x 3 count slice from the model at the given parameters."""
    params = LatentParams(np.asarray(alpha_true, float), np.asarray(x_true, float))
    loglam = log_intensity(params.alpha[:, None], params.x[:, None], np.asarray(STANCES))
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
    dist = np.abs(xs[:, None] - np.asarray(STANCES)[None, :])
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
