import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from newsbias import latent
from newsbias.latent import (
    ChainConfig,
    ChainDraws,
    GridSpec,
    LatentParams,
    ModelConstants,
    log_intensity,
    log_likelihood,
    log_posterior,
    posterior_summary,
    rwmh_update,
    run_chain,
    simulate_counts,
)

CONSTS = ModelConstants()


class TestLogIntensity:
    def test_zero_distance(self):
        assert log_intensity(0.0, 1.0, 1.0) == 0.0

    def test_alpha_cancels_distance(self):
        assert log_intensity(2.0, -1.0, 1.0) == 0.0

    def test_hand_value(self):
        assert log_intensity(1.3, 0.4, -1.0) == pytest.approx(-0.1, abs=1e-12)

    def test_bounded_by_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, x, z = rng.normal(size=3)
            value = log_intensity(a, x, z)
            assert math.exp(value) > 0
            assert value <= a
            assert (value == a) == (x == z)


class TestLogLikelihood:
    def test_hand_value_all_zero_counts(self):
        params = LatentParams(np.zeros(1), np.zeros(1))
        value = log_likelihood(params, np.zeros((1, 3), dtype=int), CONSTS)
        assert value == pytest.approx(-(1.0 + 2.0 / math.e), abs=1e-12)

    def test_vanishing_intensity_approaches_zero_from_below(self):
        params = LatentParams(np.full(2, -40.0), np.zeros(2))
        value = log_likelihood(params, np.zeros((2, 3), dtype=int), CONSTS)
        assert -1e-15 < value < 0

    def test_matches_poisson_pmf_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            params = LatentParams(rng.normal(1.0, 1.0, n), rng.normal(0.0, 0.7, n))
            counts = rng.integers(0, 30, size=(n, 3))
            lam = np.exp(
                params.alpha[:, None] - np.abs(params.x[:, None] - np.array([-1.0, 0.0, 1.0]))
            )
            oracle = stats.poisson.logpmf(counts, lam).sum()
            assert log_likelihood(params, counts, CONSTS) == pytest.approx(
                oracle, abs=1e-10
            )

    def test_dimension_mismatch(self):
        params = LatentParams(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            log_likelihood(params, np.zeros((3, 3), dtype=int), CONSTS)
        with pytest.raises(ValueError):
            log_likelihood(params, np.zeros((2, 4), dtype=int), CONSTS)

    def test_reflection_symmetry(self):
        # mirroring stances and swapping anti/pro columns leaves the value unchanged
        rng = np.random.default_rng(9)
        params = LatentParams(rng.normal(1, 1, 4), rng.normal(0, 1, 4))
        counts = rng.integers(0, 25, size=(4, 3))
        mirrored = LatentParams(params.alpha, -params.x)
        swapped = counts[:, ::-1].copy()
        assert log_likelihood(params, counts, CONSTS) == pytest.approx(
            log_likelihood(mirrored, swapped, CONSTS), abs=1e-12
        )


class TestLogPosterior:
    def test_prior_only_matches_gaussian_oracle(self):
        rng = np.random.default_rng(2)
        params = LatentParams(rng.normal(0, 5, 3), rng.normal(0, 1, 3))
        zeros = np.zeros((3, 3), dtype=int)
        prior = log_posterior(params, zeros, CONSTS) - log_likelihood(params, zeros, CONSTS)
        oracle = stats.norm.logpdf(params.alpha, 0, 15).sum() + stats.norm.logpdf(
            params.x, 0, 1
        ).sum()
        assert prior == pytest.approx(oracle, abs=1e-10)

    def test_hand_composition(self):
        params = LatentParams(np.zeros(1), np.zeros(1))
        zeros = np.zeros((1, 3), dtype=int)
        expected = (
            -(1.0 + 2.0 / math.e)
            + stats.norm.logpdf(0, 0, 15)
            + stats.norm.logpdf(0, 0, 1)
        )
        assert log_posterior(params, zeros, CONSTS) == pytest.approx(expected, abs=1e-10)

    def test_differences_unaffected_by_count_constant(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 15, size=(2, 3))
        p1 = LatentParams(rng.normal(size=2), rng.normal(size=2))
        p2 = LatentParams(rng.normal(size=2), rng.normal(size=2))
        diff = log_posterior(p1, counts, CONSTS) - log_posterior(p2, counts, CONSTS)

        def no_factorial(params):
            z = np.array([-1.0, 0.0, 1.0])
            loglam = params.alpha[:, None] - np.abs(params.x[:, None] - z)
            like = float((counts * loglam - np.exp(loglam)).sum())
            prior = -float((params.alpha**2).sum()) / (2 * 15.0**2) - float(
                (params.x**2).sum()
            ) / 2.0
            return like + prior

        assert diff == pytest.approx(no_factorial(p1) - no_factorial(p2), abs=1e-9)


class TestRwmhUpdate:
    def test_flat_target_always_accepts(self):
        rng = np.random.default_rng(1)
        accepted = 0
        value = 0.0
        for _ in range(500):
            value, ok = rwmh_update(value, lambda _: 0.0, 1.0, rng)
            accepted += ok
        assert accepted == 500

    def test_all_proposals_in_minus_inf_region_rejected(self):
        rng = np.random.default_rng(1)
        target = lambda v: 0.0 if v == 0.0 else -math.inf
        for _ in range(200):
            value, ok = rwmh_update(0.0, target, 1.0, rng)
            assert value == 0.0 and not ok

    def test_standard_normal_moments(self):
        rng = np.random.default_rng(42)
        value = 0.0
        draws = np.empty(100_000)
        for t in range(draws.size):
            value, _ = rwmh_update(value, lambda v: -0.5 * v * v, 2.4, rng)
            draws[t] = value
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_invalid_proposal_sd(self):
        with pytest.raises(ValueError):
            rwmh_update(0.0, lambda v: 0.0, 0.0, np.random.default_rng(0))

    def test_current_logpdf_shortcut_matches(self):
        target = lambda v: -0.5 * v * v
        a = rwmh_update(0.3, target, 1.0, np.random.default_rng(7))
        b = rwmh_update(0.3, target, 1.0, np.random.default_rng(7), current_logpdf=target(0.3))
        assert a == b


class TestRunChain:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(5.0, size=(4, 3))
        config = ChainConfig(iterations=200, burn_in=50, chains=2, seed=123)
        first = run_chain(counts, config, CONSTS)
        second = run_chain(counts, config, CONSTS)
        assert (first.alpha == second.alpha).all()
        assert (first.x == second.x).all()
        assert (first.accepted_alpha == second.accepted_alpha).all()

    @pytest.mark.parametrize("chains", [1, 3])
    def test_accept_counts_are_the_moves_in_the_draws(self, chains):
        # 130 outlets split each block into several parts, 600 iterations make
        # three blocks, and every seventh row counts nothing. A move is
        # accepted where x differs from the draw before it, the start (+0.5 or
        # -0.5, alternating by chain) before the first; alpha, which starts at
        # 0, moves with x
        rng = np.random.default_rng(3)
        counts = rng.poisson(3.0, size=(130, 3))
        counts[::7] = 0
        assert latent._CHUNK // len(counts) < latent._BLOCK
        draws = run_chain(counts, ChainConfig(iterations=600, burn_in=100, chains=chains,
                                              seed=2), CONSTS)
        starts = np.empty((chains, 1, len(counts)))
        starts[0::2], starts[1::2] = 0.5, -0.5
        moved = np.diff(draws.x, axis=1, prepend=starts) != 0
        np.testing.assert_array_equal(draws.accepted_x, moved.sum(axis=1))
        np.testing.assert_array_equal(draws.accepted_alpha, draws.accepted_x)
        np.testing.assert_array_equal(np.diff(draws.alpha, axis=1, prepend=0.0) != 0, moved)
        assert 0 < moved.mean() < 1

    def test_overdispersed_starts_alternate(self):
        counts = np.ones((2, 3), dtype=int)
        config = ChainConfig(iterations=5, burn_in=1, chains=2, seed=9)
        draws = run_chain(counts, config, CONSTS)
        assert draws.alpha.shape == (2, 5, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(chains=0)
        with pytest.raises(ValueError):
            ChainConfig(seed=-1)

    def test_recovers_synthetic_truth(self):
        rng = np.random.default_rng(77)
        alpha_true = rng.uniform(4.8, 6.0, 30)
        x_true = rng.uniform(-0.9, 0.9, 30)
        counts = simulate_counts(alpha_true, x_true, CONSTS, rng)
        config = ChainConfig(iterations=2500, burn_in=600, chains=2, seed=4)
        summary = posterior_summary(run_chain(counts, config, CONSTS), config.burn_in)
        assert np.corrcoef(alpha_true, summary.alpha.mean)[0, 1] > 0.9
        assert np.corrcoef(x_true, summary.x.mean)[0, 1] > 0.9

    def test_c05_fixtures_converge(self):
        # the acceptance c05 fixtures; sampling (alpha, x) directly crawled
        # along the alpha - x ridge of outlets with x > 1 (R-hat up to 1.85)
        for k in range(3):
            rng = np.random.default_rng(100 + k)
            alpha_true = rng.uniform(5.2, 6.2, 50)
            x_true = rng.uniform(-0.9, 0.9, 50)
            counts = simulate_counts(alpha_true, x_true, CONSTS, rng)
            config = ChainConfig(iterations=5000, burn_in=1000, chains=4, seed=11 + k)
            summary = posterior_summary(run_chain(counts, config, CONSTS), config.burn_in)
            assert max(summary.alpha.rhat.max(), summary.x.rhat.max()) <= 1.05, k

    @pytest.mark.parametrize("data_seed", [105, 111])
    def test_fresh_c05_style_data_converge(self, data_seed):
        # c05-style data on which the random-walk kernel this one replaced
        # reached split R-hat 1.13 and 1.20
        rng = np.random.default_rng(data_seed)
        alpha_true = rng.uniform(5.2, 6.2, 50)
        x_true = rng.uniform(-0.9, 0.9, 50)
        counts = simulate_counts(alpha_true, x_true, CONSTS, rng)
        config = ChainConfig(iterations=5000, burn_in=1000, chains=4, seed=11)
        summary = posterior_summary(run_chain(counts, config, CONSTS), config.burn_in)
        assert max(summary.alpha.rhat.max(), summary.x.rhat.max()) <= 1.05
        assert min(summary.alpha.ess.min(), summary.x.ess.min()) >= 1000

    def test_matches_quadrature_oracle_on_zero_small_and_plateau_rows(self):
        # an all-zero row (prior-driven), small counts, and a large row whose
        # stance sits near the plateau beyond -1, fitted together: the posterior
        # factorizes by outlet
        rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 7], [504, 234, 83]])
        config = ChainConfig(iterations=20_000, burn_in=2000, chains=4, seed=3)
        summary = posterior_summary(run_chain(rows, config, CONSTS), config.burn_in)
        for i, row in enumerate(rows):
            step = 0.04 if row.sum() == 0 else 0.01  # the zero row's alpha range is wide
            oracle = latent.grid_posterior_oracle(
                row, latent.default_grid(row, CONSTS, step), CONSTS)
            for param, expected in (("alpha", oracle.mean_alpha), ("x", oracle.mean_x)):
                fitted = getattr(summary, param)
                # 5 Monte Carlo standard errors, plus the quadrature's own error
                tolerance = 5.0 * fitted.sd[i] / math.sqrt(fitted.ess[i]) + 0.005
                assert abs(fitted.mean[i] - expected) <= tolerance, (row, param)

    def test_simulation_based_calibration(self):
        # SBC (Talts et al. 2018, arXiv:1804.06788): for truths drawn from the
        # prior and counts simulated from them, the rank of each truth among
        # independent posterior draws is uniform exactly when the kernel targets
        # the posterior, so a wrong proposal density in the weights shows. The
        # posterior factorizes by outlet: 2000 replicates are one fit of 2000
        # outlets. Thinning by 6 exceeds the median integrated autocorrelation
        # time measured on these replicates, 1.45 pooled and 3.9 for zero-count
        # outlets (lag-6 autocorrelation 0.01 pooled, 0.03 zero-count). 399 kept draws
        # give 400 equally likely ranks, 20 to each of 20 bins. The seeds and
        # the chi^2(19) bound (p = 0.001) were fixed before the first run.
        consts = ModelConstants(prior_sd_alpha=2.0)
        rng = np.random.default_rng(1804)
        truth = {"alpha": rng.normal(0.0, consts.prior_sd_alpha, 2000),
                 "x": rng.normal(0.0, consts.prior_sd_x, 2000)}
        counts = simulate_counts(truth["alpha"], truth["x"], consts, rng)
        config = ChainConfig(iterations=700, burn_in=100, chains=4, seed=42)
        draws = run_chain(counts, config, consts)
        zero = counts.sum(axis=1) == 0
        assert zero.sum() > 500
        for param, values in truth.items():
            kept = getattr(draws, param)[:, config.burn_in :: 6].reshape(-1, 2000)[:399]
            bins = (kept < values).sum(axis=0) // 20
            for subset in (np.ones(2000, dtype=bool), zero):
                hist = np.bincount(bins[subset], minlength=20)
                chi2 = float(((hist - hist.mean()) ** 2 / hist.mean()).sum())
                assert chi2 <= 43.8, (param, int(subset.sum()), hist.tolist())

    def test_proposal_draws_follow_its_density(self):
        # the weights divide by the proposal's log_pdf, so it must be the
        # density draw() samples: the share of draws in each half of each grid
        # cell, and outside the grid, matches the integral of exp(log_pdf) there
        rows = np.array([[0, 0, 0], [3, 0, 40], [504, 234, 83]], dtype=float)
        proposal = latent._StanceProposal.of(rows, CONSTS)
        rng = np.random.default_rng(4)
        n_draws = 100_000
        x, cell = proposal.draw(rng.random((3, n_draws, 3)), rng)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        halves = 2 * latent._CELLS
        for i in range(3):
            assert np.mean(proposal.locate(x[:, i], i) != cell[:, i]) < 1e-4
            lo, half = proposal.lo[i], proposal.width[i] / 2.0
            offsets = np.arange(halves)[:, None]
            points = lo + half * (offsets + (nodes + 1.0) / 2.0)
            cells = np.broadcast_to(proposal.cell_base[i] + offsets // 2, points.shape)
            mass = half / 2.0 * np.exp(proposal.log_pdf(points, cells)) @ weights
            expected = n_draws * np.append(mass, 1.0 - mass.sum())
            first = 2 * (cell[:, i] - proposal.cell_base[i])
            which = np.clip(np.floor((x[:, i] - lo) / half), first, first + 1).astype(int)
            observed = np.bincount(np.where(cell[:, i] < 0, halves, which), minlength=halves + 1)
            big = expected >= 5.0
            observed = np.append(observed[big], observed[~big].sum())
            expected = np.append(expected[big], expected[~big].sum())
            assert stats.chisquare(observed, expected).pvalue > 1e-3, rows[i]

    def test_beta_x_target_is_the_alpha_x_posterior(self):
        # beta = alpha + log S(x) has Jacobian 1, so _log_ratio plus log q(beta | x)
        # differs between mapped points as the log posterior does. q(beta | x)
        # is Gamma(T, 1) in e^beta (its log pdf plus beta, the log Jacobian) for
        # T > 0 and N(log S(x), sd_alpha^2) for T = 0; row 0 counts nothing
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 40, size=(5, 3)).astype(float)
        counts[0] = 0.0
        totals = counts.sum(axis=1)
        z = np.asarray(latent.STANCES)

        def target(params):
            log_s = np.log(np.exp(-np.abs(params.x[:, None] - z)).sum(axis=1))
            beta = params.alpha + log_s
            ratio, alpha = latent._log_ratio(beta, params.x, counts, totals, CONSTS)
            np.testing.assert_allclose(alpha, params.alpha, rtol=0, atol=1e-12)
            log_q = np.where(totals > 0,
                             stats.gamma.logpdf(np.exp(beta), np.maximum(totals, 1.0)) + beta,
                             stats.norm.logpdf(beta, log_s, CONSTS.prior_sd_alpha))
            return (ratio + log_q).sum()

        for _ in range(10):
            p1 = LatentParams(rng.normal(2, 1, 5), rng.normal(0, 1.5, 5))
            p2 = LatentParams(rng.normal(2, 1, 5), rng.normal(0, 1.5, 5))
            assert target(p1) - target(p2) == pytest.approx(
                log_posterior(p1, counts, CONSTS) - log_posterior(p2, counts, CONSTS),
                abs=1e-9,
            )
        # alpha = beta - log S(0) passes the cap of 700 by 1 on every row
        beta = np.full(5, 701.0 + math.log(1.0 + 2.0 * math.exp(-1.0)))
        ratio, _ = latent._log_ratio(beta, np.zeros(5), counts, totals, CONSTS)
        assert (ratio == -math.inf).all()

    def test_stance_proposal_follows_the_x_posterior(self):
        # the x proposal's grid part is the x posterior with beta held at log T,
        # and the x prior where T = 0: over the cells that hold its mass, its
        # log density less the log posterior at the cell midpoints is constant.
        # A wrong shape leaves the kernel exact and only slows its mixing, so
        # the SBC and oracle tests would not see it
        rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 7], [504, 234, 83], [369, 178, 72]],
                        dtype=float)
        proposal = latent._StanceProposal.of(rows, CONSTS)
        z = np.asarray(latent.STANCES)
        for i, y in enumerate(rows):
            cells = proposal.cell_base[i] + np.arange(latent._CELLS)
            held = cells[np.diff(proposal.cdf[cells], prepend=0.0) >= 1e-6]
            mid = proposal.lo[i] + (held - proposal.cell_base[i] + 0.5) * proposal.width[i]
            if y.sum() > 0:
                log_s = np.log(np.exp(-np.abs(mid[:, None] - z)).sum(axis=1))
                alpha = math.log(y.sum()) - log_s
                target = [log_posterior(LatentParams([a], [m]), y[None], CONSTS)
                          for a, m in zip(alpha, mid)]
            else:
                target = stats.norm.logpdf(mid, 0.0, CONSTS.prior_sd_x)
            gap = proposal.log_density[held] - target
            assert len(held) > 10 and np.ptp(gap) < 1e-6, (y, np.ptp(gap))

    def test_stance_proposal_draws_the_cell_its_cdf_row_names(self):
        # the grid part's cell is the count of the outlet's cdf entries <= u[1],
        # exactly: every cdf entry below 1 (ties), 0 and random uniforms. Tail
        # entries of 1 are left out, as rng.random never returns 1
        rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 7], [504, 234, 83], [369, 178, 72]],
                        dtype=float)
        proposal = latent._StanceProposal.of(rows, CONSTS)
        rng = np.random.default_rng(12)
        v = np.concatenate([proposal.cdf[proposal.cdf < 1.0], [0.0], rng.random(2000)])
        u = np.full((3, len(v), len(rows)), 0.5)
        u[1] = v[:, None]
        _, cell = proposal.draw(u, rng)
        for i in range(len(rows)):
            row = proposal.cdf[proposal.cell_base[i] + np.arange(latent._CELLS)]
            expected = proposal.cell_base[i] + np.searchsorted(row, v, side="right")
            np.testing.assert_array_equal(cell[:, i], expected)

    def test_balanced_outlet_has_small_selection_index(self):
        # equal planted propensity for both polar event types must land the
        # outlet near the balance line after independent fits
        from newsbias.metrics import selection_index

        rng = np.random.default_rng(21)
        alpha_adverse = np.array([5.0, 4.0, 5.5])
        alpha_positive = np.array([5.0, 4.6, 4.9])
        counts_adverse = simulate_counts(alpha_adverse, [0.3, -0.5, 0.1], CONSTS, rng)
        counts_positive = simulate_counts(alpha_positive, [-0.2, 0.4, 0.0], CONSTS, rng)
        config = ChainConfig(iterations=2500, burn_in=600, chains=2, seed=21)
        fit_adv = posterior_summary(run_chain(counts_adverse, config, CONSTS), config.burn_in)
        fit_pos = posterior_summary(run_chain(counts_positive, config, CONSTS), config.burn_in)
        index = selection_index(float(fit_adv.alpha.mean[0]), float(fit_pos.alpha.mean[0]))
        assert index < 0.15


def constant_draws(value: float, chains=2, iters=60, n=1) -> ChainDraws:
    block = np.full((chains, iters, n), value)
    zeros = np.zeros((chains, n), dtype=np.int64)
    return ChainDraws(alpha=block, x=block.copy(), accepted_alpha=zeros, accepted_x=zeros)


class TestPosteriorSummary:
    def test_mean_autocovariance_matches_direct_sums(self, monkeypatch):
        # 16 parameters per FFT call (3 chains x 80 padded values each), so
        # the 70 parameters take five calls
        monkeypatch.setattr(latent, "_FFT_VALUES", 3 * 80 * 16)
        rng = np.random.default_rng(14)
        seqs = rng.normal(size=(3, 40, 70))
        centered = seqs - seqs.mean(axis=1, keepdims=True)
        direct = [(centered[:, : 40 - k] * centered[:, k:]).sum(axis=1).mean(axis=0) / 40
                  for k in range(40)]
        np.testing.assert_allclose(latent._mean_autocovariance(seqs), direct, rtol=0, atol=1e-12)

    def test_constant_draws(self):
        summary = posterior_summary(constant_draws(3.25), burn_in=10)
        assert summary.alpha.mean[0] == 3.25
        assert summary.alpha.sd[0] == 0.0
        assert summary.alpha.q05[0] == 3.25
        assert summary.alpha.q95[0] == 3.25
        assert summary.alpha.rhat[0] == 1.0

    def test_iid_draws_rhat_near_one(self):
        rng = np.random.default_rng(11)
        block = rng.normal(0.0, 1.0, size=(4, 500, 3))
        draws = ChainDraws(
            alpha=block,
            x=rng.normal(0.0, 1.0, size=(4, 500, 3)),
            accepted_alpha=np.zeros((4, 3), dtype=np.int64),
            accepted_x=np.zeros((4, 3), dtype=np.int64),
        )
        summary = posterior_summary(draws, burn_in=0)
        assert ((summary.alpha.rhat > 0.99) & (summary.alpha.rhat < 1.02)).all()
        assert ((summary.x.rhat > 0.99) & (summary.x.rhat < 1.02)).all()
        assert (summary.alpha.ess > 0.5 * 2000).all()

    def test_one_chain_iid_draws_rhat_near_one(self):
        rng = np.random.default_rng(13)
        block = rng.normal(0.0, 1.0, size=(1, 2000, 3))
        zeros = np.zeros((1, 3), dtype=np.int64)
        summary = posterior_summary(ChainDraws(block, block.copy(), zeros, zeros), burn_in=0)
        assert ((summary.alpha.rhat > 0.99) & (summary.alpha.rhat < 1.02)).all()
        assert (summary.alpha.ess > 0.5 * 2000).all()

    def test_disjoint_chains_flagged(self):
        rng = np.random.default_rng(12)
        chain_a = rng.normal(0.0, 1.0, size=(1, 400, 1))
        chain_b = rng.normal(10.0, 1.0, size=(1, 400, 1))
        block = np.concatenate([chain_a, chain_b], axis=0)
        draws = ChainDraws(
            alpha=block,
            x=block.copy(),
            accepted_alpha=np.zeros((2, 1), dtype=np.int64),
            accepted_x=np.zeros((2, 1), dtype=np.int64),
        )
        summary = posterior_summary(draws, burn_in=0)
        assert summary.alpha.rhat[0] > 1.2

    def test_quantiles_ordered_and_too_few_draws(self):
        summary = posterior_summary(constant_draws(1.0), burn_in=0)
        assert (summary.alpha.q05 <= summary.alpha.q95).all()
        with pytest.raises(ValueError, match="at least 10"):
            posterior_summary(constant_draws(1.0, chains=1, iters=12), burn_in=9)

    def test_fewer_than_four_draws_per_chain_raise(self):
        # 5 chains x 3 kept draws pass the total check; split R-hat needs 4
        with pytest.raises(ValueError, match="per chain; need at least 4"):
            posterior_summary(constant_draws(1.0, chains=5, iters=4), burn_in=1)

    def test_unordered_quantiles_raise_even_under_optimize(self):
        # NaN draws make q05 <= q95 false; the check must survive `python -O`
        script = (
            "import numpy as np\n"
            "from newsbias import latent\n"
            "block = np.full((2, 60, 1), np.nan)\n"
            "zeros = np.zeros((2, 1), dtype=np.int64)\n"
            "draws = latent.ChainDraws(block, block.copy(), zeros, zeros)\n"
            "try:\n"
            "    latent.posterior_summary(draws, burn_in=0)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(latent.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert "quantiles out of order" in result.stdout


class TestSimulateCounts:
    def test_tiny_intensity_gives_zero_counts(self):
        rng = np.random.default_rng(0)
        counts = simulate_counts(np.full(10_000, -20.0), np.zeros(10_000), CONSTS, rng)
        assert counts.mean() < 0.001

    def test_neutral_cell_mean(self):
        rng = np.random.default_rng(1)
        counts = simulate_counts(
            np.full(10_000, math.log(100.0)), np.zeros(10_000), CONSTS, rng
        )
        # cell mean 100, standard error 0.1 over 10^4 draws
        assert abs(counts[:, 1].mean() - 100.0) < 0.5

    def test_fixed_seed_reproducible(self):
        a = simulate_counts([1.0, 2.0], [0.1, -0.2], CONSTS, np.random.default_rng(5))
        b = simulate_counts([1.0, 2.0], [0.1, -0.2], CONSTS, np.random.default_rng(5))
        assert (a == b).all()


class TestGridOracle:
    def test_symmetric_counts_center_x(self):
        grid = latent.default_grid([20, 5, 20], CONSTS, step=0.01)
        result = latent.grid_posterior_oracle([20, 5, 20], grid, CONSTS)
        assert abs(result.mean_x) < grid.step
        assert result.warnings == ()

    def test_skewed_counts_negative_x(self):
        grid = latent.default_grid([50, 10, 0], CONSTS, step=0.01)
        result = latent.grid_posterior_oracle([50, 10, 0], grid, CONSTS)
        assert result.mean_x < 0

    def test_refinement_stability(self):
        y = [12, 30, 4]
        coarse = latent.grid_posterior_oracle(
            y, latent.default_grid(y, CONSTS, step=0.01), CONSTS
        )
        fine = latent.grid_posterior_oracle(
            y, latent.default_grid(y, CONSTS, step=0.005), CONSTS
        )
        assert abs(coarse.mean_alpha - fine.mean_alpha) < 1e-3
        assert abs(coarse.mean_x - fine.mean_x) < 1e-3

    def test_coarse_step_warning(self):
        grid = GridSpec(alpha_range=(-2, 6), x_range=(-6, 6), step=0.05)
        result = latent.grid_posterior_oracle([5, 5, 5], grid, CONSTS)
        assert result.warnings and "0.02" in result.warnings[0]

    def test_outlet_permutation_equivariance_of_posterior(self):
        # the posterior factorizes by outlet, so per-row oracle means permute
        # exactly with the rows
        counts = np.array([[30, 5, 1], [2, 8, 20], [7, 7, 7]])
        perm = [2, 0, 1]
        means = [
            latent.grid_posterior_oracle(
                row, latent.default_grid(row, CONSTS, 0.02), CONSTS
            )
            for row in counts
        ]
        permuted = [
            latent.grid_posterior_oracle(
                row, latent.default_grid(row, CONSTS, 0.02), CONSTS
            )
            for row in counts[perm]
        ]
        for new_i, old_i in enumerate(perm):
            assert permuted[new_i].mean_alpha == means[old_i].mean_alpha
            assert permuted[new_i].mean_x == means[old_i].mean_x


class TestModelConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConstants(prior_sd_alpha=0.0)
        with pytest.raises(ValueError):
            LatentParams(np.array([np.inf]), np.array([0.0]))
