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

    def test_overdispersed_starts_alternate(self):
        counts = np.ones((2, 3), dtype=int)
        config = ChainConfig(iterations=5, burn_in=1, chains=2, seed=9, adapt=False)
        draws = run_chain(counts, config, CONSTS)
        assert draws.alpha.shape == (2, 5, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(chains=0)
        with pytest.raises(ValueError):
            ChainConfig(initial_proposal_sd=0.0)
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

    def test_beta_x_target_is_the_alpha_x_posterior(self):
        # beta = alpha + log S(x) has Jacobian 1, so target differences at
        # the mapped points equal log posterior differences
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 40, size=(5, 3)).astype(float)
        totals = counts.sum(axis=1)

        def target(params):
            log_s, multinomial = latent._stance_terms(
                params.x, counts, totals, np.asarray(CONSTS.stances)
            )
            beta = params.alpha + log_s
            return latent._log_target(beta, params.x, log_s, multinomial, totals, CONSTS).sum()

        for _ in range(10):
            p1 = LatentParams(rng.normal(2, 1, 5), rng.normal(0, 1.5, 5))
            p2 = LatentParams(rng.normal(2, 1, 5), rng.normal(0, 1.5, 5))
            assert target(p1) - target(p2) == pytest.approx(
                log_posterior(p1, counts, CONSTS) - log_posterior(p2, counts, CONSTS),
                abs=1e-9,
            )
        capped = LatentParams(np.array([701.0, 0, 0, 0, 0]), np.zeros(5))
        assert target(capped) == -math.inf

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
            ModelConstants(stances=(1.0, 0.0, -1.0))
        with pytest.raises(ValueError):
            ModelConstants(prior_sd_alpha=0.0)
        with pytest.raises(ValueError):
            LatentParams(np.array([np.inf]), np.array([0.0]))
