"""The benchmark's workloads: inputs made from a seed, timed calls, output checks.

Each workload builds its inputs in `setup` (timed as set-up, never as part
of `wall_s`), then `rep` runs the timed operations once and checks what they
produced. The program only ever sees the generated files or arrays.

Why these three (layer shares of wall time from traced runs on a 2-core
Intel Xeon host):
- sampler-c05: the c05 acceptance fixtures, 50 outlets x 4 chains x 5000
  iterations. `latent` does all the work, per-iteration overhead dominates,
  and the known alpha/x ridge makes max split R-hat 1.29 and min ESS 8 on
  the default seed.
- paper-682: the whole CLI at the paper's scale (682 outlets, ~343k
  articles, short 2 x 200 fit). corpus + metrics + cli take 49%, the
  sampler (many outlets, few draws) 44% and the network 7%.
- audience-2000: the whole CLI at 2000 outlets and 8 planted audience
  clusters with few articles and a 1 x 20 fit. The network stage's N^2 pair
  loops take 66% and set peak memory (~450 MB); sampler and corpus do little.
Each layer a ROADMAP item optimises is heavy in one workload and light in
another, and the sampler runs both few-outlets/long-chains (sampler-c05) and
many-outlets/short-chains (paper-682), so a gain for one shape that costs
the other shows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import comb

import diagnostics


class Tally:
    """Operations attempted (stage calls and output checks) and those failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Rep:
    """One repetition of a workload's timed operations."""

    wall_s: float
    cpu_s: float
    digest: str
    bytes_out: int = 0


def _digest_dir(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return digest.hexdigest()


def pearson(a, b) -> float:
    return float(np.corrcoef(np.asarray(a, float), np.asarray(b, float))[0, 1])


def adjusted_rand_index(truth: dict, found: dict) -> float:
    """Pair-counting ARI over the keys of `found`."""
    keys = sorted(found)
    _, a = np.unique([truth[k] for k in keys], return_inverse=True)
    _, b = np.unique([found[k] for k in keys], return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)
    pairs = comb(table, 2).sum()
    rows, cols = comb(table.sum(axis=1), 2).sum(), comb(table.sum(axis=0), 2).sum()
    expected = rows * cols / comb(len(keys), 2)
    top = (rows + cols) / 2.0
    return 1.0 if top == expected else float((pairs - expected) / (top - expected))


def dense_modularity(edges_csv: Path, clusters_csv: Path) -> float:
    """Weighted Newman modularity from the written artifacts, densely.

    Independent of `network.modularity`: Q = tr(C'AC)/2m - |C'k|^2/(2m)^2
    with A the symmetric weight matrix and C the one-hot cluster matrix.
    """
    with open(clusters_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    index = {r["outlet_id"]: i for i, r in enumerate(rows)}
    _, labels = np.unique([int(r["cluster_id"]) for r in rows], return_inverse=True)
    a = np.zeros((len(rows), len(rows)))
    with open(edges_csv, newline="") as handle:
        for r in csv.DictReader(handle):
            i, j = index[r["src"]], index[r["dst"]]
            a[i, j] = a[j, i] = float(r["weight"])
    onehot = np.zeros((len(rows), labels.max() + 1))
    onehot[np.arange(len(rows)), labels] = 1.0
    k = a.sum(axis=1)
    two_m = k.sum()
    within = np.trace(onehot.T @ a @ onehot)
    return float(within / two_m - np.sum((onehot.T @ k) ** 2) / two_m**2)


class SamplerC05:
    """`latent.run_chain` + `latent.posterior_summary` on a c05 fixture.

    The seed picks one of the three per-event-type fixtures of acceptance
    criterion c05 (data `default_rng(100 + k)`, chain seed `11 + k`, with
    k = (seed - 100) mod 3); seed 100 is the adverse fixture. Other data
    draws are not used because on them the unconverged sampler fails the
    c05 recovery bounds on roughly 4 in 10 seeds, which would turn a known
    convergence defect into a failed run instead of a measured one.
    """

    name = "sampler-c05"
    default_seed = 100
    heldout_seed = 101
    heavy = ("latent",)
    n_outlets = 50

    def __init__(self, nb, seed: int):
        self.nb = nb
        self.last = None
        self.k = (seed - 100) % 3
        self.consts = nb.latent.ModelConstants()
        self.config = nb.latent.ChainConfig(
            iterations=5000, burn_in=1000, chains=4, seed=11 + self.k
        )

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(100 + self.k)
        alpha = rng.uniform(5.2, 6.2, self.n_outlets)
        x = rng.uniform(-0.9, 0.9, self.n_outlets)
        counts = self.nb.latent.simulate_counts(alpha, x, self.consts, rng)
        np.savez(work / "fixture.npz", counts=counts, alpha=alpha, x=x)

    def load(self, work: Path) -> None:
        with np.load(work / "fixture.npz") as data:
            self.counts, self.alpha, self.x = data["counts"], data["alpha"], data["x"]

    def rep(self, work: Path, tally: Tally, tracer) -> Rep:
        latent = self.nb.latent
        draws = summary = self.last = None  # free the previous draws first
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            draws = latent.run_chain(self.counts, self.config, self.consts)
            summary = latent.posterior_summary(draws, self.config.burn_in)
        except Exception as exc:  # a failed call is counted, not fatal
            tally.op(False, f"sampler call raised {exc!r}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if summary is None:
            return Rep(wall, cpu, "")
        tally.op(True, "run_chain")
        tally.op(True, "posterior_summary")
        r_alpha = pearson(self.alpha, summary.alpha.mean)
        r_x = pearson(self.x, summary.x.mean)
        tally.op(r_alpha >= 0.95 and r_x >= 0.90,
                 f"c05 recovery r_alpha={r_alpha:.3f} r_x={r_x:.3f}")
        self.last = (draws, summary, r_alpha, r_x)
        digest = hashlib.sha256(draws.alpha.tobytes() + draws.x.tobytes()).hexdigest()
        return Rep(wall, cpu, digest)

    def quality(self, work: Path, wall_s: float) -> dict[str, tuple[float, str]]:
        if self.last is None:
            raise ValueError("no repetition completed")
        draws, summary, r_alpha, r_x = self.last
        burn = self.config.burn_in
        kept = np.concatenate([draws.alpha[:, burn:], draws.x[:, burn:]], axis=2)
        min_ess = float(diagnostics.ess(kept).min())
        return {
            "min_ess_per_s": (min_ess / wall_s, "1/s"),
            "min_ess": (min_ess, "draws"),
            "max_rhat": (float(diagnostics.split_rhat(kept).max()), "1"),
            "program_max_rhat": (
                float(max(summary.alpha.rhat.max(), summary.x.rhat.max())), "1"),
            "program_min_ess": (
                float(min(summary.alpha.ess.min(), summary.x.ess.min())), "draws"),
            "r_alpha": (r_alpha, "1"),
            "r_x": (r_x, "1"),
        }


_STAGE_ARGS = {"network": ["--seed", "5"]}


@dataclass
class Pipeline:
    """The six `cli.main` stages, ingest -> fit -> bias -> engagement -> network -> report."""

    nb: object
    seed: int
    name: str
    n_outlets: int
    clusters: int
    alpha_loc: float
    fit: list[str]
    heavy: tuple[str, ...]
    default_seed: int
    heldout_seed: int

    def setup(self, work: Path) -> None:
        corpus = self.nb.corpus
        data = self.nb.synth.generate(
            n_outlets=self.n_outlets, n_clusters=self.clusters, seed=self.seed,
            alpha_loc=self.alpha_loc,
        )
        inputs = work / "inputs"
        inputs.mkdir(exist_ok=True)
        for name, write, records in (
            ("articles", corpus.write_articles, data.articles),
            ("outlets", corpus.write_outlets, data.outlets),
            ("followers", corpus.write_followers, data.followers),
            ("retweets", corpus.write_retweets, data.retweets),
        ):
            with open(inputs / f"{name}.csv", "w", newline="") as handle:
                write(records, handle)
        (inputs / "truth.json").write_text(json.dumps(data.truth))

    def load(self, work: Path) -> None:
        self.truth = json.loads((work / "inputs" / "truth.json").read_text())
        with open(work / "inputs" / "outlets.csv", newline="") as handle:
            self.outlets = [r["outlet_id"] for r in csv.DictReader(handle)]

    def _stages(self, work: Path) -> list[tuple[str, list[str]]]:
        inputs, out = work / "inputs", str(work / "out")
        ingest = ["--out", out] + [
            arg for name in ("articles", "outlets", "followers", "retweets")
            for arg in (f"--{name}", str(inputs / f"{name}.csv"))
        ]
        stages = [("ingest", ingest), ("fit", ["--out", out] + self.fit)]
        stages += [(s, ["--out", out] + _STAGE_ARGS.get(s, []))
                   for s in ("bias", "engagement", "network", "report")]
        return stages

    def rep(self, work: Path, tally: Tally, tracer) -> Rep:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cli = self.nb.cli
        wall = cpu = 0.0
        for stage, argv in self._stages(work):
            with tracer.span(f"cli.{stage}") if tracer else nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                with redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main([stage] + argv)
                    except SystemExit as exc:  # argparse rejects an option
                        code = exc.code
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
            tally.op(code == 0, f"stage {stage} exited {code}")
        digest = _digest_dir(out)
        self._check(out, tally)
        size = sum(p.stat().st_size for p in out.iterdir())
        return Rep(wall, cpu, digest, size)

    def _check(self, out: Path, tally: Tally) -> None:
        try:
            report = json.loads((out / "report.json").read_text())
            missing = sorted(set(self.outlets) - set(report["outlets"]))
        except (OSError, ValueError, KeyError) as exc:
            missing = [repr(exc)]
        tally.op(not missing, f"report.json lacks {len(missing)} outlet(s): {missing[:3]}")
        try:
            with open(out / "clusters.csv", newline="") as handle:
                found = {r["outlet_id"]: int(r["cluster_id"]) for r in csv.DictReader(handle)}
            self.ari = adjusted_rand_index(self.truth["outlet_clusters"], found)
            tally.op(self.ari >= 0.9, f"ARI {self.ari:.3f} against planted clusters below 0.9")
        except (OSError, ValueError, KeyError) as exc:
            tally.op(False, f"clusters.csv unreadable: {exc!r}")

    def quality(self, work: Path, wall_s: float) -> dict[str, tuple[float, str]]:
        out = work / "out"
        with open(out / "posterior.csv", newline="") as handle:
            rows = [r for r in csv.DictReader(handle) if r["param"] == "x"]
        fitted = [float(r["mean"]) for r in rows]
        planted = [self.truth["x"][r["event_type"]][r["outlet_id"]] for r in rows]
        return {
            "stance_corr": (pearson(fitted, planted), "1"),
            "modularity_q": (dense_modularity(out / "edges.csv", out / "clusters.csv"), "1"),
            "ari": (self.ari, "1"),
        }


def make(name: str, nb, seed: int | None):
    """The workload called `name`; seed None means its default seed."""
    if name == SamplerC05.name:
        return SamplerC05(nb, SamplerC05.default_seed if seed is None else seed)
    specs = {
        "paper-682": dict(n_outlets=682, clusters=2, alpha_loc=4.3,
                          fit=["--seed", "5", "--chains", "2", "--iters", "200",
                               "--burnin", "50"],
                          heavy=("corpus", "metrics", "cli"),
                          default_seed=1, heldout_seed=7),
        "audience-2000": dict(n_outlets=2000, clusters=8, alpha_loc=0.5,
                              fit=["--seed", "5", "--chains", "1", "--iters", "20",
                                   "--burnin", "10"],
                              heavy=("network",), default_seed=1, heldout_seed=7),
    }
    if name not in specs:
        raise KeyError(name)
    spec = specs[name]
    return Pipeline(nb, spec["default_seed"] if seed is None else seed, name, **spec)


NAMES = (SamplerC05.name, "paper-682", "audience-2000")
