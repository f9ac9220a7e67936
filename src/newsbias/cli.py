"""Command-line pipeline: ingest; fit -> bias, engagement, network; report relates them.

Every command is one entry of the `STAGES` table: the options it accepts, the
artifacts it needs in the output directory (checked in order), the artifacts
it produces, and a `run` function that does only that stage's work. One
runner does the rest for every command: it resolves options from defaults <
config file < flags, creates `--out`, stops with exit 3 naming the producing
stage when a required artifact is absent, runs the stage, and records the
resolved configuration plus input-file digests in run_manifest.json, then
logs the stage's wall time and the process's peak RSS as one INFO line on
stderr. The argparse subcommands are built from the same table. Identical
inputs and seed produce byte-identical outputs.

Each artifact a later stage reads back, and cluster_stats.csv, which no stage
reads, has one Table schema, which also declares its row record, and is written
with `corpus._write` and read with `corpus._parse`, as the input tables are.

Exit codes: 0 success, 2 input error (InputError, ParseError or OSError), 3
missing upstream artifact, 1 internal (any other error, ValueError included).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus, latent, metrics, network, synth
from .corpus import EVENT_ORDER, InputError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_MISSING_STAGE = 3


class MissingStageError(Exception):
    """A required artifact from an earlier pipeline stage is absent."""


def _onoff(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got '{value}'")


def _date(value: str) -> datetime.date:
    try:
        return corpus.iso_date(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ISO date, got '{value}'") from None


def _seed(value: str) -> int:
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got '{value}'")


def _format(value: str) -> str:
    if value not in ("csv", "jsonl"):
        raise argparse.ArgumentTypeError(
            f"unknown format '{value}', expected 'csv' or 'jsonl'"
        )
    return value


# the fit's defaults are the field defaults of its config classes
_FIT_DEFAULTS = {f.name: f.default for cls in (latent.ChainConfig, latent.ModelConstants)
                 for f in fields(cls)}

# option name -> (cast for flag and config-file values, default, help)
_OPTIONS: dict[str, tuple] = {
    "articles": (str, None, "articles file"),
    "outlets": (str, None, "outlets file"),
    "followers": (str, None, "followers file"),
    "retweets": (str, None, "retweets file"),
    "from": (_date, None, "keep articles on/after this date"),
    "to": (_date, None, "keep articles on/before this date"),
    "format": (_format, "csv", "input format: csv or jsonl"),
    "seed": (_seed, 0, "root random seed"),
    "chains": (int, _FIT_DEFAULTS["chains"], "MCMC chains per event type"),
    "iters": (int, _FIT_DEFAULTS["iterations"], "MCMC iterations per chain"),
    "burnin": (int, _FIT_DEFAULTS["burn_in"], "burn-in iterations per chain"),
    "prior_alpha_sd": (float, _FIT_DEFAULTS["prior_sd_alpha"], "prior sd of the intercepts"),
    "prior_x_sd": (float, _FIT_DEFAULTS["prior_sd_x"], "prior sd of the stances"),
    "dump_draws": (_onoff, False, "also write raw draws per event type"),
    "theta": (float, math.pi / 4, "selection-index line angle in radians"),
    "duration_weighted": (_onoff, False, "weight follower averages by overlap days"),
    "strict_threshold": (_onoff, True, "keep edges exactly at the mean weight"),
    "drop_isolates": (_onoff, True, "drop nodes isolated by thresholding"),
    "n_outlets": (int, 12, "number of synthetic outlets"),
    "clusters": (int, 2, "number of planted audience clusters"),
    "out": (str, ".", "artifact directory"),
}

_METAVARS = {_onoff: "on|off", _date: "DATE"}

# input-file options; ingest and simulate write one canonical copy of each
_INPUT_FILES = ("articles", "outlets", "followers", "retweets")

_BREAKDOWN_FIELDS = (
    "category", "sources", "sources_pct", "contents", "contents_pct", "interactions",
    "interactions_pct",
)
_DRAW_FIELDS = ("chain", "iter", "param_index", "value")


def _load_config(path: str) -> dict[str, str]:
    """Flat `key = value` config file; unknown keys are rejected."""
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise InputError(f"unknown config key '{key}' at line {lineno}")
        cfg[key] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict[str, str], keys: tuple[str, ...]) -> dict:
    """Merge defaults, config file, and flags (flags win) for the given keys."""
    resolved = {}
    for key in keys:
        cast, default, _ = _OPTIONS[key]
        value = getattr(args, key)
        if value is None and key in cfg:
            try:
                value = cast(cfg[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InputError(f"bad config value for '{key}': {exc}") from None
        if value is None:
            value = default
        resolved[key] = value
    return resolved


def _require_input(path_str: str | None, flag: str) -> Path:
    if not path_str:
        raise InputError(f"--{flag} is required")
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"input file not found: {path}")
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_value(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _write_manifest(out_dir: Path, command: str, resolved: dict, digests: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: _json_value(v) for k, v in resolved.items()},
        "inputs": digests,
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load(path: Path, parse, *args):
    """`parse(stream, *args)` on the file at `path`; a ParseError names the file."""
    try:
        with open(path, newline="") as handle:
            return parse(handle, *args)
    except corpus.ParseError as exc:
        raise corpus.ParseError(f"{path}: {exc.reason}", exc.line) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _save(path: Path, write, *args) -> None:
    """`write(*args, stream)` into the file at `path`."""
    with open(path, "w", newline="") as handle:
        write(*args, handle)


def _read(path: Path, table: type[corpus.Table]) -> corpus.Table:
    """The CSV stage artifact at `path`, read under its `table` schema."""
    return _load(path, corpus._parse, "csv", table)


def _write_records(out: Path, articles, outlets, followers, retweets) -> None:
    """The canonical articles/outlets/followers/retweets files."""
    _save(out / "articles.csv", corpus.write_articles, articles)
    _save(out / "outlets.csv", corpus.write_outlets, outlets)
    _save(out / "followers.csv", corpus.write_followers, followers)
    _save(out / "retweets.csv", corpus.write_retweets, retweets)


# draws per block of draws_<event>.csv, rounded down to whole iterations of
# one chain (at least one). At 4 chains x 1000 iterations x 682 outlets, a
# block of one iteration (1,364 draws) held 0.5 MB at once, one of six 2.4 MB,
# and wrote no slower
_DRAW_BLOCK_ROWS = 1024


def _write_draws(draws: latent.ChainDraws, stream) -> None:
    """draws_<event>.csv: (chain, iter, param_index, value) rows, alphas as params
    0..n-1 and stances as n..2n-1, written a block of whole iterations of one
    chain at a time."""
    width = 2 * draws.n_outlets
    params = list(map(str, range(width)))
    step = max(1, _DRAW_BLOCK_ROWS // max(width, 1))  # iterations per block

    def blocks():
        for c, start in product(range(draws.n_chains), range(0, draws.n_iterations, step)):
            stop = min(start + step, draws.n_iterations)
            values = np.concatenate([draws.alpha[c, start:stop], draws.x[c, start:stop]],
                                    axis=1).ravel()
            yield [(np.zeros(values.size, np.intp), [str(c)]),
                   (np.repeat(np.arange(stop - start), width), list(map(str, range(start, stop)))),
                   (np.tile(np.arange(width), stop - start), params),
                   (np.arange(values.size), list(map(repr, values.tolist())))]

    corpus._write_columns(_DRAW_FIELDS, blocks(), stream)


# ---------------------------------------------------------------- stages


def _ingest(opts: dict, out: Path) -> str:
    optional = ("followers", "retweets")
    paths = {
        key: _require_input(opts[key], key)
        for key in _INPUT_FILES
        if opts[key] or key not in optional
    }

    def read(key: str, parse) -> list:
        return _load(paths[key], parse, opts["format"]) if key in paths else []

    articles = read("articles", corpus.parse_articles)
    registry = read("outlets", corpus.parse_outlets)
    articles = corpus.filter_articles(articles, opts["from"], opts["to"])
    followers = read("followers", corpus.parse_followers)
    retweets = read("retweets", corpus.parse_retweets)

    tensor = corpus.aggregate_counts(articles, registry)
    breakdown = corpus.dataset_breakdown(articles, registry)

    _write_records(out, articles, registry, followers, retweets)
    _save(out / "counts.csv", corpus.write_count_tensor, tensor)
    rows = [(r.category, str(r.sources), f"{r.sources_pct:.1f}", str(r.contents),
             f"{r.contents_pct:.1f}", str(r.interactions), f"{r.interactions_pct:.1f}")
            for r in breakdown.rows()]
    block = [(np.arange(len(rows)), list(column)) for column in zip(*rows)]
    _save(out / "breakdown.csv", corpus._write_columns, _BREAKDOWN_FIELDS, [block])
    return (
        f"ingest: {len(articles)} articles, {len(registry)} outlets, "
        f"{len(followers)} follower records, {len(retweets)} retweet records -> {out}"
    )


def _fit(opts: dict, out: Path) -> str:
    tensor = _load(out / "counts.csv", corpus.read_count_tensor)
    consts = latent.ModelConstants(
        prior_sd_alpha=opts["prior_alpha_sd"], prior_sd_x=opts["prior_x_sd"]
    )
    config = latent.ChainConfig(
        iterations=opts["iters"],
        burn_in=opts["burnin"],
        chains=opts["chains"],
        seed=opts["seed"],
    )

    summaries = {}
    for k, event in enumerate(EVENT_ORDER):
        slice_ = tensor.event_slice(event)
        if slice_.sum() == 0:
            log.warning("no articles for event type '%s'; slice skipped", event.value)
            continue
        totals = slice_.sum(axis=1)
        zero = [o for o, t in zip(tensor.outlets, totals) if t == 0]
        if zero:
            log.warning(
                "event '%s': %d outlet(s) with 0 articles, estimates are "
                "prior-driven: %s",
                event.value,
                len(zero),
                ", ".join(zero),
            )
        draws = latent.run_chain(slice_, config, consts, event_index=k)
        summary = latent.posterior_summary(draws, config.burn_in)
        worst = max(float(summary.alpha.rhat.max()), float(summary.x.rhat.max()))
        if worst > 1.05:
            log.warning(
                "event '%s': max split R-hat %.3f exceeds 1.05; consider more "
                "iterations",
                event.value,
                worst,
            )
        summaries[event] = summary
        if opts["dump_draws"]:
            _save(out / f"draws_{event.value}.csv", _write_draws, draws)
    posterior = latent.PosteriorTable.of(tensor.outlets, summaries)
    _save(out / "posterior.csv", corpus._write, latent.PosteriorTable, posterior)
    return f"fit: wrote posterior.csv ({len(posterior)} rows) -> {out}"


def _bias(opts: dict, out: Path) -> str:
    registry = _load(out / "outlets.csv", corpus.parse_outlets, "csv")
    posterior = _read(out / "posterior.csv", latent.PosteriorTable)
    table = metrics.build_bias_table(posterior, registry.reliability_of(), theta=opts["theta"])
    _save(out / "bias.csv", corpus._write, metrics.BiasTable, table)
    return f"bias: wrote bias.csv ({len(table)} outlets) -> {out}"


def _engagement(opts: dict, out: Path) -> str:
    window = None
    if opts["from"] is not None and opts["to"] is not None:
        window = (opts["from"], opts["to"])
    elif opts["from"] is not None or opts["to"] is not None:
        raise InputError("--from and --to must be given together")
    articles = _load(out / "articles.csv", corpus.parse_articles, "csv")
    followers = _load(out / "followers.csv", corpus.parse_followers, "csv")

    table = metrics.build_engagement_table(
        articles, followers, window=window, duration_weighted=opts["duration_weighted"]
    )
    _save(out / "engagement.csv", corpus._write, metrics.EngagementTable, table)
    return f"engagement: wrote engagement.csv ({len(table)} rows) -> {out}"


def _network(opts: dict, out: Path) -> str:
    registry = _load(out / "outlets.csv", corpus.parse_outlets, "csv")
    retweets = _load(out / "retweets.csv", corpus.parse_retweets, "csv")
    if not retweets:
        raise InputError("retweets.csv is empty; cannot build the audience network")

    matrix = network.build_matrix(retweets)
    graph = network.build_graph(matrix, registry.reliability_of())
    if graph.n_edges == 0:
        raise InputError(
            "retweets.csv: no two outlets share a retweeter; cannot build the audience network"
        )
    graph = network.threshold_graph(
        graph, strict=opts["strict_threshold"], drop_isolated=opts["drop_isolates"]
    )
    partition = network.louvain(graph, seed=opts["seed"])
    graph = network.with_clusters(graph, partition)

    _save(out / "edges.csv", network.write_edges_csv, graph)
    _save(out / "graph.graphml", network.write_graphml, graph)
    _save(out / "clusters.csv", network.write_clusters_csv, partition)
    return (
        f"network: {len(graph.nodes)} nodes, {graph.n_edges} edges, "
        f"{len(set(partition.values()))} clusters -> {out}"
    )


def _report(opts: dict, out: Path) -> str:
    bias = _read(out / "bias.csv", metrics.BiasTable)
    engagement = _read(out / "engagement.csv", metrics.EngagementTable)
    clusters = dict(_read(out / "clusters.csv", network.ClusterTable))
    registry = _load(out / "outlets.csv", corpus.parse_outlets, "csv")
    _write_json(out / "fits.json", metrics.engagement_bias_fits(bias, engagement))
    stats = network.cluster_stats(clusters, bias, registry)
    _save(out / "cluster_stats.csv", network.write_cluster_stats_csv, stats)
    outlets: dict[str, dict] = {}
    for row in bias:
        outlets[row.outlet_id] = {
            "reliability": "" if row.reliability is None else row.reliability.value,
            "bias": {f.name: getattr(row, f.name) for f in bias.fields[2:]},
            "cluster": clusters.get(row.outlet_id),
            "engagement": {},
        }
    for rec in engagement:
        if rec.outlet_id in outlets:
            outlets[rec.outlet_id]["engagement"][rec.event_type.value] = {
                f.name: getattr(rec, f.name) for f in engagement.fields[2:]
            }
    _write_json(out / "report.json", {"outlets": outlets, "clusters": list(map(asdict, stats))})
    return f"report: wrote report.json ({len(outlets)} outlets, {len(stats)} clusters) -> {out}"


def _simulate(opts: dict, out: Path) -> str:
    window = (
        opts["from"] or datetime.date(2020, 1, 1),
        opts["to"] or datetime.date(2021, 12, 31),
    )
    data = synth.generate(
        n_outlets=opts["n_outlets"], n_clusters=opts["clusters"], seed=opts["seed"], window=window
    )
    _write_records(out, data.articles, data.outlets, data.followers, data.retweets)
    _write_json(out / "truth.json", data.truth)
    return (
        f"simulate: {len(data.articles)} articles across {opts['n_outlets']} "
        f"outlets ({opts['clusters']} planted clusters) -> {out}"
    )


@dataclass(frozen=True)
class Stage:
    """One command: its options besides --config and --out, the artifacts it
    needs in --out (checked in this order) and produces, and its work.

    `run(options, out_dir)` returns the one-line summary printed on success.
    """

    help: str
    options: tuple[str, ...]
    requires: tuple[str, ...]
    produces: tuple[str, ...]
    run: Callable[[dict, Path], str]


_RECORD_ARTIFACTS = tuple(f"{key}.csv" for key in _INPUT_FILES)

# pipeline order; where two commands produce an artifact, the first is named
# as the stage to run when it is missing
STAGES: dict[str, Stage] = {
    "ingest": Stage(
        "validate and canonicalize input files",
        options=(*_INPUT_FILES, "from", "to", "format"),
        requires=(),
        produces=(*_RECORD_ARTIFACTS, "counts.csv", "breakdown.csv"),
        run=_ingest,
    ),
    "fit": Stage(
        "run the latent-model MCMC per event type",
        options=("seed", "chains", "iters", "burnin", "prior_alpha_sd", "prior_x_sd",
                 "dump_draws"),
        requires=("counts.csv",),
        produces=("posterior.csv",),
        run=_fit,
    ),
    "bias": Stage(
        "build the per-outlet bias table",
        options=("theta",),
        requires=("posterior.csv", "outlets.csv"),
        produces=("bias.csv",),
        run=_bias,
    ),
    "engagement": Stage(
        "adjusted engagement per outlet and event type",
        options=("from", "to", "duration_weighted"),
        requires=("articles.csv", "followers.csv"),
        produces=("engagement.csv",),
        run=_engagement,
    ),
    "network": Stage(
        "audience graph and Louvain clusters",
        options=("seed", "strict_threshold", "drop_isolates"),
        requires=("retweets.csv", "outlets.csv"),
        produces=("edges.csv", "graph.graphml", "clusters.csv"),
        run=_network,
    ),
    "report": Stage(
        "relate bias to engagement and clusters: fits, cluster profiles, report.json",
        options=(),
        requires=("bias.csv", "engagement.csv", "clusters.csv", "outlets.csv"),
        produces=("fits.json", "cluster_stats.csv", "report.json"),
        run=_report,
    ),
    "simulate": Stage(
        "write a synthetic corpus with truth.json",
        options=("n_outlets", "clusters", "seed", "from", "to"),
        requires=(),
        produces=(*_RECORD_ARTIFACTS, "truth.json"),
        run=_simulate,
    ),
}


def _producer(artifact: str) -> str:
    return next(name for name, stage in STAGES.items() if artifact in stage.produces)


def _run_stage(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    stage = STAGES[args.command]
    cfg = _load_config(args.config) if args.config else {}
    opts = _resolve(args, cfg, (*stage.options, "out"))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    for artifact in stage.requires:
        if not (out / artifact).is_file():
            raise MissingStageError(
                f"missing artifact '{artifact}' in {out}; "
                f"run the '{_producer(artifact)}' stage first"
            )
    # hashed before the stage runs, which may overwrite an input in --out; a
    # missing input is left to the stage to report, so no manifest is written
    inputs = [Path(opts[key]) for key in _INPUT_FILES if opts.get(key)]
    inputs += [out / artifact for artifact in stage.requires]
    digests = {str(p): _sha256(p) for p in inputs if p.is_file()}
    summary = stage.run(opts, out)
    _write_manifest(out, args.command, opts, digests)
    # wall time and peak RSS vary run to run, so they go to the log, never into --out;
    # the peak is the process's, so a mark an earlier stage set in it is named as such
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log.info("%s: %.3f s wall, peak RSS %.1f MB%s", args.command, time.perf_counter() - start,
             peak / 1024, " (set before this stage)" if peak <= peak_before else "")
    print(summary)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsbias",
        description=(
            "Quantify narrative and selection bias of news outlets from labeled "
            "article counts, and relate them to engagement and retweet audiences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", help="flat key = value config file")
        for key in (*stage.options, "out"):
            cast, default, help_text = _OPTIONS[key]
            if default is not None:
                help_text += f" (default: {('off', 'on')[default] if cast is _onoff else default})"
            p.add_argument("--" + key.replace("_", "-"), type=cast, default=None,
                           metavar=_METAVARS.get(cast), help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _run_stage(args)
    except MissingStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_STAGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
