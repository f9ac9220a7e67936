"""Benchmark of the newsbias pipeline.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src. One run is
a closed loop with one client: a single process runs one workload, one
repetition after another, until --seconds of timed work have accumulated
(at least two repetitions, so output digests can be compared).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full report, and the spans of a
traced run, go to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import diagnostics
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_REPS = 2
MIN_SETUPS = 2
MIN_SETUP_SECONDS = 1.0
MAX_SETUPS = 10_000
# stop starting repetitions after this long, so a run stays within its limit
RUN_LIMIT_S = 120.0

HOST_NOISE = (
    "not isolated: the benchmark changes no machine settings. On a shared "
    "2-core Intel Xeon VM, CPU time tracked wall time within 3% while wall "
    "time of identical repetitions varied by about 20% within minutes and by "
    "up to 1.7x over an hour, so the noise is CPU speed, not scheduling"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    **{f"cli.{s}_s": "s" for s in ("ingest", "fit", "bias", "engagement", "network", "report")},
    "cli.self_s": "s", "cli.wait_s": "s", "cli.bytes_out": "B",
    "corpus.parse_s": "s", "corpus.records_parsed": "count", "corpus.us_per_record": "us",
    "corpus.write_s": "s", "corpus.rows_written": "count", "corpus.aggregate_s": "s",
    "corpus.self_s": "s",
    "latent.run_chain_s": "s", "latent.updates": "count", "latent.ns_per_update": "ns",
    "latent.accept_rate_alpha": "1", "latent.accept_rate_x": "1", "latent.summary_s": "s",
    "latent.self_s": "s",
    "metrics.bias_s": "s", "metrics.engagement_s": "s", "metrics.fits_s": "s",
    "metrics.self_s": "s",
    "network.matrix_s": "s", "network.graph_s": "s", "network.threshold_s": "s",
    "network.louvain_s": "s", "network.cluster_stats_s": "s", "network.write_s": "s",
    "network.pair_edges": "count", "network.kept_edges": "count",
    "network.kept_ratio": "1", "network.communities": "count", "network.self_s": "s",
    **{f"share.{layer}": "1" for layer in ("cli", "corpus", "latent", "metrics", "network")},
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "host_noise": HOST_NOISE,
    }


def _import_program():
    if not (ROOT / "src" / "newsbias" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'newsbias'} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    return argparse.Namespace(**{
        m: importlib.import_module(f"newsbias.{m}")
        for m in ("cli", "corpus", "latent", "metrics", "network", "synth")
    })


def _heavy_note(workload, shares: dict[str, float]) -> dict:
    """Whether the layers the workload is meant to stress still dominate it."""
    heavy = sum(shares[layer] for layer in workload.heavy)
    others = {k: v for k, v in shares.items() if k not in workload.heavy}
    top = max(others, key=others.get)
    dominates = heavy > others[top]
    note = {"layers": "+".join(workload.heavy), "share": heavy, "dominates": dominates}
    if not dominates:
        note["note"] = (f"{note['layers']} no longer dominates {workload.name}: "
                        f"{top} takes {others[top]:.1%} against {heavy:.1%}")
    return note


def run(args) -> dict:
    nb = _import_program()
    workload = workloads.make(args.workload, nb, args.seed)
    seed = workload.default_seed if args.seed is None else args.seed
    tally = workloads.Tally()
    work = BENCH / "_work" / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        estimated, expected = diagnostics.ar1_self_check()
        tally.op(abs(estimated / expected - 1.0) < 0.05,
                 f"ESS self-check: AR(1) gave {estimated:.1f}, closed form {expected:.1f}")

        setups: list[float] = []
        while len(setups) < MIN_SETUPS or (
            sum(setups) < MIN_SETUP_SECONDS and len(setups) < MAX_SETUPS
        ):
            t0 = time.perf_counter()
            workload.setup(work)
            setups.append(time.perf_counter() - t0)
        workload.load(work)

        tracer = tracing.Tracer(vars(nb))
        plain, traced, layer_rows = [], [], []
        first = None
        measured = 0.0
        while len(plain) + len(traced) < MIN_REPS or (
            measured < args.seconds and time.perf_counter() - started < RUN_LIMIT_S
        ):
            use_tracer = args.trace == 1 and len(plain) > len(traced)
            run_id = f"{args.workload}-seed{seed}-rep{len(plain) + len(traced)}"
            if use_tracer:
                tracer.start_rep(run_id)
                tracer.install()
            try:
                rep = workload.rep(work, tally, tracer if use_tracer else None)
            finally:
                tracer.uninstall()
            if first is None:
                first = rep.digest
            else:
                tally.op(rep.digest == first, "outputs differ from the first repetition")
            measured += rep.wall_s
            if use_tracer:
                traced.append(rep)
                row = tracer.layer_metrics(run_id, rep.wall_s)
                row["cli.bytes_out"] = float(rep.bytes_out)
                pipeline = isinstance(workload, workloads.Pipeline)
                row["cli.wait_s"] = rep.wall_s - rep.cpu_s if pipeline else 0.0
                layer_rows.append(row)
            else:
                plain.append(rep)

        # before scoring, so the benchmark's own dense arrays never set the peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = _summary([r.wall_s for r in plain])
        try:
            quality = workload.quality(work, wall["median"])
        except (OSError, ValueError, KeyError, AttributeError) as exc:
            tally.op(False, f"outputs could not be scored: {exc!r}")
            quality = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = {
        "wall_s": wall,
        "setup_s": _summary(setups),
        "cpu_s": _summary([r.cpu_s for r in plain]),
        "wait_s": _summary([r.wall_s - r.cpu_s for r in plain]),
    }
    named = {
        "wall_s": (wall["median"], "s"),
        **quality,
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (timings["setup_s"]["median"], "s"),
        "error_rate": (tally.failed / tally.attempted, "1"),
    }
    report = {
        "workload": args.workload,
        "seed": seed,
        "default_seed": workload.default_seed,
        "heldout_seed": workload.heldout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, no extra threads",
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "timings": timings,
        "checks": {"attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures},
        "environment": _environment(),
    }
    if args.trace == 1:
        per_layer = {k: statistics.median(row[k] for row in layer_rows)
                     for k in PER_LAYER_UNITS if not k.startswith("trace.")}
        per_layer["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall["median"]
        report["per_layer"] = per_layer
        report["absent"] = tracer.absent
        report["heavy_layer"] = _heavy_note(
            workload, {k[6:]: v for k, v in per_layer.items() if k.startswith("share.")})
        report["spans"] = tracer.dump()
    return report


def _print(report: dict) -> None:
    w = report["workload"]
    print(f"{w}: seed {report['seed']} (default {report['default_seed']}, "
          f"held-out {report['heldout_seed']}), {report['load']}")
    for name, t in report["timings"].items():
        print(f"  {name:<14} median {t['median']:.4f} s  q1 {t['q1']:.4f}  "
              f"q3 {t['q3']:.4f}  n={t['n']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    c = report["checks"]
    print(f"  checks: {c['attempted']} attempted, {c['failed']} failed")
    for failure in c["failures"]:
        print(f"    FAILED {failure}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<26} {value:.6g} {PER_LAYER_UNITS[name]}")
    if report.get("absent"):
        print(f"  absent spans (function no longer exists): {', '.join(report['absent'])}")
    if "heavy_layer" in report:
        h = report["heavy_layer"]
        print(f"  heavy layer {h['layers']}: {h['share']:.1%} of wall_s"
              + ("" if h["dominates"] else f"; NOTE {h['note']}"))
    env = report["environment"]
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    report = run(args)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{report['seed']}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    report.pop("spans", None)
    _print(report)

    if args.trace == 1:
        values = {k: (v, PER_LAYER_UNITS[k]) for k, v in report["per_layer"].items()}
    else:
        values = {k: (report["metrics"][k]["value"], u) for k, u in END_TO_END_UNITS.items()}
    checks = report["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
