import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from newsbias import cli, corpus, latent, metrics, network
from newsbias.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def fit_fast(out, seed=3):
    return run("fit", "--out", out, "--seed", seed, "--iters", 400, "--burnin", 100,
               "--chains", 2)


def ingest_args(sim: Path, out: Path) -> list:
    return ["ingest", "--out", out] + [
        arg for name in ("articles", "outlets", "followers", "retweets")
        for arg in (f"--{name}", sim / f"{name}.csv")
    ]


@pytest.fixture()
def pipeline_dirs(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "run"
    sim.mkdir()
    out.mkdir()
    assert run("simulate", "--out", sim, "--n-outlets", 10, "--clusters", 2, "--seed", 3) == 0
    assert run(*ingest_args(sim, out)) == 0
    return sim, out


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestPipeline:
    def test_end_to_end_artifacts(self, pipeline_dirs):
        sim, out = pipeline_dirs
        assert fit_fast(out) == 0
        assert run("bias", "--out", out) == 0
        assert run("engagement", "--out", out) == 0
        assert run("network", "--out", out, "--seed", 3) == 0
        assert run("report", "--out", out) == 0
        for name in (
            "counts.csv", "breakdown.csv", "posterior.csv", "bias.csv",
            "engagement.csv", "fits.json", "edges.csv", "graph.graphml",
            "clusters.csv", "cluster_stats.csv", "report.json", "run_manifest.json",
        ):
            assert (out / name).is_file(), name

        posterior = read_rows(out / "posterior.csv")
        assert {r["param"] for r in posterior} == {"alpha", "x"}
        assert {r["event_type"] for r in posterior} == {"adverse", "neutral", "positive"}
        bias = read_rows(out / "bias.csv")
        assert len(bias) == 10
        for row in bias:
            assert row["adverse_lean"] in ("true", "false")
            assert float(row["selection_index"]) >= 0

        report = json.loads((out / "report.json").read_text())
        assert len(report["outlets"]) == 10
        truth = json.loads((sim / "truth.json").read_text())
        assert set(report["outlets"]) == set(truth["outlet_clusters"])

    def test_breakdown_totals(self, pipeline_dirs):
        _, out = pipeline_dirs
        rows = read_rows(out / "breakdown.csv")
        assert [r["category"] for r in rows] == ["questionable", "reliable", "total"]
        q, r, total = rows
        assert int(q["contents"]) + int(r["contents"]) == int(total["contents"])
        assert total["contents_pct"] == "100.0"

    def test_breakdown_text(self, tmp_path):
        # a class with no contents gets 0.0 shares, the other 100.0
        articles = tmp_path / "a.csv"
        articles.write_text("outlet_id,platform,date,narrative,event,interactions\n"
                            "r1,twitter,2021-01-01,pro,positive,5\n"
                            "r1,twitter,2021-01-02,anti,adverse,7\n")
        outlets = tmp_path / "o.csv"
        outlets.write_text("outlet_id,name,reliability,kind\n"
                           "q1,Q1,questionable,\nq2,Q2,questionable,tv\nr1,R,reliable,\n")
        out = tmp_path / "out"
        assert run("ingest", "--articles", articles, "--outlets", outlets, "--out", out) == 0
        assert (out / "breakdown.csv").read_text() == (
            "category,sources,sources_pct,contents,contents_pct,interactions,interactions_pct\n"
            "questionable,2,66.7,0,0.0,0,0.0\n"
            "reliable,1,33.3,2,100.0,12,100.0\n"
            "total,3,100.0,2,100.0,12,100.0\n"
        )

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = run("ingest", "--articles", tmp_path / "nope.csv",
                   "--outlets", tmp_path / "also_missing.csv", "--out", tmp_path)
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_stage_exits_3(self, tmp_path, capsys):
        assert run("fit", "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert "counts.csv" in err and "ingest" in err
        assert run("report", "--out", tmp_path) == 3
        assert "bias" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        articles = tmp_path / "articles.csv"
        articles.write_text(
            "outlet_id,platform,date,narrative,event,interactions\n"
            "o1,twitter,2021-01-01,provax,adverse,1\n"
        )
        outlets = tmp_path / "outlets.csv"
        outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
        code = run("ingest", "--articles", articles, "--outlets", outlets, "--out", tmp_path)
        assert code == 2
        assert f"{articles}: unknown narrative label 'provax' at line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("char", ["\x01", "\x0b", "\x1f", "\ufffe"])
    def test_id_that_xml_cannot_carry_exits_2(self, tmp_path, capsys, char):
        # such an id once passed every stage, and graph.graphml did not parse
        articles = tmp_path / "articles.csv"
        articles.write_text(
            "outlet_id,platform,date,narrative,event,interactions\n"
            "o1\tx,twitter,2021-01-01,pro,adverse,1\n"
            f"o1{char}x,twitter,2021-01-01,pro,adverse,1\n"
        )
        outlets = tmp_path / "outlets.csv"
        outlets.write_text("outlet_id,name,reliability,kind\no1\tx,One,reliable,\n")
        code = run("ingest", "--articles", articles, "--outlets", outlets, "--out", tmp_path)
        assert code == 2
        assert (f"{articles}: outlet_id {f'o1{char}x'!r} holds a character XML cannot carry"
                " at line 3") in capsys.readouterr().err

    def test_interactions_with_whitespace_exit_2(self, tmp_path, capsys):
        articles = tmp_path / "articles.csv"
        articles.write_text(
            "outlet_id,platform,date,narrative,event,interactions\n"
            "o1,twitter,2021-01-01,pro,adverse,1\n"
            "o1,twitter,2021-01-01,pro,adverse, 7\n"
        )
        outlets = tmp_path / "outlets.csv"
        outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
        code = run("ingest", "--articles", articles, "--outlets", outlets, "--out", tmp_path)
        assert code == 2
        assert f"{articles}: invalid interactions ' 7' at line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("counts, message", [
        ((2**63,), "interactions must be <= 9223372036854775807, got '9223372036854775808' at line 3"),
        ((2**62, 2**62 - 1), "interactions total 9223372036854775808 exceeds 9223372036854775807"),
    ])
    def test_interactions_beyond_int64_exit_2(self, tmp_path, capsys, counts, message):
        articles = tmp_path / "articles.csv"
        articles.write_text(
            "outlet_id,platform,date,narrative,event,interactions\n"
            "o1,twitter,2021-01-01,pro,adverse,1\n"
            + "".join(f"o1,twitter,2021-01-01,pro,adverse,{n}\n" for n in counts)
        )
        outlets = tmp_path / "outlets.csv"
        outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
        code = run("ingest", "--articles", articles, "--outlets", outlets, "--out", tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stage, name, rows, message", [
        ("ingest", "retweets", [("u1", "o1", 2**63)],
         f"count must be <= {2**63 - 1}, got '{2**63}' at line 3"),
        ("ingest", "retweets", [("u1", "o1", 2**62), ("u1", "o1", 2**62)],
         f"count total {2**63} of user 'u1' and outlet 'o1' exceeds {2**63 - 1} at line 4"),
        ("fit", "counts", [("o1", "anti", "adverse", 2**63)],
         f"count must be <= {2**63 - 1}, got '{2**63}' at line"),
    ])
    def test_counts_beyond_int64_exit_2(self, pipeline_dirs, capsys, stage, name, rows, message):
        sim, out = pipeline_dirs
        path = (sim if stage == "ingest" else out) / f"{name}.csv"
        with open(path, "a", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        if stage == "ingest":
            text = path.read_text().splitlines()
            path.write_text("\n".join(text[:2] + text[-len(rows):]) + "\n")
            args = ingest_args(sim, out)
        else:
            args = ("fit", "--out", out)
        capsys.readouterr()
        assert run(*args) == 2
        assert message in capsys.readouterr().err

    def test_retweets_without_shared_audience_exit_2(self, pipeline_dirs, capsys):
        _, out = pipeline_dirs
        assert fit_fast(out) == 0
        assert run("bias", "--out", out) == 0
        outlets = sorted({row["outlet_id"] for row in read_rows(out / "retweets.csv")})
        with open(out / "retweets.csv", "w", newline="") as handle:
            corpus.write_retweets(
                [corpus.RetweetRecord(f"u{i}", o, 1) for i, o in enumerate(outlets)], handle
            )
        capsys.readouterr()
        assert run("network", "--out", out) == 2
        err = capsys.readouterr().err
        assert "retweets.csv" in err and "share a retweeter" in err

    def test_network_with_no_edge_above_a_non_strict_cutoff_exits_2(self, pipeline_dirs, capsys):
        # two outlets sharing one retweeter: one edge, at the mean weight 1.0
        _, out = pipeline_dirs
        with open(out / "outlets.csv", newline="") as handle:
            a, b = sorted(corpus.parse_outlets(handle).outlet_ids)[:2]
        with open(out / "retweets.csv", "w", newline="") as handle:
            corpus.write_retweets([corpus.RetweetRecord("u1", o, 1) for o in (a, b)], handle)
        capsys.readouterr()
        assert run("network", "--out", out, "--strict-threshold", "off") == 2
        err = capsys.readouterr().err
        assert "every edge weighs the mean weight 1.0" in err and "internal" not in err
        assert run("network", "--out", out, "--strict-threshold", "off",
                   "--drop-isolates", "off") == 0
        assert read_rows(out / "clusters.csv") == [
            {"outlet_id": a, "cluster_id": "0"}, {"outlet_id": b, "cluster_id": "1"}]

    def test_fit_with_too_few_draws_per_chain_exits_2(self, pipeline_dirs, capsys):
        _, out = pipeline_dirs
        capsys.readouterr()
        assert run("fit", "--out", out, "--iters", 2, "--burnin", 1, "--chains", 10) == 2
        assert "only 1 post-burn-in draws per chain; need at least 4" in capsys.readouterr().err

    def test_empty_event_skipped_by_fit_and_rejected_by_bias(
        self, pipeline_dirs, capsys, caplog
    ):
        _, out = pipeline_dirs
        with open(out / "counts.csv", newline="") as handle:
            tensor = corpus.read_count_tensor(handle)
        tensor.counts[:, :, corpus.EVENT_ORDER.index(corpus.EventType.NEUTRAL)] = 0
        with open(out / "counts.csv", "w", newline="") as handle:
            corpus.write_count_tensor(tensor, handle)
        assert fit_fast(out) == 0
        assert "no articles for event type 'neutral'; slice skipped" in caplog.text
        assert {r["event_type"] for r in read_rows(out / "posterior.csv")} == {
            "adverse", "positive"
        }
        capsys.readouterr()
        assert run("bias", "--out", out) == 2
        assert "no rows for event type 'neutral'" in capsys.readouterr().err

    def test_unordered_posterior_quantiles_exit_1(self, pipeline_dirs, monkeypatch, caplog):
        _, out = pipeline_dirs

        def nan_chain(counts, config, consts, event_index=0):
            block = np.full((config.chains, config.iterations, len(counts)), np.nan)
            zeros = np.zeros((config.chains, len(counts)), dtype=np.int64)
            return latent.ChainDraws(block, block.copy(), zeros, zeros)

        monkeypatch.setattr(latent, "run_chain", nan_chain)
        assert fit_fast(out) == 1
        assert "quantiles out of order" in caplog.text

    def test_fit_logs_zero_count_outlets_and_high_rhat_in_event_order(self, pipeline_dirs, caplog):
        # a 2 x 12 fit is too short to mix, so every event trips the R-hat warning
        _, out = pipeline_dirs
        with open(out / "counts.csv", newline="") as handle:
            tensor = corpus.read_count_tensor(handle)
        tensor.counts[[1, 4], :, 0] = 0
        tensor.counts[7, :, 2] = 0
        with open(out / "counts.csv", "w", newline="") as handle:
            corpus.write_count_tensor(tensor, handle)
        config = latent.ChainConfig(iterations=12, burn_in=2, chains=2, seed=3)
        expected = []
        for k, event in enumerate(corpus.EVENT_ORDER):
            slice_ = tensor.event_slice(event)
            zero = [tensor.outlets[i] for i in np.flatnonzero(slice_.sum(axis=1) == 0)]
            if zero:
                expected.append(f"event '{event.value}': {len(zero)} outlet(s) with 0 articles, "
                                f"estimates are prior-driven: {', '.join(zero)}")
            draws = latent.run_chain(slice_, config, latent.ModelConstants(), event_index=k)
            summary = latent.posterior_summary(draws, config.burn_in)
            rhat = max(summary.alpha.rhat.max(), summary.x.rhat.max())
            assert rhat > 1.05
            expected.append(f"event '{event.value}': max split R-hat {rhat:.3f} exceeds 1.05; "
                            "consider more iterations")
        assert len(expected) >= 5
        caplog.clear()
        assert run("fit", "--out", out, "--seed", config.seed, "--iters", config.iterations,
                   "--burnin", config.burn_in, "--chains", config.chains) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == expected

    def test_fit_holds_one_events_draws_at_a_time(self, tmp_path):
        # three non-empty events: the fit's traced peak beyond that of one
        # event's fit_event is the tensor and the summaries, not the draws of
        # the event before
        n, config = 300, latent.ChainConfig(iterations=400, burn_in=100, chains=2, seed=3)
        rng = np.random.default_rng(8)
        tensor = corpus.CountTensor(tuple(f"o{i:03d}" for i in range(n)),
                                    rng.poisson(4.0, (n, 3, 3)))
        with open(tmp_path / "counts.csv", "w", newline="") as handle:
            corpus.write_count_tensor(tensor, handle)

        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: latent.fit_event(tensor.event_slice(corpus.EventType.ADVERSE),
                                            config, latent.ModelConstants()))
        whole = peak(lambda: run("fit", "--out", tmp_path, "--seed", config.seed, "--iters",
                                 config.iterations, "--burnin", config.burn_in,
                                 "--chains", config.chains))
        draws = 2 * config.chains * config.iterations * n * 8  # alpha and x, float64
        assert whole - one < draws / 2


class TestWindowAndFormats:
    def test_date_window_filters_articles(self, tmp_path):
        articles = tmp_path / "a.csv"
        articles.write_text(
            "outlet_id,platform,date,narrative,event,interactions\n"
            "o1,twitter,2021-01-01,pro,positive,1\n"
            "o1,twitter,2021-06-01,pro,positive,1\n"
            "o1,twitter,2021-12-31,pro,positive,1\n"
        )
        outlets = tmp_path / "o.csv"
        outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
        out = tmp_path / "out"
        assert run("ingest", "--articles", articles, "--outlets", outlets,
                   "--out", out, "--from", "2021-02-01", "--to", "2021-11-30") == 0
        assert len(read_rows(out / "articles.csv")) == 1

    @pytest.mark.parametrize("day", ["20210201", "2021-W05-3", "2021-2-1"])
    def test_window_dates_are_yyyy_mm_dd_only(self, day):
        with pytest.raises(argparse.ArgumentTypeError, match=f"expected ISO date, got '{day}'"):
            cli._date(day)
        assert cli._date("2021-02-01").isoformat() == "2021-02-01"

    def test_jsonl_ingest(self, tmp_path):
        articles = tmp_path / "a.jsonl"
        articles.write_text(
            '{"outlet_id": "o1", "platform": "twitter", "date": "2021-01-01",'
            ' "narrative": "pro", "event": "positive", "interactions": 4}\n'
        )
        outlets = tmp_path / "o.jsonl"
        outlets.write_text(
            '{"outlet_id": "o1", "name": "One", "reliability": "reliable", "kind": "tv"}\n'
        )
        out = tmp_path / "out"
        assert run("ingest", "--articles", articles, "--outlets", outlets,
                   "--format", "jsonl", "--out", out) == 0
        assert len(read_rows(out / "articles.csv")) == 1

    def test_table_shaped_percentages(self, tmp_path):
        # 126 questionable of 1000 contents -> 12.6% / 87.4%, as displayed
        lines = ["outlet_id,platform,date,narrative,event,interactions"]
        for i in range(126):
            lines.append(f"q1,twitter,2021-01-01,anti,adverse,{i % 3}")
        for i in range(874):
            lines.append(f"r1,twitter,2021-01-01,pro,positive,{i % 3}")
        articles = tmp_path / "a.csv"
        articles.write_text("\n".join(lines) + "\n")
        outlets = tmp_path / "o.csv"
        outlets.write_text(
            "outlet_id,name,reliability,kind\nq1,Q,questionable,\nr1,R,reliable,\n"
        )
        out = tmp_path / "out"
        assert run("ingest", "--articles", articles, "--outlets", outlets, "--out", out) == 0
        rows = read_rows(out / "breakdown.csv")
        assert rows[0]["contents_pct"] == "12.6"
        assert rows[1]["contents_pct"] == "87.4"


class TestConfigAndOptions:
    def test_config_file_with_flag_override(self, pipeline_dirs, tmp_path):
        _, out = pipeline_dirs
        config = tmp_path / "run.conf"
        config.write_text(
            "# fit settings\n"
            f"out = {out}\n"
            "iters = 400\n"
            "burnin = 100\n"
            "chains = 2\n"
            "seed = 9\n"
        )
        assert run("fit", "--config", config) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["iters"] == 400
        # explicit flag beats the config file
        assert run("fit", "--config", config, "--seed", 11) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 11

    def test_help_names_the_defaults_a_run_resolves(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run("fit", "--help")
        text = " ".join(capsys.readouterr().out.split())
        config = latent.ChainConfig()
        assert f"MCMC chains per event type (default: {config.chains})" in text
        assert f"MCMC iterations per chain (default: {config.iterations})" in text
        assert f"burn-in iterations per chain (default: {config.burn_in})" in text
        assert "also write raw draws per event type (default: off)" in text
        with pytest.raises(SystemExit):
            run("network", "--help")
        assert "keep edges exactly at the mean weight (default: on)" in " ".join(
            capsys.readouterr().out.split())

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("itters = 12\n")
        assert run("fit", "--config", config, "--out", tmp_path) == 2
        assert "itters" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("proposal_sd", "0.5"), ("adapt", "on")])
    def test_removed_sampler_options_rejected(self, key, value, tmp_path, capsys):
        # the independence kernel has no proposal scale to set or tune
        config = tmp_path / "old.conf"
        config.write_text(f"{key} = {value}\n")
        assert run("fit", "--config", config, "--out", tmp_path) == 2
        assert key in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run("fit", "--" + key.replace("_", "-"), value, "--out", tmp_path)
        assert exc.value.code == 2

    def test_explicit_theta_matches_default(self, pipeline_dirs):
        _, out = pipeline_dirs
        assert fit_fast(out) == 0
        assert run("bias", "--out", out) == 0
        default_bytes = (out / "bias.csv").read_bytes()
        assert run("bias", "--out", out, "--theta", "0.7853981633974483") == 0
        assert (out / "bias.csv").read_bytes() == default_bytes

    def test_dump_draws_schema(self, pipeline_dirs):
        _, out = pipeline_dirs
        assert run("fit", "--out", out, "--seed", 3, "--iters", 40, "--burnin", 10,
                   "--chains", 2, "--dump-draws", "on") == 0
        draws = read_rows(out / "draws_adverse.csv")
        assert set(draws[0]) == {"chain", "iter", "param_index", "value"}
        # 2 chains x 40 iterations x (10 alpha + 10 x) parameters
        assert len(draws) == 2 * 40 * 20

    def test_strict_threshold_and_isolates_flags(self, pipeline_dirs):
        _, out = pipeline_dirs
        assert fit_fast(out) == 0
        assert run("bias", "--out", out) == 0
        assert run("network", "--out", out, "--seed", 3,
                   "--strict-threshold", "off", "--drop-isolates", "off") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["strict_threshold"] is False
        assert manifest["config"]["drop_isolates"] is False

    def test_manifest_records_input_digests(self, pipeline_dirs):
        _, out = pipeline_dirs
        assert fit_fast(out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "fit"
        (digest,) = manifest["inputs"].values()
        assert len(digest) == 64

    def test_manifest_hashes_inputs_that_ingest_rewrites(self, tmp_path):
        # ingest writes its canonical articles.csv and outlets.csv over these
        # quoted inputs in the same directory; the manifest holds what it read
        articles = tmp_path / "articles.csv"
        articles.write_text('outlet_id,platform,date,narrative,event,interactions\n'
                            '"o1",twitter,2021-01-01,pro,adverse,1\n')
        outlets = tmp_path / "outlets.csv"
        outlets.write_text('outlet_id,name,reliability,kind\n"o1",One,reliable,\n')
        original = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (articles, outlets)}
        assert run("ingest", "--articles", articles, "--outlets", outlets, "--out", tmp_path) == 0
        assert hashlib.sha256(articles.read_bytes()).hexdigest() != original[str(articles)]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["inputs"] == original


class TestQuoting:
    def test_outlet_id_with_comma_and_quote_survives_every_stage(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert run("simulate", "--out", sim, "--n-outlets", 10, "--clusters", 2, "--seed", 3) == 0
        odd = 'Outlet, "Inc" 001'
        for name, parse, write in (
            ("articles", corpus.parse_articles, corpus.write_articles),
            ("outlets", corpus.parse_outlets, corpus.write_outlets),
            ("followers", corpus.parse_followers, corpus.write_followers),
            ("retweets", corpus.parse_retweets, corpus.write_retweets),
        ):
            with open(sim / f"{name}.csv", newline="") as handle:
                records = parse(handle)
            records = [
                dataclasses.replace(r, outlet_id=odd) if r.outlet_id == "o001" else r
                for r in records
            ]
            with open(sim / f"{name}.csv", "w", newline="") as handle:
                write(records, handle)

        assert run(*ingest_args(sim, out)) == 0
        assert fit_fast(out) == 0
        for stage in ("bias", "engagement", "network", "report"):
            assert run(stage, "--out", out) == 0, stage

        assert odd in {r["outlet_id"] for r in read_rows(out / "clusters.csv")}
        edges = read_rows(out / "edges.csv")
        assert any(odd in (e["src"], e["dst"]) for e in edges)
        report = json.loads((out / "report.json").read_text())
        assert report["outlets"][odd]["cluster"] is not None

    def test_user_id_with_carriage_return_survives_every_stage(self, tmp_path):
        # ingest once wrote the id bare, and network then read its retweets.csv
        # back as "expected 3 fields, got 1 at line 2"
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert run("simulate", "--out", sim, "--n-outlets", 10, "--clusters", 2, "--seed", 3) == 0
        header, first, rest = (sim / "retweets.csv").read_text().split("\n", 2)
        first = '"u\r0"' + first[first.index(","):]
        (sim / "retweets.csv").write_text("\n".join([header, first, rest]), newline="")

        assert run(*ingest_args(sim, out)) == 0
        assert fit_fast(out) == 0
        for stage in ("bias", "engagement", "network", "report"):
            assert run(stage, "--out", out) == 0, stage
        with open(out / "retweets.csv", newline="") as handle:
            assert "u\r0" in corpus.parse_retweets(handle).user_ids


# artifact -> stage named in the missing-artifact message, in check order
REQUIRED = {
    "ingest": [],
    "fit": [("counts.csv", "ingest")],
    "bias": [("posterior.csv", "fit"), ("outlets.csv", "ingest")],
    "engagement": [("articles.csv", "ingest"), ("followers.csv", "ingest")],
    "network": [("retweets.csv", "ingest"), ("outlets.csv", "ingest")],
    "report": [
        ("bias.csv", "bias"),
        ("engagement.csv", "engagement"),
        ("clusters.csv", "network"),
    ],
    "simulate": [],
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Inputs and the artifacts of every pipeline stage."""
    root = tmp_path_factory.mktemp("full")
    sim, out = root / "sim", root / "run"
    assert run("simulate", "--out", sim, "--n-outlets", 10, "--clusters", 2, "--seed", 3) == 0
    assert run(*ingest_args(sim, out)) == 0
    assert fit_fast(out) == 0
    for stage in ("bias", "engagement", "network", "report"):
        assert run(stage, "--out", out) == 0
    return sim, out


def test_cluster_stats_file_reads_back_as_the_report_clusters(full_run):
    # report writes cluster_stats.csv and no stage reads it, so its schema is checked here
    _, full = full_run
    text = (full / "cluster_stats.csv").read_text()
    table = corpus._parse(io.StringIO(text), "csv", network.ClusterStatsTable)
    report = json.loads((full / "report.json").read_text())
    assert len(table) >= 2
    assert list(map(dataclasses.asdict, table)) == report["clusters"]
    again = io.StringIO()
    network.write_cluster_stats_csv(table, again)
    assert again.getvalue() == text


def test_analyses_run_in_any_order_after_ingest(full_run, tmp_path, capsys):
    # engagement and network need no bias.csv; only report joins the analyses
    sim, full = full_run
    out = tmp_path / "run"
    assert run(*ingest_args(sim, out)) == 0
    assert run("engagement", "--out", out) == 0
    assert run("network", "--out", out) == 0
    capsys.readouterr()
    assert run("report", "--out", out) == 3
    err = capsys.readouterr().err
    assert "'bias.csv'" in err and "'bias' stage" in err, err
    assert fit_fast(out) == 0
    assert run("bias", "--out", out) == 0
    assert run("report", "--out", out) == 0
    names = sorted(p.name for p in full.iterdir() if p.name != "run_manifest.json")
    assert sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json") == names
    for name in names:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def accepted_options(command: str) -> set[str]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        flag[2:].replace("-", "_")
        for action in sub.choices[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help", "--config")
    }


@pytest.mark.parametrize("command", list(REQUIRED))
class TestStageTable:
    def test_manifest_config_keys_are_the_accepted_options(self, command, full_run, tmp_path):
        sim, full = full_run
        out = tmp_path / "run"
        shutil.copytree(full, out)
        argv = {
            "ingest": ingest_args(sim, out),
            "fit": ["fit", "--out", out, "--iters", 40, "--burnin", 10, "--chains", 2],
            "simulate": ["simulate", "--out", out, "--n-outlets", 4],
        }.get(command, [command, "--out", out])
        assert run(*argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["config"]) == accepted_options(command)

    def test_each_missing_artifact_exits_3_naming_its_stage(
        self, command, full_run, tmp_path, capsys
    ):
        _, full = full_run
        out = tmp_path / "run"
        shutil.copytree(full, out)
        required = REQUIRED[command]
        assert list(cli.STAGES[command].requires) == [name for name, _ in required]
        for artifact, producer in required:
            (out / artifact).rename(out / "held")
            assert run(command, "--out", out) == 3, artifact
            err = capsys.readouterr().err
            assert f"'{artifact}'" in err and f"'{producer}' stage" in err, err
            (out / "held").rename(out / artifact)


@pytest.mark.parametrize("artifact, column, value, stage", [
    ("posterior.csv", "mean", "abc", "bias"),
    ("bias.csv", "x_adv", "abc", "report"),
    ("bias.csv", "adverse_lean", "True", "report"),
    ("bias.csv", "reliability", "garbage", "report"),
    ("engagement.csv", "contents", "abc", "report"),
    ("engagement.csv", "contents", " 1_000 ", "report"),
    ("engagement.csv", "interactions", "9223372036854775808", "report"),
    ("bias.csv", "x_adv", "nan", "report"),
    ("bias.csv", "x_pos", " 1_0.5 ", "report"),
    ("engagement.csv", "contents", " 7", "report"),
    ("clusters.csv", "cluster_id", "+1", "report"),
    ("posterior.csv", "event_type", "sideways", "bias"),
    ("posterior.csv", "param", "beta", "bias"),
    ("posterior.csv", "rhat", "NaN", "bias"),
    ("engagement.csv", "followers", "1e3", "report"),
])
def test_bad_artifact_value_exits_2_naming_file_and_line(
    artifact, column, value, stage, full_run, tmp_path, capsys
):
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    with open(out / artifact, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index(column)] = value
    with open(out / artifact, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert run(stage, "--out", out) == 2
    message = ARTIFACT_MESSAGES.get((column, value), f"invalid {column} '{value}'")
    assert f"{out / artifact}: {message} at line 2" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    ("mean", "inf"), ("sd", "inf"), ("q05", "-inf"), ("q95", "inf"), ("ess", "inf"),
])
def test_non_finite_posterior_statistic_exits_2(column, value, full_run, tmp_path, capsys):
    # inf adverse and positive alpha means once made a NaN selection index and exit 1
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    with open(out / "posterior.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    edited = [i for i, row in enumerate(rows)
              if row[:3] in (["o000", "adverse", "alpha"], ["o000", "positive", "alpha"])]
    for i in edited:
        rows[i][rows[0].index(column)] = value
    with open(out / "posterior.csv", "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert run("bias", "--out", out) == 2
    message = f"{out / 'posterior.csv'}: invalid {column} '{value}' at line {edited[0] + 1}"
    assert message in capsys.readouterr().err


def test_infinite_rhat_is_read_back(full_run, tmp_path):
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    with open(out / "posterior.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index("rhat")] = "inf"
    with open(out / "posterior.csv", "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert run("bias", "--out", out) == 0
    assert (out / "bias.csv").read_bytes() == (full / "bias.csv").read_bytes()


# faults that the input tables' fields report in their own words
ARTIFACT_MESSAGES = {
    ("reliability", "garbage"): "unknown reliability label 'garbage'",
    ("interactions", "9223372036854775808"):
        "interactions must be <= 9223372036854775807, got '9223372036854775808'",
    ("event_type", "sideways"): "unknown event label 'sideways'",
    ("param", "beta"): "unknown parameter 'beta'",
}


@pytest.mark.parametrize("artifact, stage, change, key", [
    ("bias.csv", "report", {"reliability": "reliable"}, ("outlet_id",)),
    ("posterior.csv", "bias", {"mean": "9.5"}, ("outlet_id", "event_type", "param")),
    ("engagement.csv", "report", {"engagement": "0.5"}, ("outlet_id", "event_type")),
    ("clusters.csv", "report", {"cluster_id": "7"}, ("outlet_id",)),
], ids=["bias", "posterior", "engagement", "clusters"])
def test_repeated_artifact_key_exits_2(artifact, stage, change, key, full_run, tmp_path, capsys):
    # a repeated key once read as last-wins: a second bias.csv row could relabel an outlet
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    with open(out / artifact, newline="") as handle:
        rows = list(csv.reader(handle))
    repeat = [change.get(name, value) for name, value in zip(rows[0], rows[1])]
    with open(out / artifact, "a", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(repeat)
    capsys.readouterr()
    assert run(stage, "--out", out) == 2
    values = ", ".join(f"'{rows[1][rows[0].index(k)]}'" for k in key)
    shown = f"{key[0]} {values}" if len(key) == 1 else f"cell ({values})"
    expected = f"{out / artifact}: duplicate {shown} at line {len(rows) + 1}"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fit", "--iters", 0], "iterations must be >= 1"),
    (["fit", "--iters", 10, "--burnin", 10], "burn_in must satisfy 0 <= burn_in < iterations"),
    (["fit", "--chains", 0], "chains must be >= 1"),
    (["fit", "--prior-alpha-sd", 0], "prior standard deviations must be > 0"),
    (["fit", "--prior-x-sd", -1], "prior standard deviations must be > 0"),
    *((["fit", option, value], "prior standard deviations must be > 0")
      for option in ("--prior-alpha-sd", "--prior-x-sd") for value in ("nan", "inf")),
    (["bias", "--theta", math.pi / 2], "theta must lie in (0, pi/2)"),
    (["bias", "--theta", "nan"], "theta must lie in (0, pi/2)"),
    (["engagement", "--from", "2021-06-01", "--to", "2021-01-01"],
     "window start must be <= window end"),
    (["simulate", "--from", "2022-01-01"], "window start must be <= window end"),
    (["simulate", "--n-outlets", 2, "--clusters", 3], "need at least one outlet per cluster"),
    (["simulate", "--clusters", 0], "need at least one outlet per cluster"),
], ids=["iters", "burnin", "chains", "prior-alpha-sd", "prior-x-sd",
        "prior-alpha-sd-nan", "prior-alpha-sd-inf", "prior-x-sd-nan", "prior-x-sd-inf",
        "theta", "theta-nan",
        "engagement-window", "simulate-window", "clusters-above-outlets", "no-clusters"])
def test_bad_option_value_exits_2(argv, message, full_run, tmp_path, capsys):
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("stage, seed", [
    pytest.param(stage, seed, id=stage if seed == "-1" else f"{stage}-{seed}")
    for seed in ("-1", "abc") for stage in ("fit", "network", "simulate")
])
def test_negative_seed_exits_2(stage, seed, full_run, tmp_path, capsys):
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)
    config = tmp_path / "run.conf"
    config.write_text(f"seed = {seed}\n")
    capsys.readouterr()
    assert run(stage, "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"bad config value for 'seed': expected an integer >= 0, got '{seed}'" in err
    with pytest.raises(SystemExit) as exc:
        run(stage, "--out", out, "--seed", seed)
    assert exc.value.code == 2
    assert f"argument --seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err


@pytest.mark.parametrize("articles, message", [
    ("o1,twitter,2021-01-01,pro,adverse,1\no2,twitter,2021-01-01,pro,adverse,1\n",
     "article references unregistered outlet 'o2'"),
    ("", "no articles"),
])
def test_articles_the_registry_cannot_count_exit_2(articles, message, tmp_path, capsys):
    path = tmp_path / "articles.csv"
    path.write_text("outlet_id,platform,date,narrative,event,interactions\n" + articles)
    outlets = tmp_path / "outlets.csv"
    outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
    assert run("ingest", "--articles", path, "--outlets", outlets, "--out", tmp_path / "out") == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_inverted_ingest_window_exits_2(tmp_path, capsys):
    path = tmp_path / "articles.csv"
    path.write_text("outlet_id,platform,date,narrative,event,interactions\n"
                    "o1,twitter,2021-03-01,pro,adverse,1\n")
    outlets = tmp_path / "outlets.csv"
    outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
    assert run("ingest", "--articles", path, "--outlets", outlets, "--out", tmp_path / "out",
               "--from", "2021-06-01", "--to", "2021-01-01") == 2
    assert "error: window start must be <= window end" in capsys.readouterr().err


def test_input_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "articles.csv"
    path.write_bytes(b"outlet_id,platform,date,narrative,event,interactions\n\xff\xfe,,\n")
    outlets = tmp_path / "outlets.csv"
    outlets.write_text("outlet_id,name,reliability,kind\no1,One,reliable,\n")
    assert run("ingest", "--articles", path, "--outlets", outlets, "--out", tmp_path / "out") == 2
    assert f"error: {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_value_error_inside_a_stage_is_internal_and_exits_1(
    full_run, tmp_path, monkeypatch, caplog
):
    _, full = full_run
    out = tmp_path / "run"
    shutil.copytree(full, out)

    def broken(*args, **kwargs):
        raise ValueError("a fault of the program")

    monkeypatch.setattr(metrics, "build_bias_table", broken)
    assert run("bias", "--out", out) == 1
    assert "internal error" in caplog.text and "a fault of the program" in caplog.text


def test_stage_cost_is_one_info_line_outside_out(tmp_path, caplog):
    out = tmp_path / "sim"
    with caplog.at_level("INFO", logger="newsbias.cli"):
        assert run("simulate", "--out", out, "--n-outlets", 4, "--clusters", 1) == 0
    (line,) = [r.getMessage() for r in caplog.records if r.name == "newsbias.cli"]
    wall, peak = re.fullmatch(
        r"simulate: (\d+\.\d{3}) s wall, peak RSS (\d+\.\d) MB(?: \(set before this stage\))?",
        line,
    ).groups()
    assert float(wall) >= 0 and float(peak) > 1
    # --out holds only the stage's artifacts and its manifest, none with the cost in it
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted([*cli.STAGES["simulate"].produces, "run_manifest.json"])
    assert not any(b"peak RSS" in (out / name).read_bytes() for name in names)


@pytest.mark.parametrize("peaks_kib, suffix", [
    ([227020, 227020], " (set before this stage)"),
    ([100000, 227020], ""),
])
def test_stage_cost_says_when_an_earlier_stage_set_the_peak(
    peaks_kib, suffix, tmp_path, monkeypatch, caplog
):
    readings = iter(peaks_kib)
    monkeypatch.setattr(cli.resource, "getrusage",
                        lambda who: argparse.Namespace(ru_maxrss=next(readings)))
    with caplog.at_level("INFO", logger="newsbias.cli"):
        assert run("simulate", "--out", tmp_path, "--n-outlets", 4, "--clusters", 1) == 0
    (line,) = [r.getMessage() for r in caplog.records if r.name == "newsbias.cli"]
    assert line.endswith(f" s wall, peak RSS 221.7 MB{suffix}")


@pytest.mark.parametrize("block_rows, write_rows", [(4, 4), (13, 8192), (1024, 8192)])
def test_draws_written_from_arrays_read_as_one_row_per_value(block_rows, write_rows,
                                                             monkeypatch):
    # blocks of one, two and all five iterations, a block of one iteration
    # (six draws) joined in two slices of rows
    monkeypatch.setattr(cli, "_DRAW_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(corpus, "_WRITE_ROWS", write_rows)
    rng = np.random.default_rng(4)
    chains, iterations, n = 2, 5, 3
    alpha, x = rng.normal(size=(2, chains, iterations, n))
    alpha[0, 1] = [-0.0, math.inf, -math.inf]
    x[1, 4] = [5e-324, 1e16, 1e-7]
    draws = latent.ChainDraws(alpha, x, None, None)
    buf = io.StringIO()
    cli._write_draws(draws, buf)
    # the rows and spellings of the csv module's writer
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([cli._DRAW_FIELDS] + [
        (c, h, j, value)
        for c in range(chains) for h in range(iterations)
        for j, value in enumerate(alpha[c, h].tolist() + x[c, h].tolist())
    ])
    assert buf.getvalue() == expected.getvalue()
    assert "0,1,0,-0.0\n0,1,1,inf\n0,1,2,-inf\n" in buf.getvalue()
    assert "1,4,3,5e-324\n1,4,4,1e+16\n1,4,5,1e-07\n" in buf.getvalue()


def test_draws_writer_holds_one_block():
    class Count(io.TextIOBase):
        chars = 0

        def write(self, text):
            self.chars += len(text)
            return len(text)

    n = 682
    draws = latent.ChainDraws(np.full((2, 20, n), 0.1 + 0.2), np.full((2, 20, n), -1.5),
                              None, None)
    out = Count()
    tracemalloc.start()
    try:
        cli._write_draws(draws, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 40 blocks of one iteration (1,364 draws) write 1.2 MB, and a block
    # holds about 0.5 MB; blocks of six iterations held 2.4 MB
    assert out.chars > 1_000_000
    assert peak < 1_000_000


@pytest.mark.parametrize("stage, name, column", [
    ("ingest", "outlets.csv", "name"),
    ("report", "bias.csv", "outlet_id"),
])
def test_overlong_field_exits_2_naming_file_and_line(
    stage, name, column, full_run, tmp_path, capsys
):
    sim, full = full_run
    shutil.copytree(sim, tmp_path / "sim")
    out = tmp_path / "run"
    shutil.copytree(full, out)
    path = (tmp_path / "sim" if stage == "ingest" else out) / name
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[2][rows[0].index(column)] = "x" * 200_000
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    argv = ingest_args(tmp_path / "sim", out) if stage == "ingest" else [stage, "--out", out]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: malformed CSV: field larger than field limit" in err
    assert err.rstrip().endswith("at line 3")


class TestStreams:
    def test_events_and_seeds_draw_from_distinct_streams(self, tmp_path):
        # equal anti and pro counts make the first alpha move blind to the
        # +-0.5 stance start, so chains sharing a stream share a first row
        rows = np.array([[20, 10, 20], [5, 40, 5], [30, 2, 30], [8, 8, 8]])
        tensor = corpus.CountTensor(
            tuple(f"o{i}" for i in range(4)), np.repeat(rows[:, :, None], 3, axis=2)
        )
        first_rows = {}
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            out.mkdir()
            with open(out / "counts.csv", "w", newline="") as handle:
                corpus.write_count_tensor(tensor, handle)
            assert run("fit", "--out", out, "--seed", seed, "--iters", 60, "--burnin", 10,
                       "--chains", 4, "--dump-draws", "on") == 0
            by_event = {}
            for row in read_rows(out / "posterior.csv"):
                by_event.setdefault(row["event_type"], []).append(
                    (row["mean"], row["sd"], row["q05"], row["q95"])
                )
            assert len({tuple(v) for v in by_event.values()}) == 3
            draws = read_rows(out / "draws_adverse.csv")
            first_rows[seed] = [
                [r["value"] for r in draws
                 if r["chain"] == str(c) and r["iter"] == "0" and int(r["param_index"]) < 4]
                for c in range(4)
            ]
        for chain_0 in first_rows[0]:
            for chain_1 in first_rows[1]:
                assert chain_0 != chain_1
