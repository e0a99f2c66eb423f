"""Tests for the fault-injection campaign engine (repro.campaigns)."""

from __future__ import annotations

import json
import math
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.telemetry as telemetry

from repro.campaigns import (
    CONTINUE,
    STOP,
    CampaignSpec,
    ErrorSpec,
    ResultStore,
    SiteSpec,
    StoppingPolicy,
    Trial,
    TrialResult,
    aggregate,
    example_spec,
    export_csv,
    report_table,
    status_table,
)
from repro.campaigns.executor import evaluate_trial, run_campaign
from repro.errors.models import BitFlipModel, MagFreqModel
from repro.errors.sites import Component, SiteFilter, Stage


def _trial(seed: int = 0, ber: float = 1e-3, component: str = "O") -> Trial:
    return Trial(
        model="opt-mini",
        task="perplexity",
        site=SiteSpec.only(components=[component], stages=["prefill"]),
        error=ErrorSpec.bitflip(ber, bits=(30,)),
        seed=seed,
    )


def _result(degradation: float = 0.5) -> TrialResult:
    return TrialResult(
        score=3.0, degradation=degradation, clean_score=2.5, injected_errors=7
    )


def _small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="t-small",
        models=("opt-mini",),
        sites=(SiteSpec.only(components=["K"], stages=["prefill"]),),
        errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
        seeds=(0, 1),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpec:
    def test_grid_expansion_counts(self):
        spec = example_spec()
        trials = spec.expand()
        assert len(trials) == spec.n_trials == 2 * 3 * 3  # sites x errors x seeds

    def test_expansion_is_deterministic(self):
        keys = [t.key for t in example_spec().expand()]
        assert keys == [t.key for t in example_spec().expand()]
        assert len(set(keys)) == len(keys)

    def test_seed_changes_key_but_not_cell(self):
        a, b = _trial(seed=0), _trial(seed=1)
        assert a.key != b.key
        assert a.cell_id == b.cell_id

    def test_any_field_changes_key(self):
        base = _trial()
        assert base.key != _trial(ber=1e-2).key
        assert base.key != _trial(component="K").key

    def test_json_round_trip_preserves_keys(self):
        spec = example_spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert [t.key for t in clone.expand()] == [t.key for t in spec.expand()]

    def test_from_dict_conveniences(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "conv",
                "models": ["opt-mini"],
                "components": ["O", "K"],
                "stages": ["prefill"],
                "bers": [1e-4, 1e-3],
                "bits": [30],
                "seeds": 3,
                "magfreq": {"mags": [16], "freqs": [1, 4]},
                "stopping": {"min_seeds": 2, "rel_tol": 0.5},
            }
        )
        assert len(spec.sites) == 2
        assert len(spec.errors) == 4  # 2 bitflips + 2 magfreq cells
        assert spec.seeds == (0, 1, 2)
        assert spec.stopping == StoppingPolicy(min_seeds=2, rel_tol=0.5)

    def test_validation_rejects_unknowns(self):
        with pytest.raises(KeyError):
            _small_spec(models=("gpt-17",))
        with pytest.raises(KeyError):
            _small_spec(tasks=("jeopardy",))
        with pytest.raises(KeyError):
            _small_spec(methods=("magic",))

    def test_bitflip_without_ber_needs_voltage(self):
        with pytest.raises(ValueError):
            _small_spec(errors=(ErrorSpec.bitflip(None),))
        spec = _small_spec(errors=(ErrorSpec.bitflip(None),), voltages=(0.7,))
        assert spec.expand()[0].voltage == 0.7

    def test_voltage_axis_rejects_explicit_ber(self):
        # a voltage would silently override the stated BER — must not validate
        with pytest.raises(ValueError):
            _small_spec(voltages=(0.7,))  # default error has ber=1e-3
        with pytest.raises(ValueError):
            _small_spec(errors=(ErrorSpec.magfreq(16, 4),), voltages=(0.7,))
        with pytest.raises(ValueError):
            _small_spec(errors=(ErrorSpec.bitflip(None),), voltages=(0.7, None))

    def test_expand_drops_duplicate_axis_values(self):
        spec = _small_spec(seeds=(0, 0, 1))
        trials = spec.expand()
        assert len(trials) == spec.n_trials == 2
        assert len({t.key for t in trials}) == 2

    def test_site_spec_canonicalizes_listing_order(self):
        a = SiteSpec.only(components=["O", "FC2"], stages=["prefill", "decode"])
        b = SiteSpec.only(components=["FC2", "O"], stages=["decode", "prefill"])
        assert a == b
        assert _trial().key == _trial().key  # sanity: keys are stable

    def test_site_spec_filter_round_trip(self):
        site_filter = SiteFilter.only(
            layers=[1, 0], components=[Component.O, Component.K], stages=[Stage.PREFILL]
        )
        spec = SiteSpec.from_filter(site_filter)
        assert spec.layers == (0, 1)
        assert spec.components == ("K", "O")
        back = spec.to_filter()
        assert back.layers == site_filter.layers
        assert back.components == site_filter.components
        assert back.stages == site_filter.stages
        assert SiteSpec.from_filter(None).to_filter().matches is not None

    def test_error_spec_rejects_invalid_fields_eagerly(self):
        with pytest.raises(ValueError):
            ErrorSpec.bitflip(1e-3, bits=(40,))  # BitFlipModel needs 0 <= b < 32
        with pytest.raises(ValueError):
            ErrorSpec.magfreq(16, 4, sign=2)
        with pytest.raises(ValueError):
            ErrorSpec.magfreq(-1, 4)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict(
                {"name": "x", "models": ["opt-mini"], "seed": 3}  # typo for "seeds"
            )

    def test_error_spec_builds_models(self):
        flip = ErrorSpec.bitflip(1e-3, bits=(30,)).build()
        assert isinstance(flip, BitFlipModel) and flip.bits == (30,)
        derived = ErrorSpec.bitflip(None).build(ber=1e-4)
        assert isinstance(derived, BitFlipModel) and derived.ber == 1e-4
        mf = ErrorSpec.magfreq(16, 4).build()
        assert isinstance(mf, MagFreqModel) and (mf.mag, mf.freq) == (16, 4)
        assert ErrorSpec.clean().build() is None


class TestStopping:
    def test_needs_min_seeds_first(self):
        policy = StoppingPolicy(min_seeds=3)
        assert policy.decide([1.0, 1.0]) == CONTINUE

    def test_constant_stream_stops_at_min_seeds(self):
        policy = StoppingPolicy(min_seeds=3, rel_tol=0.1)
        assert policy.decide([0.5, 0.5, 0.5]) == STOP

    def test_noisy_stream_continues(self):
        policy = StoppingPolicy(min_seeds=3, rel_tol=0.1)
        assert policy.decide([0.1, 2.0, 0.9]) == CONTINUE

    def test_max_seeds_caps_noise(self):
        policy = StoppingPolicy(min_seeds=2, max_seeds=4, rel_tol=1e-9)
        noisy = [0.1, 5.0, 0.2, 4.0]
        assert policy.decide(noisy[:3]) == CONTINUE
        assert policy.decide(noisy) == STOP

    def test_abs_tol_dominates_near_zero_means(self):
        policy = StoppingPolicy(min_seeds=2, rel_tol=0.0, abs_tol=1.0)
        assert policy.decide([0.01, -0.01, 0.0]) == STOP

    def test_half_width_shrinks_with_n(self):
        policy = StoppingPolicy()
        wide = policy.half_width([0.0, 1.0])
        narrow = policy.half_width([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        assert math.isinf(policy.half_width([1.0]))
        assert narrow < wide

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingPolicy(min_seeds=1)
        with pytest.raises(ValueError):
            StoppingPolicy(min_seeds=3, max_seeds=2)
        with pytest.raises(ValueError):
            StoppingPolicy(confidence=1.5)


class TestStore:
    def test_add_get_contains(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            trial = _trial()
            assert trial.key not in store
            store.add(trial, _result())
            assert trial.key in store and len(store) == 1
            record = store.get(trial.key)
            assert record.trial == trial
            assert record.result.degradation == 0.5

    def test_duplicate_add_is_noop(self, tmp_path):
        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(), _result(0.1))
            store.add(_trial(), _result(0.9))  # same key: first write wins
            assert len(store) == 1
            assert store.get(_trial().key).result.degradation == 0.1
        assert len((directory / "results.jsonl").read_text().splitlines()) == 1

    def test_persists_across_reopen(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.add(_trial(0), _result(0.1))
            store.add(_trial(1), _result(0.2))
        with ResultStore(tmp_path / "s") as store:
            assert len(store) == 2
            assert {r.result.degradation for r in store.records()} == {0.1, 0.2}

    def test_index_rebuilt_from_log(self, tmp_path):
        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result())
            store.add(_trial(1), _result())
        (directory / "index.sqlite").unlink()
        with ResultStore(directory) as store:
            assert len(store) == 2

    def test_torn_trailing_line_ignored(self, tmp_path):
        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result())
        with (directory / "results.jsonl").open("a") as handle:
            handle.write('{"key": "abc", "trial": {"mod')  # simulated crash
        (directory / "index.sqlite").unlink()
        with ResultStore(directory) as store:
            assert len(store) == 1
            assert _trial(0).key in store

    def test_cell_records_group_seeds(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.add(_trial(0), _result(0.1))
            store.add(_trial(1), _result(0.3))
            store.add(_trial(0, component="K"), _result(0.0))
            cell = _trial(0).cell_id
            assert [r.result.degradation for r in store.cell_records(cell)] == [0.1, 0.3]

    def test_double_ingest_race_caught_under_lock(self, tmp_path, monkeypatch):
        """Two writers racing one key: both pass the unlocked membership
        check, but the re-check under the ingest lock sees the winner's
        commit (WAL cross-connection visibility) and drops the loser's
        append. Simulated deterministically by handing writer B a stale
        first membership answer."""
        directory = tmp_path / "s"
        store_a = ResultStore(directory)
        store_b = ResultStore(directory)
        try:
            store_a.add(_trial(), _result(0.1))  # writer A wins the race
            stale = []
            orig = ResultStore.__contains__

            def racy(self, key):
                if self is store_b and not stale:
                    stale.append(key)
                    return False  # pre-lock check ran before A's commit
                return orig(self, key)

            monkeypatch.setattr(ResultStore, "__contains__", racy)
            dupes = telemetry.METRICS.counter("store.duplicate_ingests").value
            store_b.add(_trial(), _result(0.9))
            assert stale  # the stale fast path was actually exercised
            assert (
                telemetry.METRICS.counter("store.duplicate_ingests").value
                == dupes + 1
            )
        finally:
            store_a.close()
            store_b.close()
        assert len((directory / "results.jsonl").read_text().splitlines()) == 1
        with ResultStore(directory) as store:
            assert len(store) == 1
            assert store.get(_trial().key).result.degradation == 0.1

    def test_two_process_ingest_stays_duplicate_free(self, tmp_path):
        """The regression the flock exists for: two *processes* streaming
        the same keys into one store directory must never double-append —
        the log's line count must equal the key count afterwards."""
        directory = tmp_path / "s"
        script = (
            "import sys, time\n"
            "from repro.campaigns import ErrorSpec, SiteSpec, Trial, TrialResult\n"
            "from repro.campaigns.store import ResultStore\n"
            "directory, start = sys.argv[1], float(sys.argv[2])\n"
            "trials = [Trial(model='opt-mini', task='perplexity',\n"
            "                site=SiteSpec.only(components=['O'], stages=['prefill']),\n"
            "                error=ErrorSpec.bitflip(1e-3, bits=(30,)), seed=s)\n"
            "          for s in range(25)]\n"
            "with ResultStore(directory) as store:\n"
            "    while time.time() < start:\n"
            "        time.sleep(0.005)\n"
            "    for t in trials:\n"
            "        store.add(t, TrialResult(score=3.0, degradation=0.5,\n"
            "                                 clean_score=2.5))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parent.parent / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        start = str(time.time() + 1.5)  # barrier: both loops begin together
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(directory), start],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        lines = (directory / "results.jsonl").read_text().splitlines()
        assert len(lines) == 25
        assert len({json.loads(line)["key"] for line in lines}) == 25
        with ResultStore(directory) as store:
            assert len(store) == 25

    def test_slow_readonly_reader_never_blocks_writer(self, tmp_path):
        """`campaign status/watch` against a store a broker is writing (the
        remote-fleet deployment, DESIGN.md §14): the documented read path is
        a `mode=ro` URI connection, and under WAL even a reader that holds
        its snapshot open across many writer commits neither blocks the
        writer nor sees torn state."""
        from repro.campaigns.progress import read_latest_progress

        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result(0.1))
            reader = sqlite3.connect(
                f"file:{directory / 'index.sqlite'}?mode=ro", uri=True
            )
            try:
                reader.execute("BEGIN")  # slow reader: snapshot held open
                assert reader.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone() == (1,)
                for seed in range(1, 6):  # writer streams on, unblocked
                    store.add(_trial(seed), _result(0.2))
                store.write_progress({"name": "t", "state": "running"})
                # the open snapshot still reads its original state...
                assert reader.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone() == (1,)
            finally:
                reader.close()
            # ...and a fresh read-only open sees everything committed
            assert read_latest_progress(directory)["state"] == "running"
            with pytest.raises(sqlite3.OperationalError):
                sqlite3.connect(
                    f"file:{directory / 'index.sqlite'}?mode=ro", uri=True
                ).execute("INSERT INTO progress (ts, payload) VALUES (1, 'x')")

    def test_wal_mode_and_covering_index(self, tmp_path):
        """The index runs in WAL mode with a covering key index, so the
        parent's streamed writes don't stall lane-pack result drains."""
        with ResultStore(tmp_path / "s") as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode.lower() == "wal"
            indexes = {
                row[1] for row in store._conn.execute("PRAGMA index_list(results)")
            }
            assert "results_key_covering" in indexes
            # record fetches by key are answered from the covering index
            # alone (no table-row fetch) — the query ResultStore.get runs
            (plan,) = store._conn.execute(
                "EXPLAIN QUERY PLAN SELECT record FROM results "
                "INDEXED BY results_key_covering WHERE key = 'x'"
            ).fetchall()
            assert "COVERING INDEX results_key_covering" in plan[-1]

    def test_write_throughput_sustains_streamed_drains(self, tmp_path):
        """Streamed single-record writes must keep up with a draining lane
        pack: 200 writes well under a second of SQLite work apiece. The
        bound is deliberately loose (CI disks fsync slowly); it exists to
        catch a reintroduced full-database sync per write, which is an
        order of magnitude off."""
        n = 200
        with ResultStore(tmp_path / "s") as store:
            start = time.perf_counter()
            for seed in range(n):
                store.add(_trial(seed), _result(0.1))
            elapsed = time.perf_counter() - start
            assert len(store) == n
        writes_per_s = n / elapsed
        assert writes_per_s > 20, f"store writes too slow: {writes_per_s:.1f}/s"

    def test_lines_carry_matching_crc(self, tmp_path):
        from repro.campaigns.store import _line_crc

        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result(0.1))
            store.add(_trial(1), _result(0.2))
        for line in (directory / "results.jsonl").read_text().splitlines():
            payload = json.loads(line)
            assert payload["crc"] == _line_crc(payload)

    def test_crc_mismatch_skipped_with_warning_and_counter(
        self, tmp_path, caplog
    ):
        import logging

        import repro.telemetry as telemetry

        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result(0.1))
            store.add(_trial(1), _result(0.2))
        log = directory / "results.jsonl"
        first, second = log.read_text().splitlines()
        # valid JSON, wrong content for its CRC: bit rot, not a torn write
        log.write_text(first.replace('"degradation": 0.1', '"degradation": 9.9')
                       + "\n" + second + "\n")
        (directory / "index.sqlite").unlink()
        corrupt = telemetry.METRICS.counter("store.corrupt_lines").value
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.store"):
            with ResultStore(directory) as store:
                assert len(store) == 1
                assert _trial(1).key in store and _trial(0).key not in store
        assert any("CRC mismatch" in r.message for r in caplog.records)
        assert telemetry.METRICS.counter("store.corrupt_lines").value > corrupt

    def test_legacy_lines_without_crc_still_load(self, tmp_path):
        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.add(_trial(0), _result(0.1))
        log = directory / "results.jsonl"
        payload = json.loads(log.read_text())
        del payload["crc"]
        log.write_text(json.dumps(payload) + "\n")
        (directory / "index.sqlite").unlink()
        with ResultStore(directory) as store:
            assert len(store) == 1

    def test_fsync_opt_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
        with ResultStore(tmp_path / "s") as store:
            assert store._fsync is False
            store.add(_trial(0), _result(0.1))  # still flushed, just not synced
        with ResultStore(tmp_path / "s") as store:
            assert len(store) == 1

    def test_quarantine_round_trip_and_partial_clear(self, tmp_path):
        directory = tmp_path / "s"
        with ResultStore(directory) as store:
            store.quarantine(_trial(0), {"error": "E0", "kind": "transient",
                                         "attempts": 3})
            store.quarantine(_trial(1), {"error": "E1", "kind": "deterministic",
                                         "attempts": 3})
            assert store.quarantined_keys() == {_trial(0).key, _trial(1).key}
            assert store.clear_quarantine({_trial(0).key}) == 1
            assert store.quarantined_keys() == {_trial(1).key}
        # survives reopen and index rebuild, like results
        (directory / "index.sqlite").unlink()
        with ResultStore(directory) as store:
            assert store.quarantined_keys() == {_trial(1).key}
            (record,) = store.quarantined_records()
            assert record["failure"]["kind"] == "deterministic"
            assert "ts" in record["failure"]


class TestExecutor:
    def test_lane_packer_never_loads_a_checkpoint(
        self, opt_bundle, llama_bundle, monkeypatch
    ):
        """Packing reads model configs from ``ZOO_SPECS``; it used to reload
        the whole checkpoint once per trial just to read ``.config``."""
        import repro.training.zoo as zoo
        from repro.campaigns.lanes import LanePacker

        trials = _small_spec(
            models=("opt-mini", "llama-mini"),
            sites=(
                SiteSpec.only(components=["K"], stages=["prefill"]),
                SiteSpec.only(components=["O"], layers=[1]),
            ),
            seeds=tuple(range(50)),
        ).expand()
        bundles = {"opt-mini": opt_bundle, "llama-mini": llama_bundle}
        expected = LanePacker(config_for=lambda m: bundles[m].config).pack(trials)
        monkeypatch.setattr(
            zoo, "get_pretrained", lambda *a, **k: pytest.fail("checkpoint loaded")
        )
        packs = LanePacker().pack(trials)
        assert len(trials) == 200
        assert [[t.key for t in p] for p in packs] == [
            [t.key for t in p] for p in expected
        ]

    def test_evaluate_trial_matches_direct_run(self, opt_evaluator):
        from repro.errors.injector import ErrorInjector

        trial = _trial(seed=3)
        result = evaluate_trial(trial, opt_evaluator)
        injector = ErrorInjector(
            BitFlipModel(1e-3, bits=(30,)),
            SiteFilter.only(components=[Component.O], stages=[Stage.PREFILL]),
            seed=3,
        )
        expected = opt_evaluator.run(injector)
        assert result.score == pytest.approx(expected)
        assert result.degradation == pytest.approx(opt_evaluator.degradation(expected))
        assert result.injected_errors == injector.stats.injected_errors

    def test_serial_campaign_and_dedup(self, tmp_path, opt_bundle):
        spec = _small_spec()
        with ResultStore(tmp_path / "c") as store:
            first = run_campaign(spec, store, workers=0)
            assert (first.executed, first.cached) == (2, 0)
            again = run_campaign(spec, store, workers=0)
            assert (again.executed, again.cached) == (0, 2)

    def test_resume_skips_completed_trials(self, tmp_path, opt_bundle):
        full = _small_spec(seeds=(0, 1, 2))
        partial = _small_spec(seeds=(0,))
        with ResultStore(tmp_path / "c") as store:
            run_campaign(partial, store, workers=0)
            report = run_campaign(full, store, workers=0)
            assert (report.executed, report.cached) == (2, 1)

    def test_early_stopping_skips_stable_cells(self, tmp_path, opt_bundle):
        spec = _small_spec(
            seeds=tuple(range(6)),
            stopping=StoppingPolicy(min_seeds=2, rel_tol=10.0, abs_tol=10.0),
        )
        with ResultStore(tmp_path / "c") as store:
            report = run_campaign(spec, store, workers=0)
        assert report.executed == 2
        assert report.skipped == 4
        assert report.stopped_cells == 1

    def test_stopping_decision_survives_resume(self, tmp_path, opt_bundle):
        spec = _small_spec(
            seeds=tuple(range(6)),
            stopping=StoppingPolicy(min_seeds=2, rel_tol=10.0, abs_tol=10.0),
        )
        with ResultStore(tmp_path / "c") as store:
            run_campaign(spec, store, workers=0)
            report = run_campaign(spec, store, workers=0)
            assert (report.executed, report.cached, report.skipped) == (0, 2, 4)

    def test_parallel_campaign(self, tmp_path, opt_bundle):
        spec = _small_spec(seeds=(0, 1, 2, 3))
        with ResultStore(tmp_path / "c") as store:
            report = run_campaign(spec, store, workers=2)
            assert report.executed == 4
            assert run_campaign(spec, store, workers=2).cached == 4

    def test_method_axis(self, tmp_path, opt_bundle):
        spec = _small_spec(methods=("none", "classical-abft", "dmr"))
        with ResultStore(tmp_path / "c") as store:
            report = run_campaign(spec, store, workers=0)
            assert report.executed == 6
            by_method = {}
            for record in store.records():
                by_method.setdefault(record.trial.method, []).append(record)
        # exact-correction baselines report the fault-free metric
        for record in by_method["dmr"]:
            assert record.result.degradation == pytest.approx(0.0)

    def test_end_to_end_mini_campaign(self, tmp_path, opt_bundle):
        """Serial mini-campaign on opt-mini: 2 components x 2 BERs x 2 seeds."""
        spec = CampaignSpec(
            name="mini-e2e",
            models=("opt-mini",),
            sites=(
                SiteSpec.only(components=["O"], stages=["prefill"]),
                SiteSpec.only(components=["K"], stages=["prefill"]),
            ),
            errors=tuple(ErrorSpec.bitflip(b, bits=(30,)) for b in (1e-3, 1e-2)),
            seeds=(0, 1),
        )
        with ResultStore(tmp_path / "c") as store:
            report = run_campaign(spec, store, workers=0)
            assert (report.total, report.executed, report.failed) == (8, 8, 0)
            summaries = aggregate(store, spec)
        assert len(summaries) == 4
        assert all(s.n == 2 for s in summaries)
        worst = {s.trial.site.components[0]: s.mean_degradation for s in summaries
                 if s.trial.error.ber == 1e-2}
        # paper Insight 1 still visible through the campaign path
        assert worst["O"] > worst["K"]


class TestReport:
    def _fill(self, store):
        store.add(_trial(0), _result(0.2))
        store.add(_trial(1), _result(0.4))
        store.add(_trial(0, component="K"), _result(0.0))

    def test_aggregate_statistics(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            self._fill(store)
            summaries = aggregate(store)
        assert len(summaries) == 2
        o_cell = next(s for s in summaries if s.site.startswith("O"))
        assert o_cell.n == 2
        assert o_cell.mean_degradation == pytest.approx(0.3)
        assert o_cell.std_degradation == pytest.approx(math.sqrt(0.02))
        assert o_cell.stderr == pytest.approx(math.sqrt(0.02 / 2))
        assert o_cell.max_degradation == 0.4

    def test_aggregate_filters_by_spec(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            self._fill(store)
            store.add(_trial(9, ber=0.5), _result(9.9))  # outside the spec grid
            spec = _small_spec(
                sites=(SiteSpec.only(components=["O"], stages=["prefill"]),)
            )
            summaries = aggregate(store, spec)
        assert len(summaries) == 1 and summaries[0].n == 2

    def test_report_and_status_tables(self, tmp_path):
        spec = _small_spec(
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            seeds=(0, 1, 2),
        )
        with ResultStore(tmp_path / "s") as store:
            self._fill(store)
            report = report_table(store, spec)
            status = status_table(spec, store)
        assert "O/prefill" in report and "bitflip:0.001" in report
        assert "2/3" in status and "partial" in status

    def test_export_csv(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            self._fill(store)
            rows = export_csv(store, tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert rows == 3 and len(lines) == 4
        assert lines[0].startswith("key,cell,model,task,site,error")


class TestCampaignCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = _small_spec(name="cli-camp")
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        return path

    def test_example_emits_valid_spec(self, capsys):
        from repro.cli import main

        assert main(["campaign", "example"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = CampaignSpec.from_dict(payload)
        assert spec.n_trials == 18

    def test_run_status_report(self, spec_file, tmp_path, opt_bundle, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--spec", str(spec_file), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        assert main(["campaign", "run", "--spec", str(spec_file), "--store", store]) == 0
        assert "2 cached, 0 executed" in capsys.readouterr().out
        assert main(["campaign", "status", "--spec", str(spec_file), "--store", store]) == 0
        assert "2/2" in capsys.readouterr().out
        csv_path = str(tmp_path / "out.csv")
        assert main(["campaign", "report", "--spec", str(spec_file),
                     "--store", store, "--csv", csv_path]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_report_costs_flag(self, tmp_path, opt_bundle, capsys):
        from repro.cli import main
        from repro.dispatch import CostSpec

        spec = _small_spec(name="cli-cost-camp", seeds=(0,), cost=CostSpec(size=32))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "--spec", str(spec_file), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--spec", str(spec_file),
                     "--store", store]) == 0
        assert "cycles" not in capsys.readouterr().out
        csv_path = str(tmp_path / "out.csv")
        assert main(["campaign", "report", "--spec", str(spec_file),
                     "--store", store, "--costs", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "energy (uJ)" in out
        header, row = Path(csv_path).read_text().strip().splitlines()[:2]
        cycles = int(row.split(",")[header.split(",").index("cycles")])
        assert cycles > 0
