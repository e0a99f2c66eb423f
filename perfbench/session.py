"""One benchmark session: set up, warm up, run timed rounds, check them.

``run.py`` starts this script in a fresh interpreter, once per role:

- ``prepare`` checks the zoo checkpoints (training them, untimed, when
  missing or invalid) and reports the host facts;
- ``probe`` sets up and exits, so ``run.py`` can time set-up several times;
- ``main`` sets up, then computes the reference store, runs timed rounds
  until ``--seconds`` have passed and checks every round's store against
  the reference.

Set-up ends when this process prints its ``{"ready": ...}`` line. It covers
import, zoo load, quantization, calibration and clean-trace recording,
brought about by a warm-up campaign on seeds disjoint from the timed ones;
on the fabric route also broker bind, worker spawn and registration. The
pool route warms up serially in this process, so the forked pool workers
inherit its calibrated engines, and then once through the pool.

Each line on stdout is one JSON object; logs go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import mean, median

from hostspeed import REFERENCE_S, probe_seconds
from workloads import MODELS, WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Seconds a fabric worker may take to drain after SIGTERM.
WORKER_DEADLINE_S = 30.0
#: Seconds one campaign may run before the session gives up on it.
CAMPAIGN_DEADLINE_S = 120.0


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


# ------------------------------------------------------------------ routes
class LocalRoute:
    """``run_campaign`` in this process: serial, or a supervised pool."""

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def run(self, spec, store_dir: Path, run_id: str = "", traced: bool = False,
            lane_width: int | None = None):
        """Run ``spec`` into a fresh store; returns (report, (start, end)).

        ``run_id`` and ``traced`` are unused here: forked pool workers
        inherit the tracer and its run id from this process."""
        from repro.campaigns.executor import run_campaign
        from repro.campaigns.lanes import DEFAULT_MAX_LANES
        from repro.campaigns.store import ResultStore

        with ResultStore(store_dir) as store:
            start = time.perf_counter()
            report = run_campaign(
                spec, store, workers=self.workers,
                lane_width=lane_width or DEFAULT_MAX_LANES,
            )
            end = time.perf_counter()
        return report, (start, end)

    def close(self) -> None:
        pass


class FabricRoute:
    """A fresh in-process broker per campaign plus long-lived workers.

    The workers run ``fabric_worker.py``: each reads one order per campaign
    (broker URL, run id, trace flag) from stdin, serves that broker until
    SIGTERM drains it, then answers ``{"done": rc}``. A worker whose broker
    has gone keeps retrying, so the route drains every worker after each
    campaign and fails if one does not stop within the deadline.
    """

    def __init__(self, log_dir: Path, trace_dir: Path) -> None:
        self.workers: list[subprocess.Popen] = []
        self.replies: list[queue.Queue] = []
        self._logs = []
        try:
            for i in range(WORKERS):
                log = open(log_dir / f"worker-{i}.log", "w")
                self._logs.append(log)
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "fabric_worker.py"),
                     f"bench-{i}", str(trace_dir)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                    text=True,
                )
                self.workers.append(proc)
                replies: queue.Queue = queue.Queue()
                threading.Thread(
                    target=self._read, args=(proc, replies), daemon=True
                ).start()
                self.replies.append(replies)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _read(proc: subprocess.Popen, replies: queue.Queue) -> None:
        for line in proc.stdout:
            replies.put(line)
        replies.put(None)

    def run(self, spec, store_dir: Path, run_id: str = "", traced: bool = False,
            lane_width: int | None = None, on_done=None):
        """As :meth:`LocalRoute.run`; ``on_done`` is called as soon as the
        campaign has finished, before the workers are drained."""
        from repro.campaigns.supervise import SuperviseConfig
        from repro.fabric import BrokerConfig, FabricBroker

        broker = FabricBroker(
            store_dir, BrokerConfig(local_workers=0), supervise=SuperviseConfig()
        ).start()
        try:
            # Submit first: a worker that polls a broker with no campaign yet
            # is told to come back in 0.5 s, and whether it polled before or
            # after the submit would decide the round's first half second.
            start = time.perf_counter()
            broker.submit(spec, lane_width=lane_width)
            order = json.dumps({"url": broker.url, "run": run_id, "trace": traced})
            for proc in self.workers:
                proc.stdin.write(order + "\n")
                proc.stdin.flush()
            report = broker.wait(spec.name, timeout=CAMPAIGN_DEADLINE_S)
            end = time.perf_counter()
            if on_done is not None:
                on_done()
        finally:
            try:
                self._drain()
            finally:
                broker.stop()
        return report, (start, end)

    def _drain(self) -> None:
        for proc in self.workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + WORKER_DEADLINE_S
        for replies in self.replies:
            try:
                line = replies.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("a fabric worker did not drain after SIGTERM")

    def close(self) -> None:
        """End every worker; fail if one outlives the deadline."""
        for proc in self.workers:
            if proc.stdin and not proc.stdin.closed:
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
        stuck = []
        deadline = time.monotonic() + WORKER_DEADLINE_S
        for proc in self.workers:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                stuck.append(proc.pid)
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()
        if stuck:
            raise RuntimeError(f"fabric workers {stuck} outlived their deadline")


# ------------------------------------------------------------------ checks
def store_digest(store_dir: Path) -> tuple[str, dict[str, str]]:
    """Canonical digest of a store's durable log.

    The index is rebuilt from ``results.jsonl`` first, so the digest covers
    what reached disk. ``elapsed_s`` and ``worker`` are zeroed; everything
    else — scores, injector statistics, modeled cycles and energy, backend —
    is compared.
    """
    from repro.campaigns.store import ResultStore

    for name in ("index.sqlite", "index.sqlite-wal", "index.sqlite-shm"):
        (store_dir / name).unlink(missing_ok=True)
    canonical = {}
    with ResultStore(store_dir, create=False) as store:
        for record in store.records():
            result = record.result.to_dict()
            result["elapsed_s"] = 0.0
            result["worker"] = 0
            canonical[record.key] = json.dumps(
                [record.trial.to_dict(), result], sort_keys=True
            )
    digest = hashlib.sha256()
    for key in sorted(canonical):
        digest.update(key.encode())
        digest.update(canonical[key].encode())
    return digest.hexdigest(), canonical


def perturb_one_score(store_dir: Path) -> None:
    """Rewrite a store with its first record's score nudged (self-test)."""
    from repro.campaigns.store import ResultStore

    with ResultStore(store_dir, create=False) as store:
        records = store.records()
    shutil.rmtree(store_dir)
    with ResultStore(store_dir) as store:
        for i, record in enumerate(records):
            result = record.result
            if i == 0:
                result = dataclasses.replace(result, score=result.score + 1e-9)
            store.add(record.trial, result)


def copy_seeds(source: Path, dest: Path, seeds: set[int]) -> None:
    """A new store holding the records of ``source`` whose seed is in ``seeds``."""
    from repro.campaigns.store import ResultStore

    with ResultStore(source, create=False) as src, ResultStore(dest) as dst:
        for record in src.records():
            if record.trial.seed in seeds:
                dst.add(record.trial, record.result)


def failures(report) -> int:
    return report.failed + report.quarantined


def scaled_rate(rounds: list[dict]) -> float:
    """Executed trials ÷ timed wall time over ``rounds``, scaled to the
    reference host speed by the mean of the probes taken around them.

    One probe reads a sub-second slice of a host whose speed swings by a
    third from one second to the next; the mean over the whole run is a
    steadier measure of its speed than the two probes next to one round.
    """
    executed = sum(r["executed"] for r in rounds)
    wall = sum(r["window"][1] - r["window"][0] for r in rounds)
    probe = mean(p for r in rounds for p in r["probe_s"])
    return executed / wall * probe / REFERENCE_S


# ------------------------------------------------------------------- roles
def prepare() -> dict:
    """Check (and if needed warm) the zoo checkpoints; report host facts."""
    import os
    import platform

    import numpy

    from repro.dispatch.backends import resolve_backend
    from repro.training.zoo import cache_dir, get_pretrained

    zoo = {}
    for name in MODELS:
        def stamp():
            return {
                str(p): p.stat().st_mtime_ns
                for p in cache_dir().glob(f"zoo-{name}-*.npz")
            }

        before = stamp()
        get_pretrained(name)  # loads a valid checkpoint, else trains and caches it
        zoo[name] = {"present": bool(before), "warmed": stamp() != before}
    backend = resolve_backend(None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gemm_backend": backend.name,
        "gemm_kernel": backend.kernel(),
        "zoo": zoo,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prepare", "probe", "main"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    import repro.campaigns.executor  # noqa: F401
    import repro.campaigns.store  # noqa: F401
    if workload.route == "fabric":
        import repro.fabric  # noqa: F401
    import_s = time.perf_counter() - start

    if args.role == "prepare":
        emit({"facts": prepare()})
        return 0

    trace_dir = args.out / "trace"
    stores = Path(tempfile.mkdtemp(prefix="stores-", dir=args.out))
    serial = LocalRoute(0)
    route = None
    def ready() -> None:
        emit({"ready": True, "import_s": import_s})

    try:
        warmup = workload.spec(workload.warmup_seeds(args.seed), "warmup")
        if workload.route == "fabric":
            # Set-up ends with the warm-up campaign; draining the workers
            # afterwards is this harness's cost, not the program's.
            route = FabricRoute(args.out, trace_dir)
            route.run(warmup, stores / "warmup", run_id="warmup", lane_width=1,
                      on_done=ready)
        else:
            route = LocalRoute(WORKERS if workload.route == "pool" else 0)
            serial.run(warmup, stores / "warmup")
            if workload.route == "pool":
                route.run(warmup, stores / "warmup-pool")
            ready()
        if args.role == "probe":
            return 0
        result = measure(args, workload, route, serial, stores, trace_dir)
        result["import_s"] = import_s
        emit({"result": result})
        return 0
    finally:
        try:
            if route is not None:
                route.close()
        finally:
            shutil.rmtree(stores, ignore_errors=True)


def measure(args, workload, route, serial, stores: Path, trace_dir: Path) -> dict:
    import repro.telemetry as telemetry
    from tracing import Tracer, layer_metrics

    seeds = workload.seeds(args.seed)
    spec = workload.spec(seeds, f"{workload.name}-s{args.seed}")

    # Reference: the per-trial route, serial with one lane, computed once.
    reference_report, _ = serial.run(spec, stores / "reference", lane_width=1)
    if failures(reference_report):
        raise RuntimeError(f"reference run failed: {reference_report.summary()}")
    reference, reference_records = store_digest(stores / "reference")
    template = None
    if workload.route == "fabric":
        template = stores / "template"
        copy_seeds(stores / "reference", template, set(seeds[::2]))

    tracer = Tracer(trace_dir) if args.trace else None
    requeues = telemetry.METRICS.counter("supervise.requeues")
    rounds = []
    probes = [probe_seconds(processes=workload.cpus)]
    begin = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        run_id = f"{workload.name}-s{args.seed}-r{index}"
        store_dir = stores / f"round-{index}"
        if template is not None:
            shutil.copytree(template, store_dir)
        requeues_before = requeues.value
        if traced:
            tracer.install(run_id)
        try:
            report, window = route.run(spec, store_dir, run_id=run_id, traced=traced)
        finally:
            if traced:
                tracer.uninstall()
                tracer.flush()
        if args.perturb and index == 0:
            perturb_one_score(store_dir)
        digest, records = store_digest(store_dir)
        mismatched = sum(
            records.get(key) != reference_records.get(key)
            for key in set(records) | set(reference_records)
        )
        shutil.rmtree(store_dir)
        probes.append(probe_seconds(processes=workload.cpus))
        raw = report.executed / (window[1] - window[0])
        rounds.append({
            "run": run_id,
            "traced": traced,
            "window": window,
            "executed": report.executed,
            "cached": report.cached,
            "failed": failures(report),
            "mismatched": mismatched,
            "digest": digest,
            "requeues": requeues.value - requeues_before,
            "probe_s": probes[-2:],
            "raw_trials_per_s": raw,
            "trials_per_s": raw * (probes[-2] + probes[-1]) / 2 / REFERENCE_S,
        })
        done = time.perf_counter() - begin >= args.seconds
        if done and len(rounds) >= (2 if tracer else 1):
            break

    untraced = [r for r in rounds if not r["traced"]]
    attempted = sum(r["executed"] + r["failed"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": all(r["digest"] == reference and not r["failed"] for r in rounds),
        "attempted": attempted,
        "failed": failed + sum(r["mismatched"] for r in rounds),
        "trials_per_s": scaled_rate(untraced),
        "trial_fail_frac": failed / attempted,
        "reference_digest": reference,
        "rounds": rounds,
    }
    if tracer is not None:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = layer_metrics(
            trace_dir, {r["run"]: r["window"] for r in traced_rounds},
            campaign_pid=tracer.owner_pid,
        )
        layers["pool.requeues"] = median(r["requeues"] for r in traced_rounds)
        layers["trace.overhead_frac"] = 1.0 - (
            scaled_rate(traced_rounds) / result["trials_per_s"]
        )
        result["layers"] = layers
    return result


if __name__ == "__main__":
    sys.exit(main())
