"""Campaign ledger: end-to-end trials/sec on three fixed campaigns.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Every timed round's
store is checked against a reference computed by the per-trial route; a
mismatch reads ``"correct": false``. ``trials_per_s`` and ``setup_s`` are
scaled to a reference host speed (``hostspeed.py``).

This script never imports the program. It pins the environment, then runs
``session.py`` in fresh interpreters: once to check the zoo checkpoints and
record host facts, then three to five times to time set-up, the last of
which goes on to the timed rounds. Logs, fabric worker logs, spans and a
``details.json`` (digests, per-round numbers, host facts) are kept under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import queue
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from hostspeed import REFERENCE_S, probe_seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median. A run
#: takes at least ``SETUP_SAMPLES``, and more, up to ``SETUP_SAMPLES_MAX``,
#: while those so far took less than ``SETUP_BUDGET_S`` together.
SETUP_SAMPLES = 3
SETUP_SAMPLES_MAX = 5
SETUP_BUDGET_S = 10.0
#: Limit on the checkpoint check, which trains the zoo models in a fresh
#: checkout, and on the rest of the run after it, in seconds.
PREPARE_DEADLINE_S = 600.0
RUN_DEADLINE_S = 170.0
#: Seconds orphaned descendants get to end once the sessions have ended.
ORPHAN_DEADLINE_S = 5.0
#: ``prctl`` option that makes this process the parent of orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Environment variables that change what a campaign executes or how it is
#: stored; they are cleared so the program runs with its defaults.
CLEARED_ENV = (
    "REPRO_CHAOS", "REPRO_GEMM_BACKEND", "REPRO_NO_REPLAY",
    "REPRO_TRACE_CACHE_MB", "REPRO_TELEMETRY", "REPRO_STORE_FSYNC",
    "REPRO_AUTOTUNE_CACHE", "REPRO_LOG_LEVEL",
)

END_TO_END_UNITS = {
    "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "trial_ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name == "trace.coverage":
        return "ratio"
    return {
        "lanes.trials_per_pack": "trials/pack",
        "gemm.macs": "MAC",
        "gemm.bytes": "B-computed",
    }.get(name, "count")


#: Set for every process of a run. One BLAS thread per process: with more,
#: the 2 pool or fabric workers oversubscribe a 2-CPU host and round times
#: scatter.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["REPRO_CACHE"] = str(ROOT / ".bench_build" / "repro-cache")
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Session:
    """One ``session.py`` subprocess with a line reader on its stdout."""

    def __init__(self, role: str, args, out: Path, env: dict) -> None:
        self.role = role
        out.mkdir()
        self.log_path = out / "session.log"
        command = [
            sys.executable, str(HERE / "session.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out),
        ]
        if args.perturb:
            command.append("--perturb")
        self.started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            )
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, key: str, deadline: float):
        """The next stdout object, which must carry ``key``; returns
        (object, seconds since the process was started)."""
        try:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RuntimeError(f"{self.role} session timed out") from None
        elapsed = time.perf_counter() - self.started
        if line is None:
            raise RuntimeError(f"{self.role} session ended without {key!r}")
        payload = json.loads(line)
        if key not in payload:
            raise RuntimeError(f"{self.role} session sent {line.strip()!r}")
        return payload, elapsed

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{self.role} session timed out") from None
        if code != 0:
            raise RuntimeError(f"{self.role} session exited with {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    A session that publishes shared memory starts multiprocessing's resource
    tracker; when the session exits the tracker outlives it for a moment.
    Adopted, it is waited for by :func:`reap_orphans` rather than left to
    init.
    """
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)


def reap_orphans() -> None:
    """Wait until every child has ended; kill those left at the deadline."""
    deadline = time.monotonic() + ORPHAN_DEADLINE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for child in children():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def children() -> list[int]:
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry.name))
    return found


def measure(args, run_dir: Path) -> tuple[dict, dict]:
    env = pinned_env()
    sessions: list[Session] = []
    probes: list[float] = []

    def start(role: str) -> Session:
        probes.append(probe_seconds())
        session = Session(role, args, run_dir / f"{len(sessions)}-{role}", env)
        sessions.append(session)
        return session

    try:
        prep = start("prepare")
        deadline = time.monotonic() + PREPARE_DEADLINE_S
        facts = prep.expect("facts", deadline)[0]["facts"]
        prep.finish(deadline)
        deadline = time.monotonic() + RUN_DEADLINE_S
        raw_setups, imports = [], []
        # Set-up is timed again in throwaway sessions; the traced run reports
        # no set-up time, so it skips them.
        while args.trace == 0 and len(raw_setups) < SETUP_SAMPLES_MAX - 1 and (
            len(raw_setups) < SETUP_SAMPLES - 1 or sum(raw_setups) < SETUP_BUDGET_S
        ):
            sample = start("probe")
            ready, elapsed = sample.expect("ready", deadline)
            sample.finish(deadline)
            raw_setups.append(elapsed)
            imports.append(ready["import_s"])
        main = start("main")
        ready, elapsed = main.expect("ready", deadline)
        raw_setups.append(elapsed)
        imports.append(ready["import_s"])
        result = main.expect("result", deadline)[0]["result"]
        main.finish(deadline)
    except BaseException:
        for session in sessions:
            session.kill()
        raise

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # One probe per session start; their median, not the probe next to each
    # sample, scales set-up: a single probe is as noisy as a single set-up.
    setup_s = median(raw_setups) * REFERENCE_S / median(probes)
    if args.trace == 0:
        values = {
            "trials_per_s": result["trials_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": max(own, children) / 1024.0,
            "trial_ok_frac": 1.0 - result["trial_fail_frac"],
        }
        metrics = {
            name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS
        }
    else:
        layers = dict(result["layers"])
        layers["import.s"] = median(imports)
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(layers.items())
        }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": facts, "setup_s": setup_s, "raw_setup_samples_s": raw_setups,
        "import_samples_s": imports,
        "host_probe_s": probes, "host_probe_reference_s": REFERENCE_S,
        "env_cleared": list(CLEARED_ENV), "env_pinned": PINNED_ENV, **result,
    }
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return summary, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--perturb", action="store_true",
        help="self-test only: nudge one stored score before the check",
    )
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = (
        ROOT / ".bench_build" / "perfbench"
        / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    )
    run_dir.mkdir(parents=True)
    (ROOT / ".bench_build" / "tmp").mkdir(exist_ok=True)
    adopt_orphans()
    try:
        summary, details = measure(args, run_dir)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}; logs in {run_dir}", file=sys.stderr)
        for log in sorted(run_dir.glob("*/*.log")):
            tail = log.read_text().splitlines()[-15:]
            print(f"--- {log.relative_to(run_dir)}", *tail, sep="\n", file=sys.stderr)
        return 1
    finally:
        reap_orphans()
    (run_dir / "details.json").write_text(json.dumps(details, indent=2))
    print(json.dumps({"details": str(run_dir / "details.json"),
                      "reference_digest": details["reference_digest"],
                      "host": details["host"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
