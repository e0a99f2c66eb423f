"""Self-test of the benchmark: a one-second smoke of every workload.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For each workload in ``BENCHMARK.json`` it runs ``run.py`` untraced and
traced, and asserts that the run is correct and emits exactly the metrics
the file names, each with its unit. On ``mc-serial`` it also asserts that
calibration and protection stay at zero, and that the reference-digest
gate fails a run whose store has one score nudged (``--perturb``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def check_metrics(out: dict, expected: list[dict], label: str) -> None:
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, label
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (label, out)
    names = {m["name"] for m in expected}
    assert set(out["metrics"]) == names, (label, set(out["metrics"]) ^ names)
    for metric in expected:
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (label, metric["name"], emitted)
        assert isinstance(emitted["value"], (int, float)), (label, metric["name"])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        traced = run(workload, 1)
        check_metrics(traced, bench["per_layer"], f"{workload} traced")
        if workload == "mc-serial":
            layers = traced["metrics"]
            assert layers["realm.calibrate.calls"]["value"] == 0, layers
            assert layers["dispatch.protect.s"]["value"] == 0, layers
        print(f"{workload}: metrics ok", flush=True)
    perturbed = run("mc-serial", 0, "--perturb")
    assert not perturbed["correct"] and perturbed["failed"] >= 1, perturbed
    print("digest gate trips on a perturbed score: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
