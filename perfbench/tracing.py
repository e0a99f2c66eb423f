"""Layer spans for the campaign ledger, recorded from outside the program.

:class:`Tracer` patches the public entry points of each layer (see
:data:`LAYERS`) with wrappers that record a span — name, start, end, self
time, parent, run id — into an in-memory buffer. Nothing under ``src/``
changes: the wrappers are installed just before a traced campaign and the
original attributes are put back right after it, so an untraced campaign
runs the program exactly as shipped.

Processes:

- the benchmark process writes its buffer out with :meth:`Tracer.flush`;
- a forked pool worker inherits the wrappers and the run id, starts with an
  empty buffer, and flushes whenever its outermost span closes (once per
  lane pack), because pool workers exit without running ``atexit``;
- a fabric worker is started from ``fabric_worker.py``, which builds its own
  tracer and flushes after each campaign.

Each flush appends one JSON line ``{"run", "pid", "spans", "counts"}`` to
``spans-<pid>.jsonl`` in the trace directory; :func:`layer_metrics` turns
those files into the per-layer numbers. ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so span times from different
processes share one time base.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Callable, Optional

#: (module, class or None, attribute, span name, mode). ``mode`` selects
#: what the wrapper records besides the span: "span" records nothing more;
#: "pack", "gemm" and "send" add the fields :meth:`Tracer._annotate` sets;
#: "inspect" records no span, only call and detection counts.
LAYERS: tuple[tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.campaigns.spec", "CampaignSpec", "expand", "spec.expand", "span"),
    ("repro.campaigns.lanes", "LanePacker", "pack", "lanes.pack", "pack"),
    ("repro.campaigns.lanes", None, "evaluate_lane_pack", "lanes.evaluate", "span"),
    ("repro.campaigns.executor", None, "evaluate_trial", "lanes.evaluate", "span"),
    ("repro.training.zoo", None, "get_pretrained", "zoo.load", "span"),
    ("repro.characterization.evaluator", "ModelEvaluator", "__init__", "evaluator.init", "span"),
    ("repro.characterization.evaluator", "ModelEvaluator", "run", "evaluator.run", "span"),
    ("repro.core.realm", "ReaLMPipeline", "calibrate", "realm.calibrate", "span"),
    ("repro.models.quantized", "GemmExecutor", "dispatch", "engine.dispatch", "span"),
    ("repro.models.quantized", "GemmExecutor", "replay_call", "engine.replay_call", "span"),
    ("repro.models.quantized", "QuantizedTransformerLM", "decode_step", "engine.decode_step", "span"),
    ("repro.dispatch.pipeline", "QuantizeInstrument", "before", "dispatch.quantize", "span"),
    ("repro.dispatch.pipeline", "InjectInstrument", "before", "dispatch.inject", "span"),
    ("repro.dispatch.pipeline", "InjectInstrument", "after", "dispatch.inject", "span"),
    ("repro.dispatch.pipeline", "InjectInstrument", "replay", "dispatch.inject", "span"),
    ("repro.dispatch.pipeline", "ProtectInstrument", "before", "dispatch.protect", "span"),
    ("repro.dispatch.pipeline", "ProtectInstrument", "after", "dispatch.protect", "span"),
    ("repro.dispatch.pipeline", "ProtectInstrument", "replay", "dispatch.protect", "span"),
    ("repro.dispatch.cost", "CostInstrument", "after", "dispatch.cost", "span"),
    ("repro.dispatch.cost", "CostInstrument", "replay", "dispatch.cost", "span"),
    ("repro.dispatch.cost", "LaneCostInstrument", "after", "dispatch.cost", "span"),
    ("repro.dispatch.cost", "LaneCostInstrument", "replay", "dispatch.cost", "span"),
    ("repro.abft.protectors", "Protector", "inspect", "abft.inspect", "inspect"),
    ("repro.errors.injector", "ErrorInjector", "corrupt", "inject.corrupt", "span"),
    ("repro.errors.injector", "LaneInjector", "corrupt", "inject.corrupt", "span"),
    ("repro.campaigns.store", "ResultStore", "add", "store.add", "span"),
    ("repro.campaigns.store", "ResultStore", "get", "store.get", "span"),
    ("repro.campaigns.store", "ResultStore", "write_progress", "store.progress", "span"),
    ("repro.models.sharing", None, "publish_bundle", "pool.publish", "span"),
    ("repro.campaigns.supervise", "SupervisedPool", "next_event", "pool.wait", "span"),
    ("repro.fabric.broker", "FabricRunner", "handle", "fabric.handle", "span"),
    ("repro.fabric.broker", "FabricRunner", "next_event", "fabric.wait", "span"),
    ("repro.fabric.worker", "BrokerTransport", "send", "fabric.send", "send"),
)

#: GEMM kernel entry points, wrapped on every registered backend class.
GEMM_METHODS = ("matmul_f64", "matmul_int32")


class Tracer:
    """Span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.run_id = ""
        self.owner_pid = os.getpid()
        self._installed: list[tuple[object, str, bool, object]] = []
        self._reset_buffers()
        # A forked pool worker keeps the wrappers but must not re-flush the
        # parent's spans; fork events in the parent are the pool's spawns.
        os.register_at_fork(
            after_in_child=self._after_fork_child,
            after_in_parent=self._after_fork_parent,
        )

    # ------------------------------------------------------------ buffers
    def _reset_buffers(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count()
        self._lease_wait_start: Optional[float] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork_child(self) -> None:
        self._reset_buffers()

    def _after_fork_parent(self) -> None:
        if self._installed:
            now = time.perf_counter()
            self._record(next(self._ids), "pool.spawn", now, now, 0.0, None, {})

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _record(self, sid, name, start, end, self_s, parent, extra) -> None:
        self.spans.append(
            [sid, parent, name, start, end, self_s, threading.get_ident(), extra]
        )

    def flush(self) -> None:
        """Append the buffer to this process's span file and clear it."""
        if not self.spans and not self.counts:
            return
        line = json.dumps(
            {"run": self.run_id, "pid": os.getpid(), "spans": self.spans,
             "counts": self.counts}
        )
        with open(self.trace_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counts = {}

    # ----------------------------------------------------------- wrapping
    def _make_wrapper(self, original: Callable, name: str, mode: str) -> Callable:
        tracer = self
        clock = time.perf_counter

        if mode == "inspect":
            def wrapper(*args, **kwargs):
                detected = original(*args, **kwargs)
                tracer.count("abft.inspect.calls")
                if detected:
                    tracer.count("abft.inspect.detected")
                return detected
            return wrapper

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A same-named span directly above (a lane wrapper delegating
            # to its solo form, one backend routing to another) is one call.
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, next(tracer._ids)]  # [name, child seconds, id]
            stack.append(frame)
            error = False
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                extra = {"error": True} if error else {}
                if not error:
                    tracer._annotate(mode, args, result, start, end, extra)
                tracer._record(
                    frame[2], name, start, end, duration - frame[1], parent, extra
                )
                if not stack and os.getpid() != tracer.owner_pid:
                    tracer.flush()
            return result

        return wrapper

    def _annotate(self, mode, args, result, start, end, extra) -> None:
        if mode == "pack":
            extra["packs"] = len(result)
            extra["trials"] = sum(len(pack) for pack in result)
        elif mode == "gemm":
            a_q, b_q = args[1], args[2]
            rows = 1
            for dim in a_q.shape[:-1]:
                rows *= int(dim)
            extra["macs"] = rows * int(a_q.shape[-1]) * int(b_q.shape[-1])
            extra["bytes"] = int(a_q.nbytes + b_q.nbytes + result.nbytes)
        elif mode == "send":
            from repro.fabric import protocol

            msg = args[1]
            if isinstance(msg, protocol.LeaseRequest):
                if self._lease_wait_start is None:
                    self._lease_wait_start = start
                if isinstance(result, protocol.LeaseGrant):
                    self._record(next(self._ids), "fabric.lease_wait",
                                 self._lease_wait_start, end,
                                 end - self._lease_wait_start, None, {})
                    self._lease_wait_start = None

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        had_own = attr in vars(owner)
        self._installed.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def install(self, run_id: str) -> None:
        """Wrap every layer entry point; ``run_id`` tags the spans."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for module_name, class_name, attr, name, mode in LAYERS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                cls = getattr(module, class_name)
                self._patch(cls, attr, self._make_wrapper(getattr(cls, attr), name, mode))
                continue
            # A module function is also bound by name wherever it was
            # imported with ``from ... import``; patch every binding.
            original = getattr(module, attr)
            wrapper = self._make_wrapper(original, name, mode)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    vars(loaded).get(attr) is original
                ):
                    self._patch(loaded, attr, wrapper)
        from repro.dispatch.backends import list_backends

        for cls in {type(backend) for backend in list_backends()}:
            for attr in GEMM_METHODS:
                original = getattr(cls, attr)
                self._patch(cls, attr, self._make_wrapper(original, "gemm", "gemm"))

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        for owner, attr, had_own, original in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = []


# ---------------------------------------------------------------- analysis
def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def load_records(trace_dir: Path) -> list[dict]:
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def _round_metrics(records: list[dict], window: tuple[float, float],
                   campaign_pid: int) -> tuple[dict, list[float]]:
    """Per-layer sums for one traced round, plus its lane-pack durations."""
    t0, t1 = window
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    gemm_macs = gemm_bytes = 0
    send_retries = 0
    lease_wait = 0.0
    evaluate_ms: list[float] = []
    packs = packed_trials = 0
    top_level: list[tuple[float, float]] = []
    for record in records:
        for name, n in record["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for _sid, parent, name, start, end, self_s, _tid, extra in record["spans"]:
            if name == "fabric.lease_wait":
                # Clip: a worker idles before the campaign is submitted.
                lease_wait += max(0.0, min(end, t1) - max(start, t0))
                continue
            if not t0 <= start <= t1:
                continue
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + self_s
            if record["pid"] == campaign_pid and parent is None:
                top_level.append((start, min(end, t1)))
            if name == "lanes.evaluate":
                evaluate_ms.append((end - start) * 1e3)
            elif name == "lanes.pack":
                packs += extra.get("packs", 0)
                packed_trials += extra.get("trials", 0)
            elif name == "gemm":
                gemm_macs += extra.get("macs", 0)
                gemm_bytes += extra.get("bytes", 0)
            elif name == "fabric.send" and extra.get("error"):
                send_retries += 1
    dispatches = calls.get("engine.dispatch", 0)
    replays = calls.get("engine.replay_call", 0)
    inspections = counts.get("abft.inspect.calls", 0)
    out = {
        "spec.expand.calls": calls.get("spec.expand", 0),
        "lanes.packs": packs,
        "lanes.trials_per_pack": packed_trials / packs if packs else 0.0,
        "engine.replay_skip_frac": replays / (dispatches + replays)
        if dispatches + replays else 0.0,
        "abft.inspect.calls": inspections,
        "abft.detect_frac": counts.get("abft.inspect.detected", 0) / inspections
        if inspections else 0.0,
        "gemm.macs": gemm_macs,
        "gemm.bytes": gemm_bytes,
        "pool.spawns": calls.get("pool.spawn", 0),
        "fabric.send.retries": send_retries,
        "fabric.lease_wait.s": lease_wait,
        "trace.coverage": _union_seconds(top_level) / (t1 - t0),
    }
    for name in ("spec.expand", "lanes.pack", "lanes.evaluate", "zoo.load",
                 "evaluator.init", "evaluator.run", "realm.calibrate",
                 "engine.decode_step", "dispatch.quantize", "dispatch.inject",
                 "dispatch.protect", "dispatch.cost", "inject.corrupt", "gemm",
                 "store.add", "store.get", "store.progress", "pool.publish",
                 "pool.wait", "fabric.handle", "fabric.send"):
        out[f"{name}.s"] = busy.get(name, 0.0)
    for name in ("zoo.load", "evaluator.init", "evaluator.run", "realm.calibrate",
                 "engine.dispatch", "engine.replay_call", "engine.decode_step",
                 "inject.corrupt", "gemm", "store.add", "store.get",
                 "store.progress", "fabric.handle", "fabric.send"):
        out[f"{name}.calls"] = calls.get(name, 0)
    return out, evaluate_ms


def layer_metrics(trace_dir: Path, windows: dict[str, tuple[float, float]],
                  campaign_pid: int) -> dict[str, float]:
    """Median over traced rounds of each layer metric.

    ``windows`` maps a round's run id to its timed (start, end); spans that
    start outside the window (warm-up, worker registration, drain) are not
    counted. Lane-pack latency percentiles pool every traced round.
    """
    by_run: dict[str, list[dict]] = {}
    for record in load_records(trace_dir):
        by_run.setdefault(record["run"], []).append(record)
    per_round = []
    evaluate_ms: list[float] = []
    for run_id, window in windows.items():
        metrics, durations = _round_metrics(by_run.get(run_id, []), window, campaign_pid)
        per_round.append(metrics)
        evaluate_ms.extend(durations)
    out = {name: median(m[name] for m in per_round) for name in per_round[0]}
    out["lanes.evaluate.n"] = len(evaluate_ms)
    out["lanes.evaluate.p50_ms"] = _percentile(evaluate_ms, 0.5) if evaluate_ms else 0.0
    out["lanes.evaluate.p90_ms"] = _percentile(evaluate_ms, 0.9) if evaluate_ms else 0.0
    return out
