"""Fabric worker process of the benchmark's ``fabric-resume`` workload.

Usage: ``python fabric_worker.py WORKER_ID TRACE_DIR`` with ``src`` on
``PYTHONPATH``. Each stdin line is one JSON order
``{"url", "run", "trace"}``: the worker serves the broker at ``url`` with
:meth:`repro.fabric.FabricWorker.run` until SIGTERM drains it, then prints
``{"done": <exit code>}``. With ``trace`` set, the layer wrappers of
``tracing.py`` are installed for that campaign and the spans are flushed
when it ends. The process exits when stdin closes.

Engines, calibrations and clean traces stay cached in this process across
orders, as they do in a ``campaign worker`` that outlives one campaign.
"""

from __future__ import annotations

import ctypes
import json
import signal
import sys
from pathlib import Path

from repro.fabric import FabricWorker, WorkerConfig

from tracing import Tracer


#: ``prctl`` option that sends this process a signal when its parent dies.
PR_SET_PDEATHSIG = 1


def main() -> int:
    worker_id, trace_dir = sys.argv[1], Path(sys.argv[2])
    # A session that dies without draining its workers must not leave one
    # retrying a dead broker forever: SIGTERM drains it and it exits.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    tracer = None
    for line in sys.stdin:
        order = json.loads(line)
        if order["trace"]:
            tracer = tracer or Tracer(trace_dir)
            tracer.install(order["run"])
        worker = FabricWorker(WorkerConfig(url=order["url"], worker_id=worker_id))
        worker.install_signal_handlers()
        try:
            rc = worker.run()
        finally:
            if order["trace"]:
                tracer.uninstall()
                tracer.flush()
        print(json.dumps({"done": rc}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
