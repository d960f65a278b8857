"""One pass of an in-process workload, in a fresh interpreter.

Run by ``run.py`` as::

    python3 perfbench/worker.py SPEC_JSON

``SPEC_JSON`` names the workload, seed, mode (``plain``, ``traced`` or
``hub``), the ``time.monotonic()`` reading taken just before the process was
spawned, and the file the pass record is written to.  Set-up time runs from
that reading to the Session being built, so it covers interpreter start and
``import repro``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _hub_pave_seconds(report) -> float:
    metrics = report.metrics
    if metrics is None:
        return 0.0
    return sum(hist.total for (name, _), hist in metrics.histograms.items() if name == "icp_pave_seconds")


def main(spec: dict) -> dict:
    from repro import Session

    workload = spec["workload"]
    # sigma-target runs every query on this Session; paper-30k builds it only
    # to time set-up, then gives each query a fresh one.
    shared = Session(executor="thread", workers=2) if workload == "sigma-target" else Session()
    setup_s = time.monotonic() - spec["spawned_at"]

    import layers
    import workloads

    if workload == "paper-30k":
        operations = workloads.paper_30k_operations(spec["seed"])
    else:
        operations = workloads.sigma_target_operations(spec["seed"])

    installation = layers.install(layers.Tracer()) if spec["mode"] in ("traced", "hub") else None

    records = []
    hub_s = 0.0
    started = time.perf_counter()
    try:
        for operation in operations:
            # A fresh Session is built in the timed region, as a one-off
            # call would build it.
            op_started = time.perf_counter()
            session = shared if workload == "sigma-target" else Session()
            try:
                query = operation.build(session)
                if spec["mode"] == "hub":
                    query = query.with_tracing()
                report = query.run()
            finally:
                if session is not shared:
                    session.close()
            latency = time.perf_counter() - op_started
            hub_s += _hub_pave_seconds(report)
            records.append(
                {
                    "name": operation.name,
                    "latency_s": latency,
                    "mean": report.mean,
                    "std": report.std,
                    "samples": report.total_samples,
                    "truth": operation.truth,
                    "target_missed": operation.needs_target and not report.met_target,
                }
            )
        run_s = time.perf_counter() - started
    finally:
        shared.close()
        if installation is not None:
            installation.uninstall()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if installation is not None:
        result["layers"] = installation.metrics()
    if spec["mode"] == "hub":
        result["hub_icp_s"] = hub_s
    return result


if __name__ == "__main__":
    arguments = json.loads(sys.argv[1])
    outcome = main(arguments)
    with open(arguments["out"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
