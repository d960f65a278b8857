"""The repository benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-30k --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run makes a fixed number of passes over its workload (``--seconds``
buys one pass per ``workloads.PASS_SECONDS``, fewer only if they would
overrun ``--seconds``); each pass runs in a fresh process, so every pass
pays and measures set-up.
With ``--trace 0`` every pass is untraced and the run reports end-to-end
metrics.  With ``--trace 1`` passes alternate untraced and traced (the
traced ones with the wrappers of ``layers.py``) and the run reports
per-layer metrics; on ``paper-30k`` one more pass runs every query with
``Query.with_tracing()`` so the outside ``icp`` time can be compared with
the observability hub's ``icp_pave_seconds``.

Every answer is checked: closed-form subjects must land within 5 sigma of
their truth, sigma-target queries must meet their goal, HTTP statuses must
be 2xx, and every operation's (mean, sigma, samples) must repeat exactly in
every pass of the run (all passes use the same seed).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Persistent state is isolated per pass: ``QCORAL_KERNEL_CACHE_DIR`` points at
a fresh directory inside the run's own directory (``.perfbench_runs/``),
which is removed when the run ends, so every pass compiles its kernels cold.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics (``--trace 0``), with units.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Units of the per-layer metrics (``--trace 1``), by name suffix.
LAYER_UNITS = {
    "self_s": "s",
    "busy_s": "s",
    "wait_s": "s",
    "bytes": "bytes",
    "reuse_ratio": "ratio",
}
EXTRA_LAYER_METRICS = (
    ("unattributed_s", "s"),
    ("attributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("icp.hub_s", "s"),
    ("serve.warm_p50_ms", "ms"),
)
#: How far the outside icp self time may stray from the hub's paving time.
HUB_TOLERANCE = 0.10

PASS_TIMEOUT_S = 150.0
#: Fewest passes a run makes: every answer is checked for repeats, and a
#: traced run needs a traced and an untraced pass.
MIN_PASSES = 2
SERVE_ARGS = ["--host", "127.0.0.1", "--port", "0", "--store-backend", "memory", "--ledger-backend", "memory",
              "--max-concurrent", "2", "--workers", "2"]


def layer_metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric this benchmark reports, with its unit."""
    sample = layers.layer_metrics(layers.Tracer(), {})
    names = [(name, LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")) for name in sample if name != "attributed_s"]
    return names + list(EXTRA_LAYER_METRICS)


class Failure(Exception):
    """A pass that could not produce a result."""


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def _pass_env(run_dir: str, index: int) -> Dict[str, str]:
    # Drop inherited engine settings (kernel tier, disk-cache switches) so
    # every pass runs the defaults.
    env = {name: value for name, value in os.environ.items() if not name.startswith("QCORAL_")}
    source = os.path.abspath("src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    kernels = os.path.join(run_dir, f"kernels-{index}")
    scratch = os.path.join(run_dir, f"tmp-{index}")
    os.makedirs(kernels)
    os.makedirs(scratch)
    env["QCORAL_KERNEL_CACHE_DIR"] = kernels
    # The same string hashes, and so the same set and dict layouts, in
    # every pass and every run.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    return env


def in_process_pass(workload: str, seed: int, mode: str, run_dir: str, index: int) -> dict:
    out = os.path.join(run_dir, f"pass-{index}.json")
    env = _pass_env(run_dir, index)
    spec = {"workload": workload, "seed": seed, "mode": mode, "out": out}
    spec["spawned_at"] = time.monotonic()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=PASS_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise Failure(f"{workload} pass {index} exited {completed.returncode}: {completed.stderr.decode()[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    for op in record["ops"]:
        op["error"] = workloads.answer_error(op["mean"], op["std"], op["truth"])
        if op["error"] is None and op["target_missed"]:
            op["error"] = "sigma goal not met"
    return record


def _http(host: str, port: int, method: str, path: str, body: Optional[bytes] = None, timeout: float = 120.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _parse_report(request: workloads.Request, status: int, data: bytes) -> dict:
    """The report of one response, or an ``error`` entry."""
    if not 200 <= status < 300:
        return {"error": f"HTTP {status}: {data[:200]!r}"}
    if not request.stream:
        return json.loads(data)
    events = {}
    for frame in data.decode("utf-8").split("\n\n"):
        match = re.match(r"event: (\w+)\ndata: (.*)", frame.strip(), re.S)
        if match:
            events[match.group(1)] = json.loads(match.group(2))
    if "report" not in events or "error" in events:
        return {"error": f"stream without a report: {sorted(events)}"}
    return events["report"]


def _client(
    host: str,
    port: int,
    requests: List[workloads.Request],
    records: list,
    until: Optional[threading.Event] = None,
    done: Optional[threading.Event] = None,
) -> None:
    """Send ``requests`` in a closed loop (stopping early once ``until`` is set)."""
    try:
        for request in requests:
            if until is not None and until.is_set():
                break
            path = "/v1/quantify/stream" if request.stream else "/v1/quantify"
            started = time.perf_counter()
            try:
                status, data = _http(host, port, "POST", path, json.dumps(request.payload).encode("utf-8"))
                report = _parse_report(request, status, data)
            except (OSError, http.client.HTTPException, ValueError) as error:
                report = {"error": f"{type(error).__name__}: {error}"}
            latency = time.perf_counter() - started
            record = {"name": request.family, "latency_s": latency, "truth": request.truth}
            if "error" in report:
                record.update(mean=None, std=None, samples=0, error=report["error"])
            else:
                record.update(mean=report["mean"], std=report["std"], samples=report["samples"])
                record["error"] = workloads.answer_error(report["mean"], report["std"], request.truth)
            records.append(record)
    finally:
        if done is not None:
            done.set()


def serve_pass(clients: Tuple[List[workloads.Request], ...], mode: str, run_dir: str, index: int) -> dict:
    env = _pass_env(run_dir, index)
    exit_path = os.path.join(run_dir, f"serve-exit-{index}.json")
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "serve_launcher.py"), exit_path, mode, *SERVE_ARGS],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    address: Dict[str, object] = {}
    listening = threading.Event()
    stderr_tail: List[str] = []

    def read_stderr() -> None:
        for raw in process.stderr:
            line = raw.decode("utf-8", "replace")
            stderr_tail.append(line)
            del stderr_tail[:-50]
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match and not listening.is_set():
                address["host"], address["port"] = match.group(1), int(match.group(2))
                listening.set()

    reader = threading.Thread(target=read_stderr, daemon=True)
    reader.start()
    try:
        deadline = spawned_at + 60.0
        while not listening.wait(0.005):
            if process.poll() is not None or time.monotonic() > deadline:
                raise Failure(f"server did not start: {''.join(stderr_tail)[-2000:]}")
        host, port = address["host"], address["port"]
        while True:
            try:
                status, _ = _http(host, port, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                break
            if time.monotonic() > deadline:
                raise Failure("server never answered /healthz with 200")
            time.sleep(0.005)
        setup_s = time.monotonic() - spawned_at

        records: List[list] = [[] for _ in clients]
        fixed_done = threading.Event()
        threads = [
            threading.Thread(target=_client, args=(host, port, clients[0], records[0], fixed_done)),
            threading.Thread(target=_client, args=(host, port, clients[1], records[1], None, fixed_done)),
        ]
        # The server pinned itself to the highest CPU; the clients (threads
        # inherit this thread's affinity) keep off it where there is another.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus - {max(cpus)} or cpus)
        try:
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(PASS_TIMEOUT_S)
            run_s = time.perf_counter() - started
        finally:
            os.sched_setaffinity(0, cpus)
        if any(thread.is_alive() for thread in threads):
            raise Failure("a serve client did not finish in time")
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join(10.0)
    if process.returncode != 0:
        raise Failure(f"server exited {process.returncode}: {''.join(stderr_tail)[-2000:]}")
    with open(exit_path, encoding="utf-8") as handle:
        exit_record = json.load(handle)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops": [dict(op, client=index) for index, client_records in enumerate(records) for op in client_records],
        "peak_rss_mb": exit_record["peak_rss_mb"],
    }
    if "layers" in exit_record:
        result["layers"] = exit_record["layers"]
    return result


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with >= 10 operations beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(1, count - 10)
    return ordered[rank - 1], 100.0 * rank / count, count


def check_repeats(passes: List[dict]) -> None:
    """Mark operations whose (mean, sigma, samples) differ from the first pass's.

    Operations are matched by client and position; a serve client that ran
    a different number of requests is compared on the common prefix.
    """

    def by_client(record):
        clients: Dict[int, list] = {}
        for op in record["ops"]:
            clients.setdefault(op.get("client", 0), []).append(op)
        return clients

    first = by_client(passes[0])
    for record in passes[1:]:
        for client, ops in by_client(record).items():
            for op, expected in zip(ops, first.get(client, [])):
                digest = (op["mean"], op["std"], op["samples"])
                wanted = (expected["mean"], expected["std"], expected["samples"])
                if digest != wanted and op["error"] is None:
                    op["error"] = f"answer {digest} does not repeat the first pass's {wanted}"


def end_to_end(plain: List[dict]) -> Tuple[Dict[str, float], str]:
    latencies = [op["latency_s"] for record in plain for op in record["ops"]]
    tail_value, tail_percentile, tail_count = tail(latencies)
    metrics = {
        "setup_s": statistics.median(record["setup_s"] for record in plain),
        "run_s": statistics.median(record["run_s"] for record in plain),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "samples_per_s": statistics.median(sum(op["samples"] for op in r["ops"]) / r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in plain),
    }
    return metrics, f"op_tail_ms is p{tail_percentile:.1f} of {tail_count} operations"


def per_layer(
    workload: str, plain: List[dict], traced: List[dict], hub: Optional[dict]
) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Per-layer metrics (medians over traced passes), notes, and problems."""
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes"]
    problems: List[str] = []
    per_pass = []
    for record in traced:
        values = dict(record["layers"])
        op_wall = sum(op["latency_s"] for op in record["ops"])
        values["unattributed_s"] = op_wall - values["attributed_s"]
        values["attributed_share"] = values["attributed_s"] / op_wall
        per_pass.append(values)
    metrics = {name: statistics.median(values[name] for values in per_pass) for name in per_pass[0] if name != "attributed_s"}
    metrics["trace_overhead"] = statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain)
    metrics["icp.hub_s"] = 0.0
    if hub is not None:
        metrics["icp.hub_s"] = hub["hub_icp_s"]
        ratio = hub["layers"]["icp.self_s"] / hub["hub_icp_s"]
        notes.append(f"outside icp.self_s / hub icp_pave_seconds = {ratio:.4f} on the with_tracing() pass")
        if abs(ratio - 1.0) > HUB_TOLERANCE:
            problems.append(f"outside icp.self_s disagrees with the hub's icp_pave_seconds: ratio {ratio:.3f}")
    warm = [op["latency_s"] for record in plain for op in record["ops"] if op["samples"] == 0 and op["error"] is None]
    metrics["serve.warm_p50_ms"] = 1000.0 * statistics.median(warm) if warm else 0.0
    if workload == "serve-mixed" and not warm:
        problems.append("no request was answered warm")
    return metrics, notes, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: str, deadline: float) -> dict:
    """``workloads.pass_count`` passes over ``workload``, fewer if they overrun.

    The deadline (a ``time.monotonic()`` reading) only caps a run on a host
    slower than any seen: after ``MIN_PASSES`` passes, a pass starts only
    while the longest so far still fits before it.  On ``paper-30k`` with
    tracing, the ``with_tracing()`` pass comes last and its time is kept
    free.
    """
    count = workloads.pass_count(workload, seconds)
    clients = workloads.serve_clients(seed) if workload == "serve-mixed" else None
    hub_pending = trace and workload == "paper-30k"
    passes: List[dict] = []
    longest = 0.0
    while len(passes) < count:
        reserve = longest if hub_pending else 0.0
        if len(passes) >= MIN_PASSES and time.monotonic() + longest + reserve > deadline:
            break
        index = len(passes)
        mode = "traced" if trace and index % 2 else "plain"
        started = time.monotonic()
        if clients is not None:
            record = serve_pass(clients, mode, run_dir, index)
        else:
            record = in_process_pass(workload, seed, mode, run_dir, index)
        longest = max(longest, time.monotonic() - started)
        record["mode"] = mode
        passes.append(record)
    if hub_pending:
        record = in_process_pass(workload, seed, "hub", run_dir, len(passes))
        record["mode"] = "hub"
        passes.append(record)
    check_repeats(passes)
    attempted = sum(len(record["ops"]) for record in passes)
    errors = [f"{op['name']}: {op['error']}" for record in passes for op in record["ops"] if op["error"] is not None]
    plain = [record for record in passes if record["mode"] == "plain"]
    problems: List[str] = []
    if trace:
        traced = [record for record in passes if record["mode"] == "traced"]
        hub = next((record for record in passes if record["mode"] == "hub"), None)
        metrics, notes, problems = per_layer(workload, plain, traced, hub)
        note = "; ".join(notes)
    else:
        metrics, note = end_to_end(plain)
    return {
        "workload": workload,
        "metrics": metrics,
        "note": note,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
    }


def format_row(result: dict, units: Dict[str, str]) -> str:
    cells = [f"{name}={value:.6g} {units[name]}" for name, value in result["metrics"].items()]
    rate = result["failed"] / result["attempted"]
    cells.append(f"error_rate={rate:.4g} ({result['failed']}/{result['attempted']})")
    return f"{result['workload']:<13} " + "  ".join(cells) + f"  [{result['note']}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout of the repository (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.abspath("src"))
    # Byte-compile once up front so set-up time never includes compiling
    # the sources (the first run in a fresh checkout would otherwise).
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE], stdout=subprocess.DEVNULL, check=True)

    units = dict(layer_metric_names()) if args.trace else dict(END_TO_END)
    base = os.path.abspath(".perfbench_runs")
    os.makedirs(base, exist_ok=True)
    run_dir = os.path.join(base, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    selected = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in selected:
            try:
                deadline = started + args.seconds * (len(results) + 1)
                results.append(
                    run_workload(workload, args.seed, args.seconds, bool(args.trace), os.path.join(run_dir, workload), deadline)
                )
            except (Failure, subprocess.TimeoutExpired) as error:
                print(f"error: {workload}: {error}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    for result in results:
        print(format_row(result, units))
        for line in result["errors"][:20] + result["problems"]:
            print(f"  {result['workload']}: {line}")
    if len(results) == 1:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in results[0]["metrics"].items()}
    else:
        metrics = {
            f"{result['workload']}.{name}": {"value": value, "unit": units[name]}
            for result in results
            for name, value in result["metrics"].items()
        }
    summary = {
        "correct": all(not result["failed"] and not result["problems"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
