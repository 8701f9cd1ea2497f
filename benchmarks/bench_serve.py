"""Closed-loop load benchmark for the ``repro serve`` estimation daemon.

Drives N concurrent clients, each issuing M back-to-back requests (the
next request leaves when the previous answer lands — a closed loop, so
offered load adapts to service capacity instead of overrunning it),
against an **in-process** daemon: either straight into
:class:`~repro.serve.EstimationService` on the client threads, or
through the full HTTP stack with ``--http``.

Reported: sustained throughput (requests/second), p50/p99 per-request
latency, error/rejection counts, and whether every concurrent estimate
was **bit-identical** to a single-threaded reference run (the serving
redesign's core property).  With ``--swap-every`` the driver performs a
graceful model swap every K completed requests while the load runs, so
the benchmark doubles as the swap-under-load acceptance check.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py                 # inline
    PYTHONPATH=src python benchmarks/bench_serve.py --http          # HTTP
    PYTHONPATH=src python benchmarks/bench_serve.py --clients 8 \\
        --requests 25 --swap-every 50                               # CI smoke

Exit codes: 0 = clean run (no errors, no 5xx, bit-identical),
1 = any request failed or diverged.

``benchmarks/regress.py`` imports :func:`build_sphere` /
:func:`run_load` and folds the serve p50/p99/throughput into the pinned
performance baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.core import ClusterInfo, RemoteSystemProfile
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.master.federation import IntelliSphere
from repro.serve import EstimationService, ServeDaemon
from repro.sql.parser import parse_select

#: Corpus slice: the regression gate's shapes (train in a few seconds).
BENCH_COUNTS = (10_000, 100_000, 1_000_000, 8_000_000)
BENCH_SIZES = (100,)

#: The driven mix: joins, aggregates, and scans over distinct tables so
#: the cache sees several keys, not one.
BENCH_QUERIES = (
    "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
    "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
    "SELECT a1 FROM t100000_100 WHERE a1 = 1",
    "SELECT r.a1 FROM t1000000_100 r JOIN t10000_100 s ON r.a1 = s.a1",
    "SELECT SUM(a2) FROM t8000000_100 GROUP BY a5",
)


def build_sphere(seed: int = 2020) -> IntelliSphere:
    """A hive-only federation with sub-op costing trained."""
    sphere = IntelliSphere(seed=seed)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(
        HiveEngine(seed=seed, noise_sigma=0.0),
        RemoteSystemProfile(name="hive", cluster=info),
    )
    for spec in build_paper_corpus(
        row_counts=BENCH_COUNTS, row_sizes=BENCH_SIZES
    ):
        sphere.add_table(spec)
    sphere.costing.train_sub_op("hive")
    return sphere


def serial_reference(sphere: IntelliSphere) -> Dict[str, float]:
    """Single-threaded estimate per query, computed on a cold cache."""
    sphere.costing.invalidate_cache()
    return {
        sql: sphere.costing.estimate_plan(
            "hive", parse_select(sql), sphere.catalog
        ).seconds
        for sql in BENCH_QUERIES
    }


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _http_estimate(url: str, sql: str) -> Dict[str, object]:
    request = urllib.request.Request(
        f"{url}/estimate",
        data=json.dumps({"system": "hive", "sql": sql}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return json.loads(response.read())


def run_load(
    sphere: IntelliSphere,
    clients: int = 8,
    requests_per_client: int = 25,
    queue_depth: int = 1024,
    http: bool = False,
    swap_every: int = 0,
) -> Dict[str, object]:
    """Drive the closed loop; returns the summary dict main() prints.

    ``swap_every`` > 0 performs a graceful estimator swap after every
    that-many completed requests (driven from a separate control
    thread, like a real rollout).
    """
    reference = serial_reference(sphere)
    sphere.costing.invalidate_cache()

    latencies: List[List[float]] = [[] for _ in range(clients)]
    mismatches: List[str] = []
    errors: List[str] = []
    server_errors = 0
    completed = {"count": 0}
    completed_lock = threading.Lock()
    swaps = {"count": 0}

    daemon: Optional[ServeDaemon] = None
    if http:
        daemon = ServeDaemon(sphere, port=0, queue_depth=queue_depth)
        daemon.start()
        service = daemon.service
    else:
        service = EstimationService(sphere, queue_depth=queue_depth).start()

    def client(slot: int) -> None:
        nonlocal server_errors
        for round_index in range(requests_per_client):
            sql = BENCH_QUERIES[(slot + round_index) % len(BENCH_QUERIES)]
            started = time.perf_counter()
            try:
                if daemon is not None:
                    payload = _http_estimate(daemon.url, sql)
                else:
                    payload = service.estimate("hive", sql)
            except urllib.error.HTTPError as error:
                if error.code >= 500:
                    server_errors += 1
                errors.append(f"HTTP {error.code} for {sql!r}")
                continue
            except Exception as exc:  # noqa: BLE001 — tally, keep driving
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies[slot].append(time.perf_counter() - started)
            if payload["seconds"] != reference[sql]:
                mismatches.append(sql)
            with completed_lock:
                completed["count"] += 1

    def swapper(stop: threading.Event) -> None:
        threshold = swap_every
        while not stop.wait(0.005):
            with completed_lock:
                done = completed["count"]
            if done >= threshold:
                service.swap("hive")
                swaps["count"] += 1
                threshold += swap_every

    stop_swapper = threading.Event()
    control = (
        threading.Thread(target=swapper, args=(stop_swapper,), daemon=True)
        if swap_every > 0
        else None
    )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    try:
        if control is not None:
            control.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        stop_swapper.set()
        if control is not None:
            control.join(timeout=10.0)
        if daemon is not None:
            daemon.stop()
        else:
            service.stop()

    flat = sorted(value for bucket in latencies for value in bucket)
    total = clients * requests_per_client
    return {
        "mode": "http" if http else "inline",
        "clients": clients,
        "requests": total,
        "completed": completed["count"],
        "wall_seconds": wall,
        "throughput_rps": completed["count"] / wall if wall > 0 else 0.0,
        "p50_seconds": _percentile(flat, 0.50),
        "p99_seconds": _percentile(flat, 0.99),
        "errors": len(errors),
        "server_errors": server_errors,
        "error_samples": errors[:5],
        "mismatches": len(mismatches),
        "bit_identical": not mismatches,
        "swaps": swaps["count"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop load benchmark for repro serve."
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=25, help="requests per client"
    )
    parser.add_argument("--queue-depth", type=int, default=1024)
    parser.add_argument(
        "--http",
        action="store_true",
        help="drive through the HTTP stack instead of calling the service",
    )
    parser.add_argument(
        "--swap-every",
        type=int,
        default=0,
        metavar="K",
        help="gracefully swap the model every K completed requests",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    args = parser.parse_args(argv)

    sphere = build_sphere(seed=args.seed)
    summary = run_load(
        sphere,
        clients=args.clients,
        requests_per_client=args.requests,
        queue_depth=args.queue_depth,
        http=args.http,
        swap_every=args.swap_every,
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"{summary['mode']}: {summary['completed']}/{summary['requests']} "
            f"requests from {summary['clients']} clients in "
            f"{summary['wall_seconds']:.2f}s "
            f"({summary['throughput_rps']:.0f} req/s)"
        )
        print(
            f"latency p50 {summary['p50_seconds'] * 1e3:.2f}ms  "
            f"p99 {summary['p99_seconds'] * 1e3:.2f}ms"
        )
        print(
            f"errors {summary['errors']} (5xx {summary['server_errors']})  "
            f"swaps {summary['swaps']}  "
            f"bit-identical {summary['bit_identical']}"
        )
    ok = (
        summary["errors"] == 0
        and summary["server_errors"] == 0
        and summary["bit_identical"]
        and summary["completed"] == summary["requests"]
    )
    if ok:
        print("clean shutdown; all requests served and bit-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
