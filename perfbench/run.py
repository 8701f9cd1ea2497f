"""Served-costing benchmark: three HTTP workloads over a two-engine federation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate-hot --seed 1 --seconds 26 --trace 0

One run builds the correctness oracle in this process, starts the
estimation daemon (``server.py``) as its own process with no
``REPRO_OBS_*`` variables, and drives one workload through rounds of
two phases: closed (``nproc`` keep-alive clients) and open (a fixed
arrival schedule, one fresh connection per request, at most ``nproc``
in flight).  Every answer is checked against the oracle and the counts
are reconciled with the server's ``/metrics.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the
separate traced run: one untraced closed phase for the baseline
throughput, then a daemon whose layer entry points are wrapped
(``trace_spans.py``), and it prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workload seeds: :data:`DEFAULT_SEED` while developing a change,
:data:`HELD_OUT_SEED` to confirm a claimed gain on inputs it was not
tuned on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from trace_spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Open-phase arrival rate per workload, requests per second: about half
#: the lowest fresh-connection capacity measured on a 2-core VM (hot
#: 545-657/s, cold 369-531/s, optimize 365-490/s over repeated runs),
#: so a slow spell of the host does not tip the daemon into overload.
OPEN_RATES = {"estimate-hot": 150.0, "estimate-cold": 110.0, "optimize-swap": 110.0}
#: Open-phase latency limit per route, milliseconds: well above what a
#: slow spell of a shared 2-core host adds to an answer (open p99 of
#: 10-33 ms seen under CPU steal), below a 40 ms keep-alive-class stall.
SLO_MS = {"/estimate": 25.0, "/optimize": 40.0}
#: Daemon start-ups per end-to-end run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: Share of ``--seconds`` given to the closed phase (the rest is open).
CLOSED_SHARE = 0.5
#: Closed/open rounds an end-to-end run alternates through, so a slow
#: spell of the shared host (seen lasting 3-7 s) falls on both phases
#: alike; slo_ok is the median over the rounds.
ROUNDS = 7
#: A run whose generator overslept its schedule by more than this at
#: p99 is reported as invalid rather than slow.
MAX_GEN_LATE_MS = 2.0
#: Upper bound on one daemon start-up, seconds.
SETUP_TIMEOUT = 120.0

#: The probe whose first correct answer ends a daemon's set-up.
PROBE_SQL = "SELECT r.a1 FROM t8000000_100 r JOIN t100000_100 s ON r.a1 = s.a1"

#: Layers whose self time is reported as ``<layer>.self_share``.
LAYERS = (
    "http",
    "obs.server",
    "serve",
    "sql.parser",
    "master.federation",
    "master.optimizer",
    "master.querygrid",
    "core.costing",
    "core.estimate_cache",
    "core.gate",
    "core.estimator",
)


class BenchmarkError(RuntimeError):
    """The run could not be carried out (not a slow or wrong answer)."""


# ----------------------------------------------------------------------
# The daemon under test
# ----------------------------------------------------------------------
class Daemon:
    """One ``server.py`` process; stops it on exit from ``with``."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_OBS_")}
        env["PYTHONPATH"] = str(SRC)
        command = [sys.executable, str(HERE / "server.py")]
        if spans_path:
            command += ["--spans", spans_path]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], SETUP_TIMEOUT)
        line = stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise BenchmarkError(f"daemon did not start (got {line!r})")
        return int(line.split()[1])

    def wait_ready(self, client, probe, oracle) -> float:
        """Seconds from spawning to the first correct 200 on ``probe``."""
        from oracle import served

        expected = oracle.reference(probe).expected
        deadline = self.spawned + SETUP_TIMEOUT
        while time.perf_counter() < deadline:
            status, answer = client.fresh(probe, 0)
            if status == 200 and served(probe, answer) == expected:
                return time.perf_counter() - self.spawned
            time.sleep(0.01)
        raise BenchmarkError("daemon never answered the probe correctly")

    def metrics(self) -> Dict[str, dict]:
        url = f"http://127.0.0.1:{self.port}/metrics.json"
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.load(response)["metrics"]

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Checking answers
# ----------------------------------------------------------------------
class Verdicts:
    """Every answer of a run checked against the oracle."""

    def __init__(self, oracle, streams, samples) -> None:
        from oracle import served

        # References in the streams' draw order, so the simulated actuals
        # (engine noise is a seeded sequence) depend on the seed alone.
        for stream in streams.values():
            for request in stream.drawn:
                oracle.reference(request)
        self.failed = set()  # rids: non-2xx, transport error, unexplained answer
        self.wrong = set()  # rids of 200 answers that differ from the oracle
        self.unexplained = []  # wrong answers not served from the cache
        self.rel_errors: List[float] = []
        for sample in samples:
            if sample.status != 200 or sample.answer is None:
                self.failed.add(sample.rid)
                continue
            if sample.request.route == "/swap":
                continue
            reference = oracle.reference(sample.request)
            answer = served(sample.request, sample.answer)
            if answer != reference.expected:
                self.wrong.add(sample.rid)
                if not _shared_bucket(sample.request, sample.answer, reference):
                    self.failed.add(sample.rid)
                    self.unexplained.append((sample.request, answer, reference))
            if reference.actual is not None:
                seconds = float(sample.answer.get("seconds", 0.0))
                self.rel_errors.append(
                    abs(seconds - reference.actual) / reference.actual
                )

    def correct(self, sample) -> bool:
        return (
            sample.status == 200
            and sample.rid not in self.failed
            and sample.rid not in self.wrong
        )


def _shared_bucket(request, answer: dict, reference) -> bool:
    """Whether a wrong answer is the estimate cache's known bucket sharing.

    The cache keys quantized statistics, so a request can be served the
    estimate cached for a neighbour in the same bucket.  An ``/estimate``
    answer says whether it came from the cache; an ``/optimize`` answer
    does not, and sharing there only nudges the seconds, so it must keep
    the reference's location.  Any other difference is a real fault.
    """
    if request.route == "/optimize":
        return answer.get("location") == reference.expected[0]
    return bool(answer.get("cache_hit"))


def _value(metrics: Dict[str, dict], name: str) -> float:
    entry = metrics.get(name)
    return float(entry.get("value", 0.0)) if entry else 0.0


def _hist_delta(before: Dict[str, dict], after: Dict[str, dict], name: str):
    """``[(upper bound, count)]`` of a histogram's growth between snapshots."""
    old = {str(b): c for b, c in (before.get(name) or {}).get("buckets", [])}
    return [
        (
            float("inf") if bound == "+Inf" else float(bound),
            count - old.get(str(bound), 0),
        )
        for bound, count in (after.get(name) or {}).get("buckets", [])
    ]


def _hist_percentile(buckets, q: float) -> float:
    total = sum(count for _, count in buckets)
    if total == 0:
        return 0.0
    running = 0
    for bound, count in buckets:
        running += count
        if running >= q / 100.0 * total:
            return bound
    return buckets[-1][0]


def reconcile(oracle, samples, before, after) -> List[str]:
    """Mismatches between the client's counts and the server's counters."""
    answered = [s for s in samples if s.request.route != "/swap"]
    ok = [s for s in answered if s.status == 200 and s.answer is not None]
    expected = {
        "serve.completed": len(ok),
        "serve.errors": sum(
            1 for s in answered if 400 <= s.status < 600 and s.status not in (503, 504)
        ),
        "costing.model_swaps": sum(
            1 for s in samples if s.request.route == "/swap" and s.status == 200
        ),
        "costing.estimate_cache.lookups": sum(
            oracle.reference(s.request).lookups for s in ok
        ),
    }
    if all(s.request.route == "/estimate" for s in ok):
        hits = sum(1 for s in ok if s.answer.get("cache_hit"))
        expected["costing.estimate_cache.hits"] = hits
        expected["costing.estimate_cache.misses"] = len(ok) - hits

    def delta(name: str) -> float:
        if name == "costing.estimate_cache.lookups":
            return delta("costing.estimate_cache.hits") + delta(
                "costing.estimate_cache.misses"
            )
        return _value(after, name) - _value(before, name)

    return [
        f"{name}: benchmark counted {count}, server counted {delta(name):g}"
        for name, count in expected.items()
        if delta(name) != count
    ]


# ----------------------------------------------------------------------
# Running phases
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ms(values: Sequence[float]) -> List[float]:
    return [value * 1000.0 for value in values]


@contextlib.contextmanager
def quiet_gc():
    """Keep the load generator's own collector out of the timings.

    The benchmark process holds the oracle's federation; a full
    collection over it pauses every client thread for tens of ms.  The
    heap is frozen and collection is off while traffic runs.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from loadgen import Swaps
        from oracle import Oracle
        from workloads import SWAP_EVERY, Request, make_streams

        self.workload, self.seconds = workload, seconds
        self.nproc = os.cpu_count() or 1
        self.oracle = Oracle()
        self.streams = make_streams(workload, seed)
        self.probe = Request("/estimate", PROBE_SQL, "hive")
        self.oracle.reference(self.probe)
        pool = self.streams["closed"].pool
        if pool is not None:
            for request in pool:  # references for every pooled request, up front
                self.oracle.reference(request)
            self.warmup = list(pool)
        else:
            self.warmup = [self.streams["warmup"].next() for _ in range(64)]
        self.swaps = (
            Swaps(SWAP_EVERY, self.nproc) if workload == "optimize-swap" else None
        )
        self.mismatches: List[str] = []

    def ready(self, daemon: Daemon):
        """A client of ``daemon`` and its set-up time."""
        from loadgen import Client

        client = Client("127.0.0.1", daemon.port)
        return client, daemon.wait_ready(client, self.probe, self.oracle)

    def start(self, daemon: Daemon):
        from loadgen import sweep

        client, setup = self.ready(daemon)
        warm = sweep(client, self.warmup, self.nproc)
        return client, setup, warm

    def closed(self, client, daemon: Daemon, seconds: float):
        from loadgen import closed_loop

        before, cpu = daemon.metrics(), daemon.cpu_seconds()
        started = time.perf_counter()
        samples = closed_loop(
            client, self.streams["closed"], self.nproc, seconds,
            swaps=self.swaps,
        )
        elapsed = time.perf_counter() - started
        cpu = daemon.cpu_seconds() - cpu
        self.mismatches += reconcile(self.oracle, samples, before, daemon.metrics())
        return samples, elapsed, cpu

    def open(self, client, daemon: Daemon, seconds: float):
        from loadgen import open_loop

        before = daemon.metrics()
        samples = open_loop(
            client, self.streams["open"], OPEN_RATES[self.workload], seconds, self.nproc
        )
        after = daemon.metrics()
        self.mismatches += reconcile(self.oracle, samples, before, after)
        return samples, before, after


def _rps(samples, elapsed: float) -> float:
    done = sum(1 for s in samples if s.status == 200 and s.request.route != "/swap")
    return done / elapsed if elapsed > 0 else 0.0


def run_end_to_end(run: Run):
    setups = []
    for _ in range(SETUP_SPAWNS - 1):  # start-ups timed for setup_s only
        with Daemon() as daemon:
            setups.append(run.ready(daemon)[1])
    closed, opened, rounds = [], [], []
    elapsed = cpu = 0.0
    closed_s = run.seconds * CLOSED_SHARE / ROUNDS
    open_s = run.seconds * (1.0 - CLOSED_SHARE) / ROUNDS
    with Daemon() as daemon:
        client, setup, warm = run.start(daemon)
        setups.append(setup)
        with quiet_gc():
            for _ in range(ROUNDS):
                samples, seconds, used = run.closed(client, daemon, closed_s)
                closed += samples
                elapsed += seconds
                cpu += used
                samples, _, _ = run.open(client, daemon, open_s)
                opened += samples
                rounds.append(samples)
        rss = daemon.peak_rss_mb()

    samples = warm + closed + opened
    verdicts = Verdicts(run.oracle, run.streams, samples)
    measured = closed + opened
    served = [s for s in closed if s.request.route != "/swap"]
    lat = [s.latency for s in served]
    open_lat = [s.latency for s in opened]

    def slo_ok(samples) -> float:
        return sum(
            1
            for s in samples
            if verdicts.correct(s) and s.latency * 1000.0 <= SLO_MS[s.request.route]
        ) / len(samples)

    failed = sum(1 for s in measured if s.rid in verdicts.failed)
    wrong = sum(1 for s in measured if s.rid in verdicts.wrong)
    answered = sum(
        1 for s in measured if s.status == 200 and s.request.route != "/swap"
    )
    done_closed = sum(
        1 for s in closed if s.status == 200 and s.request.route != "/swap"
    )
    # Bounded metrics must never read 0, so fail_ratio and wrong_ratio
    # (0 on most runs) are bounded as their complements ok_ratio and
    # exact_ratio, and print as they are in the run stamp.  A wrong
    # answer the cache's bucket sharing explains is a known defect of
    # the program, not a failed operation: it counts in exact_ratio and
    # as an SLO miss.  The closed p99 and the open p50 and p99 print in
    # the stamp too, unbounded: CPU steal on the shared 2-core host
    # (0-13% per run, in spells of minutes) raised the closed tail by
    # 25-30% and the open latencies, chains of thread wake-ups across
    # two processes, by up to 2.2x, more than a bound may allow.  slo_ok
    # is the bounded tail: its limits sit above what steal adds.  rel_err
    # is a mean because the median jumps between the error levels of
    # neighbouring pool entries.
    metrics = {
        "setup_s": (median(setups), "s"),
        "p50_ms": (median(_ms(lat)), "ms"),
        "rps": (_rps(closed, elapsed), "1/s"),
        "slo_ok": (median([slo_ok(r) for r in rounds]), "ratio"),
        "ok_ratio": (1.0 - failed / len(measured), "ratio"),
        "exact_ratio": (1.0 - wrong / answered if answered else 0.0, "ratio"),
        "rel_err_mean": (statistics.fmean(verdicts.rel_errors), "ratio"),
        "cpu_ms_per_req": (cpu * 1000.0 / done_closed if done_closed else 0.0, "ms"),
        "rss_mb": (rss, "MB"),
    }
    info = {
        "fail_ratio": failed / len(measured),
        "wrong_ratio": wrong / answered if answered else 0.0,
        "closed_requests": len(closed),
        "open_requests": len(opened),
        "gen_late_p99_ms": percentile(_ms([s.late for s in opened]), 99),
        "p99_ms": percentile(_ms(lat), 99),
        "open_p50_ms": median(_ms(open_lat)),
        "open_p99_ms": percentile(_ms(open_lat), 99),
        "open_slo_ok": slo_ok(opened),
        "setup_runs_s": [round(value, 4) for value in setups],
    }
    return metrics, verdicts, measured, info


def run_traced(run: Run):
    from trace_spans import fold_layers

    share = run.seconds / 10.0
    with Daemon() as plain:
        client, _, _ = run.start(plain)
        with quiet_gc():
            plain_closed, plain_elapsed, _ = run.closed(client, plain, 3 * share)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        spans_path = os.path.join(tmp, "spans.json")
        with Daemon(spans_path) as daemon:
            client, _, warm = run.start(daemon)
            before = daemon.metrics()
            with quiet_gc():
                closed, elapsed, _ = run.closed(client, daemon, 3 * share)
                opened, _, after = run.open(client, daemon, 4 * share)
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
    samples = plain_closed + warm + closed + opened
    verdicts = Verdicts(run.oracle, run.streams, samples)
    measured = plain_closed + closed + opened
    metrics = fold_layers(spans, closed, opened, LAYERS)
    cache = {
        name: _value(after, f"costing.estimate_cache.{name}")
        - _value(before, f"costing.estimate_cache.{name}")
        for name in ("hits", "misses", "evictions", "lock_waits")
    }
    requests = sum(1 for s in closed + opened if s.request.route != "/swap")
    lookups = cache["hits"] + cache["misses"]
    metrics.update(
        {
            "serve.queue_wait_us_p99": (
                _hist_percentile(_hist_delta(before, after, "serve.queued_seconds"), 99)
                * 1e6,
                "us",
            ),
            "core.estimate_cache.hit_ratio": (
                cache["hits"] / lookups if lookups else 0.0, "ratio"
            ),
            "core.estimate_cache.evictions_per_req": (
                cache["evictions"] / requests if requests else 0.0, "count"
            ),
            "core.estimate_cache.lock_waits": (cache["lock_waits"], "count"),
            "bench.gen_late_p99_ms": (
                percentile(_ms([s.late for s in opened]), 99), "ms"
            ),
            "trace.overhead": (
                _rps(closed, elapsed) / _rps(plain_closed, plain_elapsed), "ratio"
            ),
        }
    )
    info = {"gen_late_p99_ms": metrics["bench.gen_late_p99_ms"][0]}
    return metrics, verdicts, measured, info


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _cpu_ticks():
    """``(total, steal)`` jiffies of the host CPUs from ``/proc/stat``."""
    first_line = Path("/proc/stat").read_text().split("\n", 1)[0]
    fields = [int(v) for v in first_line.split()[1:]]
    return sum(fields), fields[7]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before, ticks_before = os.getloadavg(), _cpu_ticks()
    started = time.perf_counter()
    try:
        run = Run(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, verdicts, measured, info = run_traced(run)
        else:
            metrics, verdicts, measured, info = run_end_to_end(run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ticks_after = _cpu_ticks()
    valid = info["gen_late_p99_ms"] <= MAX_GEN_LATE_MS
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": run.nproc,
        "loadavg_before": [round(v, 2) for v in load_before],
        "loadavg_after": [round(v, 2) for v in os.getloadavg()],
        "cpu_steal_share": round(
            (ticks_after[1] - ticks_before[1])
            / max(1, ticks_after[0] - ticks_before[0]),
            4,
        ),
        "wall_s": round(time.perf_counter() - started, 2),
        "valid": valid,
        **info,
    }
    print("run " + json.dumps(stamp, sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.6f}  {unit}")
    if not valid:
        print(
            f"warning: generator fell behind its schedule "
            f"(p99 {info['gen_late_p99_ms']:.2f} ms); this run is invalid",
            file=sys.stderr,
        )
    for mismatch in run.mismatches:
        print(f"error: /metrics disagrees: {mismatch}", file=sys.stderr)
    for request, answer, reference in verdicts.unexplained[:5]:
        print(
            f"error: fresh estimate differs from the oracle: {request} "
            f"served {answer}, expected {reference.expected}",
            file=sys.stderr,
        )
    correct = not run.mismatches and not verdicts.unexplained and all(
        s.status == 200 for s in measured
    )
    failed = sum(1 for s in measured if s.rid in verdicts.failed)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(measured),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
