"""The load generator: closed- and open-loop HTTP clients.

One process, at most ``nproc`` threads and connections:

* **closed** — each client thread holds one persistent keep-alive
  connection and sends its next request when the previous answer
  arrives, like optimizer threads that wait for each estimate;
* **open** — requests are due on a fixed schedule; each goes out on a
  fresh connection, with at most ``nproc`` in flight, like independent
  callers.  Latency counts from the due time, so a stall also charges
  the requests queued behind it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from federation import SYSTEMS
from workloads import Request, Stream

#: Seconds a client waits for one answer before counting a failure.
REQUEST_TIMEOUT = 10.0
#: A closed-phase client thinks for a uniform 0..THINK_S seconds between
#: an answer and its next request.  Without the jitter the clients'
#: request cycles (a 40 ms delayed-ACK stall plus the work) lock into
#: step for seconds at a time, either always or never waiting for each
#: other, and the closed p50 jumps by a whole answer's work between runs.
THINK_S = 0.005


@dataclass
class Sample:
    """One request as the client saw it."""

    rid: int
    request: Request
    phase: str
    due: float  # when it should have been sent (open) / was sent (closed)
    sent: float
    done: float
    status: int  # 0 on a transport error or timeout
    answer: Optional[dict]
    #: Open phase: how far the generator itself overslept the due time.
    late: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def wire(self) -> float:
        return self.done - self.sent


class Client:
    """Request ids and connection handling shared by both loops."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._rids = itertools.count(1)
        self._lock = threading.Lock()

    def next_rid(self) -> int:
        with self._lock:
            return next(self._rids)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )

    def call(
        self,
        connection: http.client.HTTPConnection,
        request: Request,
        rid: int,
        close: bool = False,
    ):
        """Send one request; returns ``(status, answer)``, or raises
        ``OSError``/``HTTPException`` on a transport failure."""
        headers = {"Content-Type": "application/json"}
        if close:
            headers["Connection"] = "close"
        connection.request("POST", request.route, request.body(rid), headers)
        response = connection.getresponse()
        payload = response.read()
        try:
            answer = json.loads(payload)
        except ValueError:
            answer = None
        return response.status, answer

    def fresh(self, request: Request, rid: int):
        """One request on its own connection; ``(0, None)`` on a
        transport failure or timeout."""
        connection = self.connect()
        try:
            return self.call(connection, request, rid, close=True)
        except (OSError, http.client.HTTPException):
            return 0, None
        finally:
            connection.close()


class Swaps:
    """When closed-phase clients send ``POST /swap``: each client after
    every ``every`` of its requests, counted across closed-loop calls
    (a run's rounds), alternating over the two systems."""

    def __init__(self, every: int, clients: int) -> None:
        self.every = every
        self.sent = [0] * clients
        self._systems = itertools.cycle(SYSTEMS)
        self._lock = threading.Lock()

    def after(self, index: int) -> Optional[Request]:
        """The swap client ``index`` sends after its latest request, if any."""
        self.sent[index] += 1
        if self.sent[index] % self.every:
            return None
        with self._lock:
            return Request("/swap", system=next(self._systems))


def closed_loop(
    client: Client,
    stream: Stream,
    clients: int,
    seconds: float,
    swaps: Optional[Swaps] = None,
) -> List[Sample]:
    """``clients`` keep-alive clients, each waiting for every answer and
    thinking for a moment (:data:`THINK_S`) before the next request,
    and sending the ``swaps`` due in between."""
    samples: List[Sample] = []
    indexes = itertools.count()
    deadline = time.perf_counter() + seconds

    def one(connection, request):
        rid = client.next_rid()
        sent = time.perf_counter()
        try:
            status, answer = client.call(connection, request, rid)
        except (OSError, http.client.HTTPException):
            status, answer = 0, None
        done = time.perf_counter()
        samples.append(Sample(rid, request, "closed", sent, sent, done, status, answer))
        return status

    def run() -> None:
        index = next(indexes)
        think = random.Random(index).uniform
        connection = client.connect()
        try:
            while time.perf_counter() < deadline:
                time.sleep(think(0.0, THINK_S))
                if one(connection, stream.next()) == 0:
                    connection.close()
                    connection = client.connect()
                swap = swaps.after(index) if swaps else None
                if swap:
                    one(connection, swap)
        finally:
            connection.close()

    _run_threads(run, clients)
    return samples


def open_loop(
    client: Client,
    stream: Stream,
    rate: float,
    seconds: float,
    in_flight: int,
) -> List[Sample]:
    """``rate`` requests per second for ``seconds``, one fresh connection
    each, at most ``in_flight`` outstanding."""
    total = max(1, int(rate * seconds))
    requests = [stream.next() for _ in range(total)]
    samples: List[Sample] = []
    indexes = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def run() -> None:
        while True:
            with lock:
                index = next(indexes)
            if index >= total:
                return
            due = start + index / rate
            free = time.perf_counter()
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            rid = client.next_rid()
            status, answer = client.fresh(requests[index], rid)
            done = time.perf_counter()
            samples.append(
                Sample(
                    rid, requests[index], "open", due, sent, done, status, answer,
                    late=sent - max(due, free),
                )
            )

    _run_threads(run, in_flight)
    return samples


def sweep(client: Client, requests: List[Request], threads: int) -> List[Sample]:
    """Send each request once, on fresh connections, ``threads`` at a time
    (the warm-up pass)."""
    samples: List[Sample] = []
    pending = iter(requests)
    lock = threading.Lock()

    def run() -> None:
        while True:
            with lock:
                request = next(pending, None)
            if request is None:
                return
            rid = client.next_rid()
            sent = time.perf_counter()
            status, answer = client.fresh(request, rid)
            done = time.perf_counter()
            samples.append(
                Sample(rid, request, "warmup", sent, sent, done, status, answer)
            )

    _run_threads(run, threads)
    return samples


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [
        threading.Thread(target=target, name=f"perfbench-client-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
