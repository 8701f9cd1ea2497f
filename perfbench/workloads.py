"""Seeded request streams for the three benchmark workloads.

The server never sees the seed, only the requests generated here.  A
stream is consumed concurrently by the load generator's client
threads; :meth:`Stream.next` hands out requests in one deterministic
order, so the requests sent in a run are a prefix of a sequence fixed
by ``(workload, seed)`` and only the prefix length depends on speed.
"""

from __future__ import annotations

import json
import math
import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from federation import DIMENSION_MAX_ROWS, SYSTEMS, table_names

WORKLOADS = ("estimate-hot", "estimate-cold", "optimize-swap")
PHASES = ("warmup", "closed", "open")

#: Seed of the fixed request pools (not the workload seed).
POOL_SEED = 0
#: Distinct SQL texts in the estimate-hot pool, and its Zipf exponent.
HOT_POOL_SIZE = 64
HOT_ZIPF_S = 1.1
#: Cross-system queries in the optimize-swap pool.
OPTIMIZE_POOL_SIZE = 300
#: Each closed-phase client sends ``POST /swap`` after this many requests.
SWAP_EVERY = 50

#: Grouping columns of the synthetic schema (``a<i>`` has i-fold
#: duplicated values).
GROUP_COLUMNS = (2, 5, 10, 20, 50, 100)


@dataclass(frozen=True)
class Request:
    """One served call: its route and JSON fields (minus the request id)."""

    route: str
    sql: str = ""
    system: str = ""

    def body(self, rid: int) -> bytes:
        """The JSON body; ``rid`` is ignored by the server and joins the
        traced run's server spans to the client's timings."""
        fields: Dict[str, object] = {"rid": rid}
        if self.system:
            fields["system"] = self.system
        if self.sql:
            fields["sql"] = self.sql
        return json.dumps(fields, sort_keys=True).encode("utf-8")


def _literal(rng: random.Random, rows: int) -> int:
    """A log-uniform predicate literal within ``a1``'s domain 1..rows."""
    return max(1, int(math.exp(rng.uniform(0.0, math.log(rows)))))


def _estimate_sql(rng: random.Random) -> str:
    """One scan, join or aggregate over any table, with a fresh literal."""
    tables = table_names()
    shape = rng.randrange(3)
    if shape == 0:
        table, rows = rng.choice(tables)
        return f"SELECT a1, a2 FROM {table} WHERE a1 < {_literal(rng, rows)}"
    if shape == 1:
        (big, big_rows), (small, _) = sorted(
            (rng.choice(tables), rng.choice(tables)), key=lambda t: -t[1]
        )
        return (
            f"SELECT r.a1 FROM {big} r JOIN {small} s ON r.a1 = s.a1 "
            f"WHERE r.a1 < {_literal(rng, big_rows)}"
        )
    table, rows = rng.choice(tables)
    return (
        f"SELECT SUM(a2) FROM {table} WHERE a1 < {_literal(rng, rows)} "
        f"GROUP BY a{rng.choice(GROUP_COLUMNS)}"
    )


def _optimize_sql(rng: random.Random) -> str:
    """An aggregate over a hive fact table joined with a spark dimension."""
    fact, fact_rows = rng.choice(table_names(min_rows=DIMENSION_MAX_ROWS + 1))
    dim, _ = rng.choice(table_names(max_rows=DIMENSION_MAX_ROWS))
    return (
        f"SELECT SUM(r.a2) FROM {fact} r JOIN {dim} s ON r.a1 = s.a1 "
        f"WHERE r.a1 < {_literal(rng, fact_rows)} "
        f"GROUP BY r.a{rng.choice(GROUP_COLUMNS)}"
    )


def _distinct(make: Callable[[], str], count: int) -> List[str]:
    texts: List[str] = []
    seen = set()
    while len(texts) < count:
        sql = make()
        if sql not in seen:
            seen.add(sql)
            texts.append(sql)
    return texts


class Stream:
    """A thread-safe, seed-deterministic sequence of requests."""

    def __init__(
        self, draw: Callable[[], Request], pool: Optional[List[Request]] = None
    ) -> None:
        self._draw = draw
        self._lock = threading.Lock()
        #: The finite request pool, when the workload has one (its
        #: references are computed before any traffic).
        self.pool = pool
        #: Every request handed out, in order.
        self.drawn: List[Request] = []

    def next(self) -> Request:
        with self._lock:
            request = self._draw()
            self.drawn.append(request)
            return request


def make_streams(workload: str, seed: int) -> Dict[str, Stream]:
    """The request streams of one run's phases (see :data:`PHASES`).

    The pools of ``estimate-hot`` and ``optimize-swap`` (and the Zipf
    ranking of the hot pool) are fixed parts of the workload, built
    from :data:`POOL_SEED`; the workload seed drives the traffic drawn
    from them, and every literal of ``estimate-cold``.  Each phase
    draws in its own seeded order, so the open phase does not replay
    the closed one and its fixed-length request list depends on the
    seed alone.
    """
    rng = random.Random(f"{workload}/{POOL_SEED}")
    draws = {phase: random.Random(f"{workload}/{seed}/{phase}") for phase in PHASES}
    if workload == "estimate-hot":
        texts = _distinct(lambda: _estimate_sql(rng), HOT_POOL_SIZE)
        pool = [
            Request("/estimate", sql, SYSTEMS[index % 2])
            for index, sql in enumerate(texts)
        ]
        ranked = pool[:]
        rng.shuffle(ranked)
        weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(len(ranked))]
        return {
            phase: Stream(
                lambda draw=draw: draw.choices(ranked, weights=weights)[0], pool
            )
            for phase, draw in draws.items()
        }
    if workload == "estimate-cold":
        seen = set()  # shared: no text repeats across the two phases

        def fresh(draw: random.Random) -> Request:
            while True:
                request = Request(
                    "/estimate", _estimate_sql(draw), draw.choice(SYSTEMS)
                )
                if request not in seen:
                    seen.add(request)
                    return request

        return {
            phase: Stream(lambda draw=draw: fresh(draw))
            for phase, draw in draws.items()
        }
    if workload == "optimize-swap":
        pool = [
            Request("/optimize", sql)
            for sql in _distinct(lambda: _optimize_sql(rng), OPTIMIZE_POOL_SIZE)
        ]
        return {
            phase: Stream(lambda draw=draw: draw.choice(pool), pool)
            for phase, draw in draws.items()
        }
    raise ValueError(f"unknown workload: {workload!r}")
