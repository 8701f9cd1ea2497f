"""The benchmark's two-engine federation, built only through public API.

Both the served daemon (``server.py``) and the in-process correctness
oracle (``oracle.py``) call :func:`build_federation`, so the two hold
bit-identical models: the federation is a pure function of the fixed
seeds below, never of the workload seed.

Layout:

* ``hive`` is openbox and costed with sub-operator models
  (``train_sub_op``);
* ``spark`` is a blackbox costed with logical-operator neural networks
  for scan, join and aggregate (``train_logical_op``), trained on the
  in-range tables only, so every 20M-row table is out of range and its
  spark estimates go through the online remedy;
* the catalog places fact tables (8M rows and up) on hive and
  dimension-sized tables on spark, and both engines load every table so
  either can execute (and be asked to cost) any query.
"""

from __future__ import annotations

from repro import (
    ClusterInfo,
    CostingApproach,
    HiveEngine,
    LogicalOpModel,
    OperatorKind,
    RemoteSystemProfile,
    SparkEngine,
    build_paper_corpus,
)
from repro.data.generator import SyntheticCorpus
from repro.master.federation import IntelliSphere
from repro.workloads import AggregationWorkload, JoinWorkload, ScanWorkload

#: Row counts the spark networks are trained on.
IN_RANGE_ROWS = (10_000, 100_000, 1_000_000, 8_000_000)
#: Row count of the out-of-range tables (outside every training grid).
OUT_OF_RANGE_ROWS = 20_000_000
ROW_SIZES = (100, 250)
#: Tables up to this many rows live on spark; larger ones on hive.
DIMENSION_MAX_ROWS = 1_000_000
SYSTEMS = ("hive", "spark")

#: Logical-op training budget per operator kind and network iterations.
TRAIN_QUERIES = 60
NN_ITERATIONS = 1_500


def table_names(max_rows: int = OUT_OF_RANGE_ROWS, min_rows: int = 0):
    """Catalog table names with ``min_rows <= rows <= max_rows``."""
    return [
        (f"t{rows}_{size}", rows)
        for rows in IN_RANGE_ROWS + (OUT_OF_RANGE_ROWS,)
        for size in ROW_SIZES
        if min_rows <= rows <= max_rows
    ]


def build_federation() -> IntelliSphere:
    """The hive (sub-op) + spark (logical-op) federation, trained."""
    sphere = IntelliSphere(seed=0)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    engines = {"hive": HiveEngine(seed=1), "spark": SparkEngine(seed=2)}
    sphere.add_remote_system(
        engines["hive"], RemoteSystemProfile(name="hive", cluster=info)
    )
    sphere.add_remote_system(
        engines["spark"],
        RemoteSystemProfile(
            name="spark", openbox=False, approach=CostingApproach.LOGICAL_OP
        ),
    )
    corpus = build_paper_corpus(
        row_counts=IN_RANGE_ROWS + (OUT_OF_RANGE_ROWS,), row_sizes=ROW_SIZES
    )
    for spec in corpus:
        home = "spark" if spec.num_rows <= DIMENSION_MAX_ROWS else "hive"
        sphere.add_table(spec.with_location(home, spec.dfs_path))
        for name, engine in engines.items():
            if name != home:
                engine.load_table(spec)

    sphere.costing.train_sub_op("hive")
    in_range = SyntheticCorpus(
        [spec for spec in corpus if spec.num_rows in IN_RANGE_ROWS]
    )
    workloads = {
        OperatorKind.SCAN: ScanWorkload(in_range, max_queries=TRAIN_QUERIES),
        OperatorKind.JOIN: JoinWorkload(in_range, max_queries=TRAIN_QUERIES),
        OperatorKind.AGGREGATE: AggregationWorkload(
            in_range, max_queries=TRAIN_QUERIES
        ),
    }
    for kind, workload in workloads.items():
        sphere.costing.train_logical_op(
            "spark",
            kind,
            workload.training_queries(sphere.catalog),
            model=LogicalOpModel(
                kind,
                search_topology=False,
                nn_iterations=NN_ITERATIONS,
                seed=0,
            ),
        )
    return sphere
