"""KIFF: KNN graph construction for sparse datasets.

A complete reproduction of Boutet, Kermarrec, Mittal & Taïani, *Being
prepared in a sparse world: the case of KNN graph construction*
(ICDE 2016): the KIFF algorithm, its greedy competitors (NN-Descent,
HyRec), an exact brute-force baseline, synthetic datasets matching the
paper's evaluation suite, and a harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import KiffConfig, SimilarityEngine, kiff, load_dataset

    dataset = load_dataset("wikipedia", scale="tiny")
    engine = SimilarityEngine(dataset, metric="cosine")
    result = kiff(engine, KiffConfig(k=10))
    print(result.graph.neighbors_of(0), result.scan_rate)

Streaming maintenance
---------------------
When ratings arrive continuously, :class:`repro.streaming.DynamicKnnIndex`
keeps the converged KIFF graph exact under typed events (``AddRating``,
``RemoveRating``, ``AddUser``, ``RemoveUser``, ``Batch``) through
dirty-set-driven localized refinement — see ``README.md`` ("Streaming
maintenance") and ``examples/streaming_updates.py``::

    from repro import AddRating, DynamicKnnIndex

    index = DynamicKnnIndex(dataset, KiffConfig(k=10))
    index.apply(AddRating(user=3, item=12))   # graph stays exact

With a :class:`repro.persistence.PartitionedWriteAheadLog` attached and
periodic ``index.checkpoint(dir)`` calls, ``DynamicKnnIndex.restore(dir)``
recovers a bit-identical graph after a crash (README: "Durability").
``DynamicKnnIndex(..., n_shards=N, executor=...)`` runs the refinement
shard-parallel — bit-identical at any shard count — over the same
partitioned state directory, one ``wal-<shard>.jsonl`` segment per
shard (README: "Sharding"); :class:`repro.streaming.ShardedKnnIndex`
is the same class with partitioned defaults.
"""

from .baselines import (
    HyRecConfig,
    LshConfig,
    NNDescentConfig,
    brute_force_knn,
    hyrec,
    lsh_knn,
    nn_descent,
    random_knn_graph,
)
from .core import (
    ConstructionResult,
    KiffConfig,
    KnnHeap,
    RankedCandidateSets,
    build_rcs,
    build_rcs_reference,
    kiff,
)
from .datasets import (
    BipartiteDataset,
    DatasetError,
    MutableBipartiteBuilder,
    load_dataset,
    load_evaluation_suite,
    load_movielens_family,
)
from .graph import (
    KnnGraph,
    ReverseNeighborIndex,
    average_similarity,
    per_user_recall,
    recall,
    strict_recall,
)
from .instrumentation import (
    ConvergenceTrace,
    MaintenanceCounter,
    PhaseTimer,
    SimilarityCounter,
    scan_rate,
)
from .persistence import PartitionedWriteAheadLog
from .scheduling import (
    Backpressure,
    RefreshScheduler,
    SchedulerPolicy,
    SubmitResult,
)
from .serving import (
    GraphSnapshot,
    KnnServer,
    NeighborReply,
    Recommendation,
    Recommender,
    neighbors_on,
    recommend_on,
)
from .similarity import (
    ProfileIndex,
    SimilarityEngine,
    SimilarityMetric,
    get_metric,
    metric_names,
    register_metric,
)
from .streaming import (
    AddRating,
    AddUser,
    ApplyResult,
    Batch,
    DynamicKnnIndex,
    RebalanceStats,
    RefreshStats,
    RemoveRating,
    RemoveUser,
    ShardMap,
    ShardPlan,
    ShardedKnnIndex,
    ratings_batch,
)

__version__ = "1.2.0"

__all__ = [
    "AddRating",
    "AddUser",
    "ApplyResult",
    "Backpressure",
    "Batch",
    "BipartiteDataset",
    "ConstructionResult",
    "ConvergenceTrace",
    "DatasetError",
    "DynamicKnnIndex",
    "GraphSnapshot",
    "HyRecConfig",
    "KiffConfig",
    "KnnGraph",
    "KnnHeap",
    "KnnServer",
    "LshConfig",
    "MaintenanceCounter",
    "MutableBipartiteBuilder",
    "NNDescentConfig",
    "NeighborReply",
    "PartitionedWriteAheadLog",
    "PhaseTimer",
    "ProfileIndex",
    "RankedCandidateSets",
    "RebalanceStats",
    "Recommendation",
    "Recommender",
    "RefreshScheduler",
    "RefreshStats",
    "RemoveRating",
    "RemoveUser",
    "ReverseNeighborIndex",
    "SchedulerPolicy",
    "ShardMap",
    "ShardPlan",
    "SimilarityCounter",
    "SimilarityEngine",
    "ShardedKnnIndex",
    "SimilarityMetric",
    "SubmitResult",
    "__version__",
    "average_similarity",
    "brute_force_knn",
    "build_rcs",
    "build_rcs_reference",
    "get_metric",
    "hyrec",
    "kiff",
    "load_dataset",
    "load_evaluation_suite",
    "load_movielens_family",
    "lsh_knn",
    "metric_names",
    "neighbors_on",
    "nn_descent",
    "per_user_recall",
    "random_knn_graph",
    "ratings_batch",
    "recall",
    "recommend_on",
    "register_metric",
    "scan_rate",
    "strict_recall",
]
