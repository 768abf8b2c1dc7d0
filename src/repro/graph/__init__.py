"""KNN graph representation, metrics, analytics, I/O, update kernels."""

from .analysis import (
    GraphStats,
    analyze,
    in_degrees,
    reciprocity,
    similarity_by_rank,
    weakly_connected_components,
)
from .io import (
    graph_from_arrays,
    graph_to_arrays,
    load_graph,
    save_graph,
    to_networkx,
    write_edge_list,
)
from .knn_graph import MISSING, KnnGraph
from .metrics import average_similarity, per_user_recall, recall, strict_recall
from .updates import (
    ReverseNeighborIndex,
    merge_topk,
    merge_topk_rows,
)

__all__ = [
    "GraphStats",
    "KnnGraph",
    "MISSING",
    "ReverseNeighborIndex",
    "analyze",
    "average_similarity",
    "graph_from_arrays",
    "graph_to_arrays",
    "in_degrees",
    "load_graph",
    "merge_topk",
    "merge_topk_rows",
    "per_user_recall",
    "recall",
    "reciprocity",
    "save_graph",
    "similarity_by_rank",
    "strict_recall",
    "to_networkx",
    "weakly_connected_components",
    "write_edge_list",
]
