"""KNN graph persistence and interchange.

Graphs are expensive to build (the whole point of the paper), so users
need to keep them: ``save_graph``/``load_graph`` round-trip through a
single compressed ``.npz``; ``write_edge_list`` emits the
``user neighbor similarity`` text format common in graph tooling; and
``to_networkx`` hands the graph to `networkx` for downstream analysis.

The file format (version 2) stores the rows CSR-packed (``indptr``/
``ids``/``sims`` holding only the present entries, int32/float32), so
partially filled rows cost nothing at rest.  :func:`load_graph` reads
that version only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..layout import pack_rows, unpack_rows
from .knn_graph import KnnGraph

__all__ = [
    "save_graph",
    "load_graph",
    "graph_to_arrays",
    "graph_from_arrays",
    "pack_graph_arrays",
    "unpack_graph_arrays",
    "write_edge_list",
    "to_networkx",
]

_FORMAT_VERSION = 2


def graph_to_arrays(graph: KnnGraph) -> dict[str, np.ndarray]:
    """*graph* as plain dense arrays, embeddable in larger archives.

    Tombstone rows (a removed user's all-``MISSING`` row) and 0-user
    graphs round-trip exactly.  Composite formats that want the packed
    at-rest form instead use :func:`pack_graph_arrays`.
    """
    return {"neighbors": graph.neighbors, "sims": graph.sims}


def graph_from_arrays(arrays) -> KnnGraph:
    """Inverse of :func:`graph_to_arrays` (accepts any array mapping)."""
    return KnnGraph(
        np.asarray(arrays["neighbors"]), np.asarray(arrays["sims"])
    )


def pack_graph_arrays(graph: KnnGraph) -> dict[str, np.ndarray]:
    """*graph* as CSR-packed arrays (the at-rest archive payload)."""
    indptr, ids, sims = pack_rows(graph.neighbors, graph.sims)
    return {
        "graph_indptr": indptr,
        "graph_ids": ids,
        "graph_sims": sims,
        "graph_k": np.int64(graph.k),
    }


def unpack_graph_arrays(arrays) -> KnnGraph:
    """Inverse of :func:`pack_graph_arrays` (accepts any array mapping)."""
    neighbors, sims = unpack_rows(
        np.asarray(arrays["graph_indptr"]),
        np.asarray(arrays["graph_ids"]),
        np.asarray(arrays["graph_sims"]),
        int(arrays["graph_k"]),
    )
    return KnnGraph(neighbors, sims)


def save_graph(graph: KnnGraph, path: str | Path) -> Path:
    """Write *graph* to a compressed ``.npz`` file (format version 2)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        **pack_graph_arrays(graph),
    )
    # np.savez appends .npz when missing; report the real location.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_graph(path: str | Path) -> KnnGraph:
    """Load a graph written by :func:`save_graph`."""
    with np.load(Path(path)) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph file version {version} "
                f"(this library reads and writes version "
                f"{_FORMAT_VERSION})"
            )
        return unpack_graph_arrays(archive)


def write_edge_list(graph: KnnGraph, path: str | Path) -> Path:
    """Write ``user neighbor similarity`` lines (one directed edge each)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# knn graph: {graph.n_users} users, k={graph.k}\n")
        for user in range(graph.n_users):
            for neighbor, sim in zip(
                graph.neighbors_of(user), graph.sims_of(user)
            ):
                handle.write(f"{user}\t{neighbor}\t{sim:.9g}\n")
    return path


def to_networkx(graph: KnnGraph):
    """Convert to a directed ``networkx`` graph with ``weight`` attributes.

    Users with no neighbours still appear as isolated nodes, so node
    counts are preserved.
    """
    import networkx as nx

    out = nx.DiGraph()
    out.add_nodes_from(range(graph.n_users))
    for user in range(graph.n_users):
        for neighbor, sim in zip(graph.neighbors_of(user), graph.sims_of(user)):
            out.add_edge(user, int(neighbor), weight=float(sim))
    return out
