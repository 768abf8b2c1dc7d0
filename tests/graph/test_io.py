"""Unit tests for KNN graph persistence and interchange."""

import numpy as np
import pytest

from repro.graph import (
    MISSING,
    KnnGraph,
    graph_from_arrays,
    graph_to_arrays,
    load_graph,
    save_graph,
    to_networkx,
    write_edge_list,
)


@pytest.fixture
def sample_graph():
    return KnnGraph.from_neighbor_dict(
        {0: [(1, 0.9), (2, 0.4)], 1: [(0, 0.9)], 3: [(2, 0.25)]},
        n_users=4,
        k=2,
    )


class TestNpzRoundTrip:
    def test_round_trip(self, sample_graph, tmp_path):
        path = save_graph(sample_graph, tmp_path / "graph.npz")
        assert load_graph(path) == sample_graph

    def test_suffix_added_when_missing(self, sample_graph, tmp_path):
        path = save_graph(sample_graph, tmp_path / "graph")
        assert path.suffix == ".npz"
        assert load_graph(path) == sample_graph

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_check(self, sample_graph, tmp_path, version):
        path = save_graph(sample_graph, tmp_path / "graph.npz")
        data = dict(np.load(path))
        data["version"] = np.int64(version)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_graph(path)

    def test_round_trip_preserves_missing_slots(self, sample_graph, tmp_path):
        path = save_graph(sample_graph, tmp_path / "g.npz")
        loaded = load_graph(path)
        assert loaded.degree().tolist() == sample_graph.degree().tolist()

    def test_round_trip_construction_result(self, wiki_engine, tmp_path):
        from repro import KiffConfig, kiff

        result = kiff(wiki_engine, KiffConfig(k=5))
        path = save_graph(result.graph, tmp_path / "wiki.npz")
        assert load_graph(path) == result.graph

    def test_round_trip_tombstone_rows(self, tmp_path):
        """A removed user's all-MISSING row (and users referencing no
        one) must survive the round-trip exactly — the case streaming
        checkpoints hit whenever a RemoveUser landed."""
        graph = KnnGraph.from_neighbor_dict(
            {0: [(2, 0.8)], 2: [(0, 0.8)]}, n_users=4, k=3
        )
        assert graph.degree().tolist() == [1, 0, 1, 0]  # 1 and 3 tombstoned
        loaded = load_graph(save_graph(graph, tmp_path / "tomb.npz"))
        assert loaded == graph
        assert loaded.neighbors.tolist() == graph.neighbors.tolist()
        assert (loaded.neighbors[1] == MISSING).all()
        assert np.isneginf(loaded.sims[1]).all()

    def test_round_trip_zero_user_graph(self, tmp_path):
        """A 0-user graph (empty population, k columns intact) must
        round-trip; `kiff()` produces one on an emptied dataset."""
        graph = KnnGraph(
            np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.float64)
        )
        loaded = load_graph(save_graph(graph, tmp_path / "empty.npz"))
        assert loaded == graph
        assert loaded.n_users == 0
        assert loaded.k == 3
        assert loaded.edge_count() == 0


class TestArrayHelpers:
    def test_arrays_round_trip(self, sample_graph):
        arrays = graph_to_arrays(sample_graph)
        assert set(arrays) == {"neighbors", "sims"}
        assert graph_from_arrays(arrays) == sample_graph

    def test_arrays_embeddable_in_archive(self, sample_graph, tmp_path):
        """The helper payload survives embedding in a larger npz — the
        composite-archive use the persistence checkpoints rely on."""
        path = tmp_path / "bundle.npz"
        np.savez(path, extra=np.arange(3), **graph_to_arrays(sample_graph))
        with np.load(path) as archive:
            assert graph_from_arrays(archive) == sample_graph


class TestEdgeList:
    def test_edge_count_matches(self, sample_graph, tmp_path):
        path = write_edge_list(sample_graph, tmp_path / "graph.tsv")
        lines = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(lines) == sample_graph.edge_count()

    def test_edges_sorted_best_first_per_user(self, sample_graph, tmp_path):
        path = write_edge_list(sample_graph, tmp_path / "graph.tsv")
        user0 = [
            line.split("\t")
            for line in path.read_text().splitlines()
            if line.startswith("0\t")
        ]
        sims = [float(cells[2]) for cells in user0]
        assert sims == sorted(sims, reverse=True)


class TestNetworkx:
    def test_nodes_and_edges(self, sample_graph):
        nx_graph = to_networkx(sample_graph)
        assert nx_graph.number_of_nodes() == 4  # isolated user kept
        assert nx_graph.number_of_edges() == sample_graph.edge_count()

    def test_weights(self, sample_graph):
        nx_graph = to_networkx(sample_graph)
        assert nx_graph[0][1]["weight"] == pytest.approx(0.9)

    def test_directedness(self, sample_graph):
        nx_graph = to_networkx(sample_graph)
        assert nx_graph.has_edge(3, 2)
        assert not nx_graph.has_edge(2, 3)
