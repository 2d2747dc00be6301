"""Tests for DAG export — and networkx-based cross-validation of our DAG
machinery (acyclicity, topological order, longest path) against an
independent graph library.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.floyd_warshall import FloydWarshallPattern
from repro.dag.export import to_dot, to_networkx
from repro.dag.library import TriangularPattern, WavefrontPattern
from repro.dag.parser import DAGParser, critical_path


class TestToNetworkx:
    def test_node_and_edge_counts(self):
        p = WavefrontPattern(3, 4)
        g = to_networkx(p)
        assert g.number_of_nodes() == 12
        assert g.number_of_edges() == sum(len(p.predecessors(v)) for v in p.vertices())

    def test_data_edges_marked(self):
        p = TriangularPattern(5)
        g = to_networkx(p, data_edges=True)
        kinds = {d["kind"] for _, _, d in g.edges(data=True)}
        assert kinds == {"topo", "data"}
        # The inward diagonal (2,3) -> (1,4) is a data edge, not topo.
        assert g.edges[(2, 3), (1, 4)]["kind"] == "data"

    @pytest.mark.parametrize("pattern", [
        WavefrontPattern(5, 5),
        TriangularPattern(6),
        FloydWarshallPattern(3),
    ])
    def test_networkx_confirms_acyclicity(self, pattern):
        assert nx.is_directed_acyclic_graph(to_networkx(pattern))

    def test_parser_order_is_a_networkx_valid_topo_order(self):
        p = TriangularPattern(5)
        order = DAGParser(p).run_all()
        pos = {v: i for i, v in enumerate(order)}
        g = to_networkx(p)
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_critical_path_matches_networkx_longest_path(self):
        p = WavefrontPattern(4, 6)
        ours, _ = critical_path(p, lambda v: 1.0)
        g = to_networkx(p)
        theirs = nx.dag_longest_path_length(g) + 1  # edges -> vertices
        assert ours == theirs

    def test_weighted_critical_path_matches_networkx(self):
        import numpy as np

        rng = np.random.default_rng(3)
        p = TriangularPattern(6)
        costs = {v: float(rng.uniform(0.5, 5.0)) for v in p.vertices()}
        ours, _ = critical_path(p, lambda v: costs[v])
        # Node-weighted longest path via edge weights w(u->v) = cost(v)
        # plus a super-source paying each entry node's own cost.
        g = to_networkx(p)
        for u, v in g.edges():
            g.edges[u, v]["w"] = costs[v]
        g.add_node("S")
        for v in p.vertices():
            g.add_edge("S", v, w=costs[v])
        assert ours == pytest.approx(nx.dag_longest_path_length(g, weight="w"))

    def test_partial_trace_critical_path_matches_networkx(self):
        """A ``None`` cost removes a vertex: chains restart past it, so the
        answer is the longest path of the induced subgraph."""
        import numpy as np

        rng = np.random.default_rng(5)
        p = WavefrontPattern(5, 6)
        removed = {(1, 1), (2, 4), (3, 0), (0, 5)}
        costs = {v: float(rng.uniform(0.5, 5.0)) for v in p.vertices()}
        ours, path = critical_path(p, lambda v: None if v in removed else costs[v])
        assert not removed.intersection(path)
        assert sum(costs[v] for v in path) == pytest.approx(ours)
        g = to_networkx(p).subgraph(v for v in p.vertices() if v not in removed).copy()
        for u, v in g.edges():
            g.edges[u, v]["w"] = costs[v]
        g.add_node("S")
        for v in list(g.nodes):
            if v != "S":
                g.add_edge("S", v, w=costs[v])
        assert ours == pytest.approx(nx.dag_longest_path_length(g, weight="w"))


class TestToDot:
    def test_structure(self):
        dot = to_dot(WavefrontPattern(2, 2), name="wf")
        assert dot.startswith("digraph wf {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 4
        assert 'label="0,0"' in dot

    def test_custom_labels(self):
        dot = to_dot(WavefrontPattern(1, 2), label=lambda v: f"cell{v}")
        assert "cell(0, 0)" in dot

    def test_negative_safe_ids(self):
        # Vertex ids never contain '-' in our patterns, but the escaping
        # must not corrupt output regardless.
        dot = to_dot(WavefrontPattern(1, 1))
        assert "n_0_0" in dot


@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)))
@settings(max_examples=25, deadline=None)
def test_property_all_patterns_export_acyclic(shape):
    g = to_networkx(WavefrontPattern(*shape), data_edges=True)
    assert nx.is_directed_acyclic_graph(g)
