"""Exposure / MFVS tests (paper Sec. 7.1, Fig. 15)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.bench.industrial import build_table2_circuit
from repro.bench.iscas_like import iscas_like_circuit
from repro.bench.minmax import minmax_circuit
from repro.core.expose import (
    choose_latches_to_expose,
    minimum_feedback_vertex_set,
    prepare_circuit,
)
from repro.netlist.build import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.graph import feedback_latches, self_loop_latches
from repro.netlist.validate import validate_circuit


class TestMFVS:
    def test_self_loops_always_chosen(self):
        g = nx.DiGraph()
        g.add_edge("a", "a")
        g.add_edge("a", "b")
        assert minimum_feedback_vertex_set(g) == {"a"}

    def test_simple_ring_breaks_with_one(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")])
        fvs = minimum_feedback_vertex_set(g)
        assert len(fvs) == 1

    def test_result_is_acyclic(self):
        g = nx.DiGraph()
        g.add_edges_from(
            [
                ("a", "b"), ("b", "a"),
                ("b", "c"), ("c", "d"), ("d", "b"),
                ("d", "e"), ("e", "e"),
            ]
        )
        fvs = minimum_feedback_vertex_set(g)
        h = g.copy()
        h.remove_nodes_from(fvs)
        assert nx.is_directed_acyclic_graph(h)

    def test_dag_needs_nothing(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("a", "c")])
        assert minimum_feedback_vertex_set(g) == set()

    def test_two_disjoint_rings(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        assert len(minimum_feedback_vertex_set(g)) == 2


def reference_mfvs(graph, weight=None):
    """The from-scratch greedy: whole-graph SCCs and a full scan per pick."""
    g = graph.copy()
    fvs = set()
    for node in list(g.nodes):
        if g.has_edge(node, node):
            fvs.add(node)
            g.remove_node(node)

    def score(n):
        base = g.in_degree(n) * g.out_degree(n)
        if weight is None:
            return float(base)
        return base / max(weight.get(n, 1.0), 1e-9)

    while True:
        cyclic_nodes = set()
        for comp in nx.strongly_connected_components(g):
            if len(comp) > 1:
                cyclic_nodes |= comp
        if not cyclic_nodes:
            break
        best = max(cyclic_nodes, key=lambda n: (score(n), str(n)))
        fvs.add(best)
        g.remove_node(best)
    return fvs


def random_instance(seed):
    """A seeded latch-graph stand-in: self-loops, pinned nodes, weights."""
    rng = random.Random(seed)
    # Names like l10 < l2 make the str tie-break differ from creation order.
    nodes = [f"l{i}" for i in range(rng.randint(1, 40))]
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    density = rng.choice([0.03, 0.08, 0.15, 0.3])
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < density:
                g.add_edge(u, v)
        if rng.random() < 0.1:
            g.add_edge(u, u)
    # Pinned latches leave the graph before the FVS runs, as in
    # choose_latches_to_expose.
    g.remove_nodes_from(rng.sample(nodes, rng.randint(0, len(nodes) // 5)))
    # Small integer penalties tie often; some nodes take the default.
    weight = {
        n: rng.choice([0.0, 1.0, 2.0, 3.0, rng.uniform(0.5, 5.0)])
        for n in g.nodes
        if rng.random() < 0.8
    }
    return g, weight


class TestMFVSMatchesReference:
    @pytest.mark.parametrize("seed", range(300))
    def test_random_digraph(self, seed):
        g, weight = random_instance(seed)
        assert minimum_feedback_vertex_set(g) == reference_mfvs(g)
        assert minimum_feedback_vertex_set(g, weight) == reference_mfvs(g, weight)

    def test_input_graph_untouched(self):
        g, weight = random_instance(7)
        edges = sorted(g.edges)
        minimum_feedback_vertex_set(g, weight)
        assert sorted(g.edges) == edges


class TestChoose:
    def test_unate_latches_remodelled_not_exposed(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        exposed, remodel = choose_latches_to_expose(b.circuit, use_unateness=True)
        assert exposed == set()
        assert remodel == {"q"}

    def test_structural_only_exposes_unate_too(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        exposed, remodel = choose_latches_to_expose(b.circuit, use_unateness=False)
        assert exposed == {"q"}

    def test_pinned_latches_break_cycles_for_free(self):
        b = CircuitBuilder("t")
        (i,) = b.inputs("i")
        b.circuit.add_latch("q0", "d0")
        b.circuit.add_latch("q1", "q0")
        b.XOR("q1", i, name="d0")
        b.output("q1", name="o")
        exposed, _ = choose_latches_to_expose(
            b.circuit, use_unateness=False, pinned=["q0"]
        )
        assert exposed == set()  # the pinned latch already cut the ring

    def test_minmax_exposes_two_thirds(self):
        c = minmax_circuit(6)
        exposed, _ = choose_latches_to_expose(c, use_unateness=False)
        assert len(exposed) == 12  # min + max registers; input reg free
        assert all(n.startswith(("min", "max")) for n in exposed)

    def test_generated_fraction_matches_request(self):
        c = iscas_like_circuit("t", n_latches=40, pct_exposed=50, seed=3)
        exposed, _ = choose_latches_to_expose(c, use_unateness=False)
        assert len(exposed) == 20


    def test_one_topological_sort_per_call(self, monkeypatch):
        # The unateness test builds one next-state BDD per self-loop latch;
        # each must reuse one gate order, not re-sort the whole circuit.
        c = build_table2_circuit("ex3")
        assert len(self_loop_latches(c)) > 10
        calls = []
        topo_gates = Circuit.topo_gates

        def counting(circuit):
            calls.append(circuit)
            return topo_gates(circuit)

        monkeypatch.setattr(Circuit, "topo_gates", counting)
        choose_latches_to_expose(c, use_unateness=True)
        assert len(calls) <= 2
        calls.clear()
        prepare_circuit(c, use_unateness=True)
        assert 0 < len(calls) <= 4


class TestPrepare:
    def test_prepare_yields_acyclic(self):
        c = minmax_circuit(4)
        prep = prepare_circuit(c, use_unateness=False)
        validate_circuit(prep.circuit)
        assert not feedback_latches(prep.circuit)
        assert prep.num_exposed == 8

    def test_forced_exposure_set(self):
        c = minmax_circuit(4)
        prep1 = prepare_circuit(c, use_unateness=False)
        prep2 = prepare_circuit(
            c.copy("again"), expose=sorted(prep1.exposed), use_unateness=False
        )
        assert set(prep2.exposed) == set(prep1.exposed)

    def test_prepare_acyclic_circuit_is_noop_shape(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a), name="o")
        prep = prepare_circuit(builder.circuit)
        assert prep.num_exposed == 0
        assert not prep.remodelled

    def test_prepare_with_unateness_remodels(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        prep = prepare_circuit(b.circuit, use_unateness=True)
        assert prep.remodelled == ["q"]
        assert prep.num_exposed == 0
        assert not feedback_latches(prep.circuit)
