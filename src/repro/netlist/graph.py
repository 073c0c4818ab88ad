"""Structural graph analyses over circuits.

Provides the directed-graph views used by the paper:

* the *signal graph* (Sec. 7.1): one node per gate/latch/PI/PO, an edge per
  fanout relation — cyclic in general because of latch feedback;
* the *latch dependency graph*: latch → latch edges whenever a combinational
  path connects them (through gates only), used by the exposure heuristic;
* feedback classification: self-loop latches, latches inside non-trivial
  strongly connected components, acyclicity tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

import networkx as nx

from repro.netlist.circuit import Circuit

__all__ = [
    "signal_graph",
    "latch_dependency_graph",
    "latch_sccs",
    "self_loop_latches",
    "feedback_latches",
    "is_acyclic_sequential",
    "has_combinational_cycle",
    "transitive_fanin",
    "transitive_fanout",
    "combinational_fanin_cone",
]


def signal_graph(circuit: Circuit) -> "nx.DiGraph":
    """The full signal-level dependency graph (latches included)."""
    g = nx.DiGraph()
    g.add_nodes_from(circuit.signals())
    for gate in circuit.gates.values():
        for src in gate.inputs:
            g.add_edge(src, gate.output)
    for latch in circuit.latches.values():
        g.add_edge(latch.data, latch.output)
        if latch.enable is not None:
            g.add_edge(latch.enable, latch.output)
    return g


def has_combinational_cycle(circuit: Circuit) -> bool:
    """True if gates (excluding latches) form a cycle — an invalid circuit."""
    try:
        circuit.topo_gates()
    except ValueError:
        return True
    return False


def _gate_fanout_map(circuit: Circuit) -> Dict[str, List[str]]:
    fanouts: Dict[str, List[str]] = {}
    for gate in circuit.gates.values():
        for src in gate.inputs:
            fanouts.setdefault(src, []).append(gate.output)
    return fanouts


def _combinational_reach_from(
    circuit: Circuit,
    sources: Set[str],
    fanouts: Optional[Dict[str, List[str]]] = None,
) -> Set[str]:
    """Signals reachable from ``sources`` through gates only."""
    if fanouts is None:
        fanouts = _gate_fanout_map(circuit)
    reached: Set[str] = set()
    stack = list(sources)
    while stack:
        sig = stack.pop()
        for out in fanouts.get(sig, ()):
            if out not in reached:
                reached.add(out)
                stack.append(out)
    return reached


def latch_dependency_graph(circuit: Circuit) -> "nx.DiGraph":
    """Latch → latch edges through combinational logic.

    Edge ``p → q`` exists iff latch ``q``'s data or enable input depends
    combinationally on latch ``p``'s output (possibly directly).

    Implemented as one reverse pass: for every gate (in topological order)
    the set of latches in its combinational fanin is the union over its
    fanins' sets, so the whole graph costs one sweep plus set unions.
    """
    g = nx.DiGraph()
    g.add_nodes_from(circuit.latches)
    # Latch sources feeding each signal, propagated through gates.
    latch_ids = {name: i for i, name in enumerate(circuit.latches)}
    sources: Dict[str, int] = {}  # signal -> bitmask of latch ids
    for name, idx in latch_ids.items():
        sources[name] = 1 << idx
    for gate in circuit.topo_gates():
        mask = 0
        for s in gate.inputs:
            mask |= sources.get(s, 0)
        sources[gate.output] = mask
    names = list(circuit.latches)
    for latch in circuit.latches.values():
        mask = sources.get(latch.data, 0)
        if latch.enable is not None:
            mask |= sources.get(latch.enable, 0)
        while mask:
            low = mask & -mask
            g.add_edge(names[low.bit_length() - 1], latch.output)
            mask ^= low
    return g


def latch_sccs(circuit: Circuit) -> List[FrozenSet[str]]:
    """Non-trivial SCCs of the latch dependency graph (incl. self-loops)."""
    g = latch_dependency_graph(circuit)
    sccs = []
    for comp in nx.strongly_connected_components(g):
        comp = frozenset(comp)
        if len(comp) > 1:
            sccs.append(comp)
        else:
            (node,) = comp
            if g.has_edge(node, node):
                sccs.append(comp)
    return sccs


def self_loop_latches(circuit: Circuit) -> Set[str]:
    """Latches whose next-state cone reads their own output."""
    g = latch_dependency_graph(circuit)
    return {n for n in g.nodes if g.has_edge(n, n)}


def feedback_latches(circuit: Circuit) -> Set[str]:
    """All latches on some latch-level cycle."""
    out: Set[str] = set()
    for comp in latch_sccs(circuit):
        out |= comp
    return out


def is_acyclic_sequential(circuit: Circuit) -> bool:
    """True for the paper's 'acyclic sequential circuit' class (Sec. 5)."""
    return not feedback_latches(circuit)


def transitive_fanin(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """All signals in the (sequential) transitive fanin of ``roots``."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        stack.extend(circuit.fanin_signals(sig))
    return seen


def transitive_fanout(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """All signals in the (sequential) transitive fanout of ``roots``."""
    fanouts = circuit.fanout_map()
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        stack.extend(fanouts.get(sig, ()))
    return seen


def combinational_fanin_cone(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """Signals in the fanin cone of ``roots`` stopping at latches and PIs."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        if sig in circuit.gates:
            stack.extend(circuit.gates[sig].inputs)
    return seen
