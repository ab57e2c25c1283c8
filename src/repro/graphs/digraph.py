"""An edge-keyed directed multigraph.

This is the foundational data structure for the whole library.  Marked
graphs that model latency-insensitive systems (LISs) routinely contain
*parallel* edges -- two channels between the same pair of cores, or a
forward edge together with additional forward edges and backedges after
the doubling transform -- so a plain ``dict[node, set[node]]`` adjacency
is not enough.  Every edge therefore carries a unique integer key, and
all algorithms in :mod:`repro.graphs` operate on edge keys rather than
on ``(src, dst)`` pairs.

The implementation deliberately avoids any third-party dependency; the
test-suite cross-validates it against :mod:`networkx`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

__all__ = ["Edge", "Digraph", "GraphError"]


class GraphError(Exception):
    """Raised on structurally invalid graph operations."""


@dataclass(frozen=True)
class Edge:
    """A single directed edge.

    Attributes:
        key: Unique integer identifier within the owning graph.  Keys are
            never reused, even after edge removal, so they can safely be
            stored by client code (e.g. as channel identifiers).
        src: Source node.
        dst: Destination node.
        data: Mutable attribute dictionary (e.g. token counts, edge kind).
    """

    key: int
    src: Hashable
    dst: Hashable
    data: dict[str, Any] = field(default_factory=dict, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.key}: {self.src!r}->{self.dst!r}, {self.data})"


class Digraph:
    """A directed multigraph with integer-keyed edges and attribute dicts.

    Nodes may be any hashable value.  Edges are identified by an integer
    key returned from :meth:`add_edge`; parallel edges and self-loops are
    allowed.  Both nodes and edges carry attribute dictionaries.

    The class exposes the small, explicit API that the analysis layers
    need: adjacency queries by node and by edge key, copies, subgraphs,
    and structural predicates.  Algorithms (SCCs, cycle enumeration,
    minimum cycle mean, ...) live in sibling modules and take a
    :class:`Digraph` as input.
    """

    def __init__(self) -> None:
        self._node_data: dict[Hashable, dict[str, Any]] = {}
        self._edges: dict[int, Edge] = {}
        self._out: dict[Hashable, list[int]] = {}
        self._in: dict[Hashable, list[int]] = {}
        self._next_key = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable, **attrs: Any) -> Hashable:
        """Add ``node`` (idempotent); merge ``attrs`` into its data dict."""
        if node not in self._node_data:
            self._node_data[node] = {}
            self._out[node] = []
            self._in[node] = []
        self._node_data[node].update(attrs)
        return node

    def add_edge(self, src: Hashable, dst: Hashable, **attrs: Any) -> int:
        """Add a directed edge ``src -> dst`` and return its unique key.

        Missing endpoints are created implicitly.  Parallel edges are
        permitted: calling this twice with the same endpoints produces
        two distinct edges.
        """
        self.add_node(src)
        self.add_node(dst)
        key = self._next_key
        self._next_key += 1
        edge = Edge(key, src, dst, dict(attrs))
        self._edges[key] = edge
        self._out[src].append(key)
        self._in[dst].append(key)
        return key

    def remove_edge(self, key: int) -> Edge:
        """Remove and return the edge with ``key``."""
        try:
            edge = self._edges.pop(key)
        except KeyError:
            raise GraphError(f"no edge with key {key}") from None
        self._out[edge.src].remove(key)
        self._in[edge.dst].remove(key)
        return edge

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._node_data:
            raise GraphError(f"no node {node!r}")
        for key in list(self._out[node]):
            self.remove_edge(key)
        for key in list(self._in[node]):
            self.remove_edge(key)
        del self._node_data[node]
        del self._out[node]
        del self._in[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Iterator[Hashable]:
        return iter(self._node_data)

    @property
    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def node_data(self, node: Hashable) -> dict[str, Any]:
        try:
            return self._node_data[node]
        except KeyError:
            raise GraphError(f"no node {node!r}") from None

    def edge(self, key: int) -> Edge:
        try:
            return self._edges[key]
        except KeyError:
            raise GraphError(f"no edge with key {key}") from None

    def has_node(self, node: Hashable) -> bool:
        return node in self._node_data

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        """True if at least one edge ``src -> dst`` exists."""
        if src not in self._out:
            return False
        return any(self._edges[k].dst == dst for k in self._out[src])

    def edges_between(self, src: Hashable, dst: Hashable) -> list[Edge]:
        """All parallel edges ``src -> dst`` (possibly empty)."""
        if src not in self._out:
            return []
        return [self._edges[k] for k in self._out[src] if self._edges[k].dst == dst]

    def out_edges(self, node: Hashable) -> list[Edge]:
        try:
            keys = self._out[node]
        except KeyError:
            raise GraphError(f"no node {node!r}") from None
        return [self._edges[k] for k in keys]

    def in_edges(self, node: Hashable) -> list[Edge]:
        try:
            keys = self._in[node]
        except KeyError:
            raise GraphError(f"no node {node!r}") from None
        return [self._edges[k] for k in keys]

    def successors(self, node: Hashable) -> list[Hashable]:
        """Distinct successor nodes (parallel edges collapse to one entry)."""
        seen: dict[Hashable, None] = {}
        for edge in self.out_edges(node):
            seen.setdefault(edge.dst, None)
        return list(seen)

    def predecessors(self, node: Hashable) -> list[Hashable]:
        """Distinct predecessor nodes."""
        seen: dict[Hashable, None] = {}
        for edge in self.in_edges(node):
            seen.setdefault(edge.src, None)
        return list(seen)

    def out_degree(self, node: Hashable) -> int:
        """Number of outgoing edges (counting parallels)."""
        return len(self._out[node])

    def in_degree(self, node: Hashable) -> int:
        """Number of incoming edges (counting parallels)."""
        return len(self._in[node])

    def number_of_nodes(self) -> int:
        return len(self._node_data)

    def number_of_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._node_data

    def __len__(self) -> int:
        return len(self._node_data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._node_data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Digraph":
        """A deep structural copy; edge keys are preserved."""
        g = type(self)()
        g._node_data = {node: dict(data) for node, data in self._node_data.items()}
        g._out = {node: list(keys) for node, keys in self._out.items()}
        g._in = {node: list(keys) for node, keys in self._in.items()}
        g._edges = {
            key: Edge(key, edge.src, edge.dst, dict(edge.data))
            for key, edge in self._edges.items()
        }
        g._next_key = self._next_key
        return g

    def subgraph(self, nodes: Iterable[Hashable]) -> "Digraph":
        """The induced subgraph on ``nodes``; edge keys are preserved."""
        keep = set(nodes)
        missing = keep - set(self._node_data)
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, missing))}")
        g = type(self)()
        for node in keep:
            g.add_node(node, **self._node_data[node])
        for edge in self._edges.values():
            if edge.src in keep and edge.dst in keep:
                g._edges[edge.key] = Edge(
                    edge.key, edge.src, edge.dst, dict(edge.data)
                )
                g._out[edge.src].append(edge.key)
                g._in[edge.dst].append(edge.key)
        g._next_key = self._next_key
        return g

    def reversed(self) -> "Digraph":
        """A copy with every edge direction flipped (keys preserved)."""
        g = type(self)()
        for node, data in self._node_data.items():
            g.add_node(node, **data)
        for edge in self._edges.values():
            g._edges[edge.key] = Edge(edge.key, edge.dst, edge.src, dict(edge.data))
            g._out[edge.dst].append(edge.key)
            g._in[edge.src].append(edge.key)
        g._next_key = self._next_key
        return g

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def self_loops(self) -> list[Edge]:
        return [e for e in self._edges.values() if e.src == e.dst]

    def sources(self) -> list[Hashable]:
        """Nodes with no incoming edges."""
        return [n for n in self._node_data if not self._in[n]]

    def sinks(self) -> list[Hashable]:
        """Nodes with no outgoing edges."""
        return [n for n in self._node_data if not self._out[n]]
