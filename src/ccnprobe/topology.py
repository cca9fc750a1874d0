"""Static network graphs, per-router shortest-path tables, and node failures."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .model import RouterId

VALID_ROLES = ("producer", "consumer", "router")


class TopologyError(ValueError):
    """Raised for malformed topology files or invalid graph operations."""


class Graph:
    """Undirected graph of routers with node roles.

    Immutable by convention after construction; failure handling produces a
    new Graph via `apply_failure`.
    """

    def __init__(self):
        self.name_of: dict[RouterId, str] = {}
        self.id_of: dict[str, RouterId] = {}
        self.roles: dict[RouterId, frozenset[str]] = {}
        self.adj: dict[RouterId, list[RouterId]] = {}
        self.links: set[tuple[RouterId, RouterId]] = set()  # both directions

    @property
    def nodes(self) -> list[RouterId]:
        return sorted(self.name_of)

    def add_node(self, name: str, roles: frozenset[str]) -> RouterId:
        if name in self.id_of:
            raise TopologyError(f"duplicate node {name!r}")
        rid = len(self.name_of)
        self.name_of[rid] = name
        self.id_of[name] = rid
        self.roles[rid] = roles
        self.adj[rid] = []
        return rid

    def add_edge(self, a: RouterId, b: RouterId) -> None:
        if a == b:
            raise TopologyError(f"self-loop on node {self.name_of[a]!r}")
        if (a, b) in self.links:
            raise TopologyError(
                f"duplicate edge {self.name_of[a]!r} -- {self.name_of[b]!r}")
        self.links.add((a, b))
        self.links.add((b, a))
        self.adj[a].append(b)
        self.adj[b].append(a)
        self.adj[a].sort()
        self.adj[b].sort()

    def nodes_with_role(self, role: str) -> list[RouterId]:
        return [rid for rid in self.nodes if role in self.roles[rid]]

    def producers(self) -> list[RouterId]:
        return self.nodes_with_role("producer")

    def consumers(self) -> list[RouterId]:
        return self.nodes_with_role("consumer")

    def pure_routers(self) -> list[RouterId]:
        """Nodes that only forward: eligible victims for failure injection."""
        return [rid for rid in self.nodes
                if self.roles[rid] == frozenset({"router"})]


@dataclass(frozen=True, slots=True)
class SPTEntry:
    cost: int                    # hops
    outgoing_interface: RouterId  # adjacent first hop


# Every table holds its entries from here: one object per (cost, first hop)
# pair across all graphs and rebuilds, which is safe because entries are
# frozen. The pairs are bounded by the hop diameter times the router count.
_ENTRIES: dict[tuple[int, RouterId], SPTEntry] = {}


class SPTable:
    """One router's shortest-path table: hop cost and first hop per destination.

    No entry exists for the owner itself or for unreachable routers.
    """

    def __init__(self, entries: dict[RouterId, SPTEntry]):
        self.entries = entries

    def cost(self, destination: RouterId) -> int | None:
        entry = self.entries.get(destination)
        return entry.cost if entry is not None else None

    def first_hop(self, destination: RouterId) -> RouterId | None:
        entry = self.entries.get(destination)
        return entry.outgoing_interface if entry is not None else None


def build_spt(graph: Graph, source: RouterId) -> SPTable:
    """BFS hop-count table from `source`.

    Among equal-cost routes the first hop with the lowest router id wins, so
    reruns over the same graph are byte-identical.
    """
    if source not in graph.name_of:
        raise TopologyError(f"source {source} not in graph")
    dist: dict[RouterId, int] = {source: 0}
    first: dict[RouterId, RouterId] = {}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        for nb in graph.adj[node]:  # ascending id order
            if nb not in dist:
                dist[nb] = d + 1
                first[nb] = nb if node == source else first[node]
                queue.append(nb)
            elif dist[nb] == d + 1 and node != source:
                # A same-cost parent discovered later may still offer a
                # lower-id first hop.
                if first[node] < first[nb]:
                    first[nb] = first[node]
    entries = {}
    for rid, d in dist.items():
        if rid != source:
            key = (d, first[rid])
            entry = _ENTRIES.get(key)
            if entry is None:
                entry = _ENTRIES[key] = SPTEntry(*key)
            entries[rid] = entry
    return SPTable(entries)


def build_all_spts(graph: Graph) -> dict[RouterId, SPTable]:
    return {rid: build_spt(graph, rid) for rid in graph.nodes}


def apply_failure(graph: Graph, victim: RouterId) -> Graph:
    """Graph without `victim` and its incident edges.

    Router ids of survivors are preserved; the caller must rebuild every
    surviving router's SPTable.
    """
    if victim not in graph.name_of:
        raise TopologyError(f"victim {victim} not in graph")
    out = Graph()
    out.name_of = {rid: n for rid, n in graph.name_of.items() if rid != victim}
    out.id_of = {n: rid for rid, n in out.name_of.items()}
    out.roles = {rid: r for rid, r in graph.roles.items() if rid != victim}
    out.adj = {rid: [nb for nb in nbs if nb != victim]
               for rid, nbs in graph.adj.items() if rid != victim}
    out.links = {(a, b) for a, b in graph.links
                 if a != victim and b != victim}
    return out


def read_topology(source: str | Path) -> tuple[str, str | None]:
    """The topology text `source` names, and the file's basename.

    A `Path` is a file. A string is literal text when it holds a newline or
    starts with a comment or a record, and a file path otherwise; literal
    text has no file name (None).
    """
    if isinstance(source, str) and (
            "\n" in source or source.strip().startswith(("#", "node ", "edge "))):
        return source, None
    path = Path(source)
    return path.read_text(), path.name


def load_topology(source: str | Path) -> Graph:
    """Parse a topology file (or literal text) into a Graph.

    Format, one record per line:
        node <name> [producer|consumer|router]...
        edge <a> <b>
    `#` starts a comment. A node with no role flags is a plain router.
    Link delay and bandwidth are the scenario's, the same for every link.
    """
    text, _name = read_topology(source)
    graph = Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "node":
            if len(fields) < 2:
                raise TopologyError(f"line {lineno}: node record needs a name")
            name, flags = fields[1], fields[2:]
            for flag in flags:
                if flag not in VALID_ROLES:
                    raise TopologyError(
                        f"line {lineno}: unknown role {flag!r} on node {name!r}")
            roles = frozenset(flags) if flags else frozenset({"router"})
            try:
                graph.add_node(name, roles)
            except TopologyError as exc:
                raise TopologyError(f"line {lineno}: {exc}") from None
        elif kind == "edge":
            if len(fields) != 3:
                raise TopologyError(
                    f"line {lineno}: edge record needs exactly 2 node names")
            a_name, b_name = fields[1], fields[2]
            for n in (a_name, b_name):
                if n not in graph.id_of:
                    raise TopologyError(f"line {lineno}: unknown node {n!r}")
            try:
                graph.add_edge(graph.id_of[a_name], graph.id_of[b_name])
            except TopologyError as exc:
                raise TopologyError(f"line {lineno}: {exc}") from None
        else:
            raise TopologyError(f"line {lineno}: unknown record {kind!r}")
    return graph
