"""Universal caching via LZ-78 incremental parsing.

The request stream is parsed into phrases, each the shortest string not
previously parsed. The parse tree doubles as a state machine: every request
is consumed at the current node, which predicts it with its own SAGE
instance; following an existing child continues the phrase, while a missing
child completes the phrase (creating that child) and resets the walk to the
root. Children are created lazily on first use, so the node count equals
root + completed phrases; per-node statistics and phrase boundaries are
unaffected by the laziness, and a fully N-ary materialization would hold
(internal nodes) * N + 1 nodes instead.

`LzTree.advance` is the one place that decides where a phrase ends: phrase
i is the path from the root to node i + 1, since a node is created when its
phrase completes, after its parent's. The tree is one dict, from the edge
key `node * n_files + symbol` to the child's id, filled in child-id order,
and a list of node depths. A node's visits are how often `states` yields
it. The partial phrase in flight when the trace ends stays in the per-node
statistics; no special end-of-stream handling.
"""

from __future__ import annotations

from .core import DomainError, RequestTrace
from .fsm import Machine, state_file_counts, top_c_hits
from .sage import EtaConfig, MachineSagePolicy


class LzTree(Machine):
    """Parse-tree machine: the edge table, the node depths, the current node."""

    __slots__ = ("n_files", "edges", "depth", "current")

    def __init__(self, n_files: int):
        if n_files < 1:
            raise DomainError(f"library size must be >= 1, got {n_files}")
        self.n_files = n_files
        self.edges: dict[int, int] = {}  # node * n_files + symbol -> child id
        self.depth = [0]
        self.current = 0

    @property
    def node_count(self) -> int:
        return len(self.depth)

    def advance(self, request: int) -> None:
        """Walk the parse from the current node, which consumes the request.

        If the current node lacks a child for the request, the phrase is
        complete: the child is created and the walk resets to the root.
        """
        if not 0 <= request < self.n_files:
            raise DomainError(f"request {request} outside [0, {self.n_files})")
        key = self.current * self.n_files + request
        child = self.edges.get(key)
        if child is None:
            depth = self.depth
            self.edges[key] = len(depth)
            depth.append(depth[self.current] + 1)
            self.current = 0
        else:
            self.current = child


def depth_split_counts(tree: LzTree, visits: dict[int, int], k: int) -> tuple[int, int]:
    """Partition consumed requests, `visits` per node id, by the depth of the
    consuming node: (requests at depth < k, requests at depth >= k)."""
    if k < 0:
        raise DomainError(f"depth threshold must be >= 0, got {k}")
    shallow = sum(n for node, n in visits.items() if tree.depth[node] < k)
    return shallow, sum(visits.values()) - shallow


def dump_tree(tree: LzTree, visits: dict[int, int], fh) -> None:
    """Diagnostic dump: one line "node_id parent_id depth symbol visit_count"
    per node, with `visits` as `Counter(tree.states(requests))` counts them."""
    n, depth, seen = tree.n_files, tree.depth, visits.get
    fh.write(f"0 -1 0 -1 {seen(0, 0)}\n")
    for key, nid in tree.edges.items():
        fh.write(f"{nid} {key // n} {depth[nid]} {key % n} {seen(nid, 0)}\n")


class LzSagePolicy(MachineSagePolicy):
    """SAGE at every parse-tree node; the node consuming a request predicts it."""

    def __init__(self, n_files: int, cache_size: int,
                 eta_config: EtaConfig | None = None, seed: int = 0, name: str = "lz"):
        super().__init__(name, LzTree(n_files), n_files, cache_size, eta_config, seed)


def offline_lz_oracle(trace: RequestTrace, cache_size: int) -> tuple[int, int, int]:
    """Best-in-hindsight prefetching aligned with the same parse-tree growth.

    Replays the parse, then scores each node by the total count of its C
    most-consumed files. Returns (miss count, hit count, node count); the
    first two sum to T, the last is the final tree's size.
    """
    if not 1 <= cache_size <= trace.n_files:
        raise DomainError(f"cache size {cache_size} outside [1, {trace.n_files}]")
    n = trace.n_files
    tree = LzTree(n)
    hits = top_c_hits(state_file_counts(tree, trace.requests, n), cache_size, n)
    return len(trace) - hits, hits, tree.node_count
