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
phrase completes, after its parent's. The partial phrase in flight when the
trace ends stays in the per-node statistics; no special end-of-stream
handling.
"""

from __future__ import annotations

from .core import DomainError, RequestTrace
from .fsm import Machine, state_file_counts, top_c_hits
from .sage import EtaConfig, MachineSagePolicy


class LzNode:
    __slots__ = ("parent", "depth", "symbol", "children", "visits")

    def __init__(self, parent: int, depth: int, symbol: int):
        self.parent = parent
        self.depth = depth
        self.symbol = symbol  # edge label from the parent; -1 at the root
        self.children: dict[int, int] = {}
        self.visits = 0  # requests consumed while this node was current


class LzTree(Machine):
    """Parse-tree machine: node records, current-node pointer, phrase count."""

    def __init__(self, n_files: int):
        if n_files < 1:
            raise DomainError(f"library size must be >= 1, got {n_files}")
        self.n_files = n_files
        self.nodes: list[LzNode] = [LzNode(parent=-1, depth=0, symbol=-1)]
        self.current = 0
        self.phrase_count = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def consumed(self) -> int:
        return sum(node.visits for node in self.nodes)

    def advance(self, request: int) -> None:
        """Record one request at the current node and walk the parse.

        If the current node lacks a child for the request, the phrase is
        complete: the child is created and the walk resets to the root.
        """
        if not 0 <= request < self.n_files:
            raise DomainError(f"request {request} outside [0, {self.n_files})")
        cur = self.current
        node = self.nodes[cur]
        node.visits += 1
        child = node.children.get(request)
        if child is None:
            child_id = len(self.nodes)
            self.nodes.append(LzNode(parent=cur, depth=node.depth + 1, symbol=request))
            node.children[request] = child_id
            self.phrase_count += 1
            self.current = 0
        else:
            self.current = child


def depth_split_counts(tree: LzTree, k: int) -> tuple[int, int]:
    """Partition consumed requests by the depth of the consuming node:
    (requests at depth < k, requests at depth >= k)."""
    if k < 0:
        raise DomainError(f"depth threshold must be >= 0, got {k}")
    shallow = sum(node.visits for node in tree.nodes if node.depth < k)
    return shallow, tree.consumed() - shallow


def dump_tree(tree: LzTree, fh) -> None:
    """Diagnostic dump: one line "node_id parent_id depth symbol visit_count"."""
    for nid, node in enumerate(tree.nodes):
        fh.write(f"{nid} {node.parent} {node.depth} {node.symbol} {node.visits}\n")


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
