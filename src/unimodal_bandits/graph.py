"""Undirected arm graphs and the mean-vector unimodality check."""

from collections import deque
from dataclasses import dataclass

from .errors import ParameterError


class UnimodalGraph:
    """Connected undirected graph over arm indices 0..arm_count-1.

    Immutable once built. Neighbor lists are sorted tuples so that any
    iteration (and hence tie-breaking downstream) is deterministic.
    """

    def __init__(self, arm_count, edges):
        arm_count = int(arm_count)
        if arm_count < 1:
            raise ParameterError(f"arm_count must be >= 1, got {arm_count}")
        canon = set()
        for e in edges:
            a, b = e
            a, b = int(a), int(b)
            if a == b:
                raise ParameterError(f"self-loop at arm {a}")
            if not (0 <= a < arm_count and 0 <= b < arm_count):
                raise ParameterError(f"edge ({a}, {b}) outside [0, {arm_count})")
            canon.add((a, b) if a < b else (b, a))
        adj = [set() for _ in range(arm_count)]
        for a, b in canon:
            adj[a].add(b)
            adj[b].add(a)
        if arm_count > 1:
            seen = {0}
            queue = deque([0])
            while queue:
                for b in adj[queue.popleft()]:
                    if b not in seen:
                        seen.add(b)
                        queue.append(b)
            if len(seen) != arm_count:
                missing = sorted(set(range(arm_count)) - seen)
                raise ParameterError(f"graph is not connected; unreachable arms {missing}")
        self.arm_count = arm_count
        self.edges = frozenset(canon)
        self._adj = tuple(tuple(sorted(s)) for s in adj)
        self._cands = tuple(tuple(sorted(s | {a})) for a, s in enumerate(adj))

    def neighbors(self, a):
        """Adjacent arms of a, sorted, excluding a itself."""
        if not 0 <= a < self.arm_count:
            raise ParameterError(f"arm {a} outside [0, {self.arm_count})")
        return self._adj[a]

    def candidates(self, a):
        """Sorted tuple {a} | neighbors(a); the per-leader eligible set."""
        if not 0 <= a < self.arm_count:
            raise ParameterError(f"arm {a} outside [0, {self.arm_count})")
        return self._cands[a]

    def max_degree(self):
        return max(len(s) for s in self._adj)

    def __repr__(self):
        return f"UnimodalGraph(arm_count={self.arm_count}, edges={sorted(self.edges)})"


def line_graph(n):
    """Path graph 0-1-...-(n-1)."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"line graph needs at least 2 arms, got {n}")
    return UnimodalGraph(n, [(i, i + 1) for i in range(n - 1)])


@dataclass(frozen=True)
class UnimodalityReport:
    ok: bool
    offending: tuple = ()
    reason: str = ""


def validate_unimodal(graph, means):
    """Check that means admits a unique argmax reachable from every arm
    along a strictly increasing neighbor path.

    Decidable form: the argmax must be unique and every other arm must have
    at least one strictly better neighbor. Greedy ascent then always
    terminates at the argmax; conversely an arm with no better neighbor has
    no increasing path out, so the two formulations agree.
    """
    if len(means) != graph.arm_count:
        raise ParameterError(
            f"means length {len(means)} != arm_count {graph.arm_count}"
        )
    means = [float(m) for m in means]
    best = max(means)
    top = tuple(a for a, m in enumerate(means) if m == best)
    if len(top) > 1:
        return UnimodalityReport(False, top, "argmax not unique")
    a_star = top[0]
    stuck = tuple(
        a
        for a in range(graph.arm_count)
        if a != a_star and all(means[b] <= means[a] for b in graph.neighbors(a))
    )
    if stuck:
        return UnimodalityReport(False, stuck, "no strictly increasing path to the best arm")
    return UnimodalityReport(True)
