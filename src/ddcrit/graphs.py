"""Immutable bitset graphs and the exact structural predicates built on them.

Everything in this package works on simple undirected graphs with at most 64
vertices, so one adjacency row fits in a machine word and neighborhood algebra
is plain integer arithmetic. Graphs are hashable value objects; every
operation returns a fresh graph, which makes all of this safe to call from
concurrent workers.

graph6 is the only interchange format: one graph per line, header-less short
form for n <= 62 plus the '~'-prefixed long form, bit-exact with the published
encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in _bits(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph from rows already known valid (a tuple of n symmetric,
        loop-free rows), built without the checks of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    # -- basic accessors ----------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u] >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def non_edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            missing = ~self.rows[u] & ((1 << self.n) - 1) & ~((1 << (u + 1)) - 1)
            out.extend((u, v) for v in _bits(missing))
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- graph6 codec ------------------------------------------------------------


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line. Raises :class:`Graph6Error` naming the bad byte."""
    line = text.rstrip("\r\n")
    if not line:
        raise Graph6Error("empty graph6 line", 0)
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", i)
    if data[0] == 126:  # long form '~'
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("vertex count exceeds 64", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form vertex count", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = 4
    else:
        n = data[0] - 63
        body = 1
    if n == 0:
        raise Graph6Error("empty graphs are not supported", 0)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds {MAX_VERTICES}", body - 1 if body > 1 else 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - body < nbytes:
        raise Graph6Error("truncated edge bit body", len(data))
    if len(data) - body > nbytes:
        raise Graph6Error("trailing bytes after edge bit body", body + nbytes)
    padding = nbytes * 6 - nbits
    if (data[-1] - 63) & ((1 << padding) - 1):
        raise Graph6Error("non-zero padding bits", len(data) - 1)
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (data[body + (k // 6)] - 63) >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    # each bit sets both rows, off the diagonal, below n <= 64
    return Graph._trusted(n, tuple(rows))


def _graph6(n: int, rows) -> bytes:
    """The graph6 bytes of adjacency rows on n vertices."""
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = 0
    nb = 0
    for j in range(1, n):
        row = rows[j]
        for i in range(j):
            acc = (acc << 1) | ((row >> i) & 1)
            nb += 1
            if nb == 6:
                out.append(acc + 63)
                acc = 0
                nb = 0
    if nb:
        out.append((acc << (6 - nb)) + 63)
    return bytes(out)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one header-less graph6 line (without the newline)."""
    return _graph6(g.n, g.rows).decode("ascii")


# -- elementary operations ---------------------------------------------------


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of ``g`` with the extra edge uv."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        raise ValueError("cannot add a self-loop")
    if g.adjacent(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def min_degree(g: Graph) -> int:
    return min(r.bit_count() for r in g.rows)


def _vertex_mask(g: Graph, vertices) -> int:
    m = 0
    for v in vertices:
        g.check_vertex(v)
        m |= 1 << v
    return m


def _component_masks(g: Graph, removed_mask: int = 0) -> list[int]:
    alive = ((1 << g.n) - 1) & ~removed_mask
    comps = []
    while alive:
        seed = alive & -alive
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= g.rows[v]
            frontier = grow & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def components(g: Graph, removed=frozenset()) -> list[frozenset]:
    """Connected components of ``g`` minus ``removed``, ordered by least vertex."""
    masks = _component_masks(g, _vertex_mask(g, removed))
    return [frozenset(_bits(m)) for m in masks]


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g)) == 1


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        grow = 0
        for v in _bits(frontier):
            grow |= g.rows[v]
        frontier = grow & ~seen
        seen |= frontier
        d += 1
        for v in _bits(frontier):
            dist[v] = d
    return dist


def diameter(g: Graph) -> Optional[int]:
    """Greatest BFS distance over all pairs; ``None`` when disconnected."""
    best = 0
    for s in range(g.n):
        dist = _bfs_distances(g, s)
        far = max(dist)
        if -1 in dist:
            return None
        best = max(best, far)
    return best


# -- vertex connectivity: Even's method on the adjacency masks ----------------


def _path_count(rows: tuple[int, ...], s: int, t: int, limit: int) -> int:
    """min(limit, number of internally vertex-disjoint s-t paths), s and t nonadjacent.

    Augmenting paths in the vertex-split network, which stays implicit: node
    v < n is v's entry, n + v its exit, and the only flow state is
    ``into[v]``, the vertices whose path goes on into v (at most one, except
    at t). An exit reaches every neighbor's entry. An entry leaves through
    its free vertex; at a vertex carrying a path it takes back the path's arc
    into it instead. The exit of a vertex carrying a path re-enters it.
    """
    n = len(rows)
    into = [0] * n
    flow = 0
    while flow < limit:
        via = [-1] * (2 * n)  # the node each reached node was reached from
        via[n + s] = n + s
        entered = 1 << s
        queue = [n + s]
        for x in queue:  # breadth first: the queue grows while it is read
            if x >= n:
                u = x - n
                fresh = rows[u] & ~entered
                if into[u]:  # re-enter u
                    fresh |= 1 << u & ~entered
                entered |= fresh
                for v in _bits(fresh):
                    via[v] = x
                    queue.append(v)
                if via[t] >= 0:
                    break
            elif into[x]:  # take back the arc p -> x
                p = n + into[x].bit_length() - 1
                if via[p] < 0:
                    via[p] = x
                    queue.append(p)
            elif via[n + x] < 0:  # through x
                via[n + x] = x
                queue.append(n + x)
        if via[t] < 0:
            return flow
        x = t
        while x != n + s:
            y = via[x]
            if x < n <= y and y != n + x:  # the edge from y's vertex into x
                into[x] |= 1 << (y - n)
            elif y < n <= x and x != n + y:  # taken back: no path goes from x's vertex into y
                into[y] &= ~(1 << (x - n))
            x = y
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph.

    Complete graphs return n-1 by convention. Requires n >= 2. Even's
    method: a minimum cut S misses one of vertices 0..|S|, and the least
    vertex it misses is cut from some later non-neighbor, so only those
    sources are counted, against later non-neighbors, with every count
    stopped at the best cut so far. The minimum degree bounds the cut.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    rows = g.rows
    best = min(r.bit_count() for r in rows)
    s = 0
    while s <= best:
        for t in _bits(((1 << g.n) - 1) & ~rows[s] & -(2 << s)):
            best = _path_count(rows, s, t, best)
        s += 1
    return best


# -- induced stars -----------------------------------------------------------


class StarWitness(NamedTuple):
    center: int
    leaves: tuple[int, ...]


def _independent_tuple(g: Graph, candidates: int, size: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least pairwise-nonadjacent ``size``-tuple inside a mask."""
    if size == 0:
        return ()
    for v in _bits(candidates):
        rest = candidates & ~g.rows[v] & ~((1 << (v + 1)) - 1)
        tail = _independent_tuple(g, rest, size - 1)
        if tail is not None:
            return (v,) + tail
    return None


def is_k1r_free(g: Graph, r: int):
    """Test for induced stars with ``r`` leaves.

    Returns ``(True, None)`` when no vertex has r pairwise-nonadjacent
    neighbors, else ``(False, StarWitness(center, leaves))`` for the least
    witness.
    """
    if r < 2:
        raise ValueError("star order r must be at least 2")
    for center in range(g.n):
        leaves = _independent_tuple(g, g.rows[center], r)
        if leaves is not None:
            return False, StarWitness(center, leaves)
    return True, None


def independence_number(g: Graph) -> tuple[int, frozenset]:
    """Exact independence number with one maximum independent set."""
    best_size = 0
    best_mask = 0

    def expand(cand: int, cur_mask: int, cur_size: int):
        nonlocal best_size, best_mask
        if cur_size + cand.bit_count() <= best_size:
            return
        if not cand:
            best_size, best_mask = cur_size, cur_mask
            return
        # branch on the vertex with most neighbors among the candidates
        v = max(_bits(cand), key=lambda u: ((g.rows[u] & cand).bit_count(), -u))
        expand(cand & ~g.rows[v] & ~(1 << v), cur_mask | (1 << v), cur_size + 1)
        expand(cand & ~(1 << v), cur_mask, cur_size)

    expand((1 << g.n) - 1, 0, 0)
    return best_size, frozenset(_bits(best_mask))


# -- canonical labeling -------------------------------------------------------


def _refine(rows: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine ordered cells (vertex masks) until equitable.

    Every cell splits by its members' neighbor counts, parts in count order
    and in the cell's place, until no cell splits; singletons are skipped.
    ``splitters`` are the cells whose counts may still vary inside a cell:
    after the first round, the parts split off last, less the last part of
    each split cell.

    Each round counts every vertex's neighbors in each splitter with a
    bit-sliced counter, one mask per count bit, so a cell splits by plain
    mask ANDs: by each count bit, most significant first, one splitter after
    the next. Nested splits that keep the zero side first order the parts
    exactly as the count tuples order them, so the cells come out in the
    order the full signatures give, not just as the same partition.
    """
    while splitters:
        planes = []
        for s in splitters:
            if s & (s - 1) == 0:  # one vertex: its row is the only count bit
                planes.append(rows[s.bit_length() - 1])
                continue
            acc: list[int] = []  # count bits, least significant first
            while s:
                low = s & -s
                s ^= low
                carry = rows[low.bit_length() - 1]
                for i in range(len(acc)):
                    acc[i], carry = acc[i] ^ carry, acc[i] & carry
                    if not carry:
                        break
                if carry:
                    acc.append(carry)
            planes.extend(reversed(acc))
        refined = []
        splitters = []
        for cell in cells:
            if cell & (cell - 1) == 0:  # singleton
                refined.append(cell)
                continue
            parts = [cell]
            for plane in planes:
                if cell & plane and cell & ~plane:
                    split = []
                    for part in parts:
                        hit = part & plane
                        if hit and hit != part:
                            split.append(part ^ hit)
                            split.append(hit)
                        else:
                            split.append(part)
                    parts = split
            refined.extend(parts)
            splitters.extend(parts[:-1])
        cells = refined
    return cells


def _canonical(rows: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """Canonical adjacency rows, a permutation achieving them, and automorphisms.

    Backtracks over equitable partitions, individualizing each vertex of the
    first smallest non-singleton cell in ascending order, and returns the
    lexicographically least relabeled adjacency with the permutation of the
    first leaf, in that search order, that gives it (``perm[v]`` is the
    label of vertex v). Both are functions of the whole search tree, and the
    tree is invariant under automorphisms, so the search may skip any subtree
    that is an automorphism's image of one searched earlier. It does so three
    ways, and each keeps the result:

    - A child starts from its parent's cells with the individualized vertex
      ``{v}`` as the only splitter. The parent is equitable, so each cell's
      counts against every other cell are constant, and counting against
      ``{v}`` alone splits the cells, in the same order, as the first round
      of counting against all of them would.
    - A child in the orbit of an earlier sibling under the automorphisms
      found so far that fix the path is skipped. The orbits live in one
      union-find per node, into which only automorphisms found since the
      last sibling are merged.
    - A leaf is compared with the best row by row and dropped at the first
      larger row. A leaf equal to the best yields an automorphism mapping
      its path onto the best leaf's; it fixes the common prefix and maps
      the child where the paths part onto the best leaf's earlier sibling,
      so the search backs up to that depth: the rest of the abandoned
      subtree holds no smaller code and no earlier leaf with the best code.

    The third value is the list of automorphisms of ``rows`` the equal
    leaves gave, each a list mapping every vertex to its image; none is the
    identity. They generate the whole group: only subtrees that are images
    of searched ones under found automorphisms are skipped, so every leaf,
    and the image of the best leaf under any automorphism, is such an image
    of a scored leaf of the best code, so of the best leaf itself.

    The codes depend on the order of the cells ``_refine`` returns, so a
    faster refinement must keep that order, not just the partition.
    """
    best_code: list[int] = []
    best_inv: list[int] = []  # vertex of each label at the best leaf
    best_path: tuple[int, ...] = ()
    best_perm: tuple[int, ...] = ()
    auts: list[list[int]] = []

    def leaf(cells: list[int], path: tuple[int, ...]) -> Optional[int]:
        """Score a discrete partition; the depth to back up to, if any."""
        nonlocal best_code, best_inv, best_path, best_perm
        inv = [cell.bit_length() - 1 for cell in cells]
        perm = [0] * n
        for label, v in enumerate(inv):
            perm[v] = label
        code = []
        equal = bool(best_code)  # equal to the best so far, row by row
        for label, v in enumerate(inv):
            row = rows[v]
            m = 0
            while row:
                low = row & -row
                m |= 1 << perm[low.bit_length() - 1]
                row ^= low
            if equal and m != best_code[label]:
                if m > best_code[label]:
                    return None
                equal = False
            code.append(m)
        if equal:
            auts.append([best_inv[perm[v]] for v in range(n)])
            depth = 0
            while path[depth] == best_path[depth]:
                depth += 1
            return depth
        best_code, best_inv, best_path, best_perm = code, inv, path, tuple(perm)
        return None

    def search(cells: list[int], path: tuple[int, ...]) -> Optional[int]:
        if len(cells) == n:
            return leaf(cells, path)
        target = 0
        size = n + 1
        for i, c in enumerate(cells):
            k = c.bit_count()
            if 1 < k < size:
                target, size = i, k
        cell = cells[target]
        depth = len(path)
        orbit: list[int] = []
        merged = 0

        def find(x):
            while orbit[x] != x:
                orbit[x] = orbit[orbit[x]]
                x = orbit[x]
            return x

        tried = 0
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if tried:
                # skip v when a known automorphism fixing the path maps an
                # already-explored sibling onto it
                if not orbit:
                    orbit = list(range(n))
                for sigma in auts[merged:]:
                    if all(sigma[p] == p for p in path):
                        for a in range(n):
                            ra, rb = find(a), find(sigma[a])
                            if ra != rb:
                                orbit[ra] = rb
                merged = len(auts)
                root = find(v)
                if any(find(u) == root for u in _bits(tried)):
                    continue
            tried |= low
            child = cells[:target] + [low, cell ^ low] + cells[target + 1 :]
            back = search(_refine(rows, child, [low]), path + (v,))
            if back is not None and back < depth:
                return back
        return None

    search(_refine(rows, [(1 << n) - 1], [(1 << n) - 1]), ())
    return tuple(best_code), best_perm, auts


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant key: the graph6 line of the canonical relabeling."""
    return _graph6(g.n, _canonical(g.rows, g.n)[0])
