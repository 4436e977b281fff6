"""Independent brute-force oracles the solver results are checked against.

These deliberately avoid the library's clever code paths: plain subset
enumeration and exhaustive path search, correct by inspection, usable only on
tiny graphs.
"""

import itertools
from functools import lru_cache

from ddcrit.criticality import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CriticalityReport,
    NonEdgeDrop,
    Obs1Result,
    ProfileCheckResult,
)
from ddcrit.domination import all_minimum_dds, gamma_xk
from ddcrit.enumeration import _claw_touching
from ddcrit.graphs import (
    Graph,
    _bits,
    _canonical,
    _component_masks,
    _refine,
    add_edge,
    canonical_key,
    components,
    is_connected,
    min_degree,
)
from ddcrit.matching import FactorCriticalityVerdict, ParityError


def brute_max_matching_size(g: Graph) -> int:
    rows = g.rows

    @lru_cache(maxsize=None)
    def rec(alive: int) -> int:
        if not alive:
            return 0
        v = (alive & -alive).bit_length() - 1
        rest = alive & ~(1 << v)
        best = rec(rest)  # leave v unmatched
        for u in _bits(rows[v] & rest):
            best = max(best, 1 + rec(rest & ~(1 << u)))
        return best

    return rec((1 << g.n) - 1)


def brute_min_k_tuple_size(g: Graph, k: int):
    """Smallest-first subset enumeration; None when no set works."""
    closed = [g.rows[v] | (1 << v) for v in range(g.n)]
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if all((closed[v] & mask).bit_count() >= k for v in range(g.n)):
                return size
    return None


def brute_independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        if any(g.rows[v] & mask for v in _bits(mask)):
            continue
        best = max(best, mask.bit_count())
    return best


def exists_augmenting_path(g: Graph, matching) -> bool:
    """Exhaustive alternating simple-path search (full backtracking, so it
    does not miss paths through odd cycles)."""
    match = [-1] * g.n
    for u, v in matching:
        match[u] = v
        match[v] = u
    free = [v for v in range(g.n) if match[v] == -1]

    def extend(v: int, visited: frozenset) -> bool:
        # the path arrives at v ready to leave along an unmatched edge
        for u in g.neighbors(v):
            if u in visited or match[v] == u:
                continue
            if match[u] == -1:
                return True
            w = match[u]
            if w in visited:
                continue
            if extend(w, visited | {u, w}):
                return True
        return False

    return any(extend(s, frozenset([s])) for s in free)


FAVARON_MAX_VERTICES = 20


class EnumerationBoundError(ValueError):
    """Subset enumeration refused: the graph is too large for 2^n scanning."""


def is_k_factor_critical_favaron(g: Graph, k: int) -> FactorCriticalityVerdict:
    """Odd-component criterion: o(G-S) <= |S|-k for every S with |S| >= k.

    Enumerates subsets by size, then lexicographically, stopping at the first
    violation; this is the secondary oracle, bounded to small graphs.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in 0..{g.n}")
    if (g.n - k) % 2:
        raise ParityError(f"n={g.n} and k={k} have different parities")
    if g.n > FAVARON_MAX_VERTICES:
        raise EnumerationBoundError(
            f"subset enumeration capped at {FAVARON_MAX_VERTICES} vertices, got {g.n}"
        )
    for size in range(k, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            odd = sum(1 for m in _component_masks(g, mask) if m.bit_count() % 2)
            if odd > size - k:
                return FactorCriticalityVerdict(k, False, frozenset(combo))
    return FactorCriticalityVerdict(k, True)


def brute_diameter(g: Graph):
    import collections

    best = 0
    for s in range(g.n):
        dist = {s: 0}
        q = collections.deque([s])
        while q:
            v = q.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        if len(dist) < g.n:
            return None
        best = max(best, max(dist.values()))
    return best


NAIVE_MAX_VERTICES = 6


def naive_all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, by labeled enumeration."""
    if not 1 <= n <= NAIVE_MAX_VERTICES:
        raise ValueError(f"naive enumeration supports 1..{NAIVE_MAX_VERTICES} vertices")
    pairs = list(itertools.combinations(range(n), 2))
    seen: dict[bytes, Graph] = {}
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if mask >> idx & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        key = canonical_key(g)
        if key not in seen:
            seen[key] = g
    return [seen[k] for k in sorted(seen)]


def unpruned_levels(n: int, claw_free: bool = False, final_min_degree=None):
    """Augmentation enumeration that canonically labels every child.

    The library's enumerator with its vertex-invariant filter taken out: the
    claw and degree-floor prunes stay, every surviving child is labeled and
    deduplicated. Yields each level, sorted by canonical code.
    """
    level = [Graph.empty(1)]
    yield level
    for k in range(2, n + 1):
        floor = None if final_min_degree is None else final_min_degree - (n - k)
        seen: dict[tuple[int, ...], Graph] = {}
        for parent in level:
            for nbhd in range(1 << parent.n):
                rows = [r | ((nbhd >> v & 1) << parent.n) for v, r in enumerate(parent.rows)]
                rows.append(nbhd)
                if floor is not None and any(r.bit_count() < floor for r in rows):
                    continue
                if claw_free and _claw_touching(rows, parent.n):
                    continue
                code, _ = _canonical(tuple(rows), k)
                if code not in seen:
                    seen[code] = Graph(k, code)
        level = [seen[code] for code in sorted(seen)]
        yield level


def full_signature_refine(rows, n: int, colors: list[int]) -> list[int]:
    """Equitable refinement that re-signs every vertex against every cell.

    The library's refinement before it became cell-local: each round every
    vertex gets (its color, its neighbor counts in all cells), the colors are
    the ranks of those signatures, and rounds repeat until the coloring is
    unchanged. The library must return exactly this coloring.
    """
    while True:
        masks: dict[int, int] = {}
        for v in range(n):
            masks[colors[v]] = masks.get(colors[v], 0) | (1 << v)
        cell_masks = [masks[c] for c in sorted(masks)]
        sigs = []
        for v in range(n):
            rv = rows[v]
            sigs.append((colors[v], tuple((rv & m).bit_count() for m in cell_masks)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def equitable_refine(rows, n: int, colors: list[int]) -> list[int]:
    """``graphs._refine`` on a coloring: colors to ordered cells and back.

    Each round splits every cell by its members' neighbor counts in the
    cells, parts in count order and in the cell's place, so output colors
    are dense 0..k-1, follow the input order, and are relabeling-invariant.
    Singleton cells are skipped, and after the first round only the parts
    split off in the last round, less the last part of each split cell, are
    counted against: the other counts are equal within every cell, so the
    order is the one full count vectors give. Stops when no cell splits.
    """
    by_color: dict[int, int] = {}
    for v in range(n):
        by_color[colors[v]] = by_color.get(colors[v], 0) | (1 << v)
    cells = [by_color[c] for c in sorted(by_color)]
    out = [0] * n
    for color, cell in enumerate(_refine(rows, cells, cells)):
        while cell:
            low = cell & -cell
            cell ^= low
            out[low.bit_length() - 1] = color
    return out


def reference_canonical(rows, n: int):
    """Canonical adjacency rows plus a permutation, searched without shortcuts.

    The library's labeler before it became incremental: every node refines
    from scratch with ``full_signature_refine``, every leaf is relabeled in
    full, and the only pruning is the orbit test, whose union-find is
    rebuilt for every sibling. ``graphs._canonical`` must return exactly
    this ``(code, perm)``.
    """
    best_code = None
    best_perm = None
    best_inv = None
    auts = []
    identity = tuple(range(n))

    def relabeled(perm):
        out = [0] * n
        for v in range(n):
            m = 0
            row = rows[v]
            while row:
                low = row & -row
                m |= 1 << perm[low.bit_length() - 1]
                row ^= low
            out[perm[v]] = m
        return tuple(out)

    def handle_leaf(colors):
        nonlocal best_code, best_perm, best_inv
        code = relabeled(colors)
        if best_code is None or code < best_code:
            best_code = code
            best_perm = tuple(colors)
            inv = [0] * n
            for v, p in enumerate(colors):
                inv[p] = v
            best_inv = inv
        elif code == best_code:
            sigma = tuple(best_inv[colors[v]] for v in range(n))
            if sigma != identity and sigma not in auts:
                auts.append(sigma)

    def dfs(colors, prefix):
        colors = full_signature_refine(rows, n, colors)
        if max(colors) == n - 1:
            handle_leaf(colors)
            return
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min((c for c, k in counts.items() if k > 1), key=lambda c: (counts[c], c))
        cell = [v for v in range(n) if colors[v] == target]
        tried = []
        for v in cell:
            if tried:
                # skip v when a known automorphism fixing the individualized
                # prefix maps an already-explored sibling onto it
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for sigma in auts:
                    if all(sigma[p] == p for p in prefix):
                        for a in range(n):
                            ra, rb = find(a), find(sigma[a])
                            if ra != rb:
                                parent[ra] = rb
                if any(find(u) == find(v) for u in tried):
                    continue
            tried.append(v)
            child = [c * 2 for c in colors]
            child[v] -= 1
            dfs(child, prefix + (v,))

    dfs([0] * n, ())
    return best_code, best_perm


def all_extensions(parent: Graph, claw_free: bool, degree_floor: int):
    """Rows of every child the enumerator keeps, found by trying all 2^k neighborhoods.

    The library's child generator before it built only degree-feasible
    neighborhoods: every neighborhood of the new vertex is built, then the
    degree floor, the maximal-degree and maximal-invariant tests and the
    claw test drop children.
    """
    k = parent.n
    for nbhd in range(1 << k):
        rows = [r | ((nbhd >> v & 1) << k) for v, r in enumerate(parent.rows)]
        rows.append(nbhd)
        degrees = [r.bit_count() for r in rows]
        if min(degrees) < degree_floor or degrees[k] < max(degrees):
            continue
        invariants = [(degrees[v], sum(degrees[u] for u in _bits(row))) for v, row in enumerate(rows)]
        if invariants[k] < max(invariants):
            continue
        if claw_free and _claw_touching(rows, k):
            continue
        yield tuple(rows)


@lru_cache(maxsize=None)
def per_edge_criticality_report(g: Graph, gamma2=None):
    """Classify edge criticality by solving every single-edge augmentation.

    The library's criticality report before it decided every non-edge from
    one subset walk: one branch-and-bound solve per non-edge. Memoized on
    the graph, so the suite solves each graph's augmentations once.
    """
    if min_degree(g) < 1:
        raise ValueError("criticality needs minimum degree at least 1")
    if not is_connected(g):
        raise ValueError("criticality is defined for connected graphs only")
    if gamma2 is None:
        gamma2 = gamma_xk(g, 2).size
    entries = []
    for u, v in g.non_edges():
        after = gamma_xk(add_edge(g, u, v), 2).size
        entries.append(NonEdgeDrop(u, v, after, gamma2 - after))
    vacuous = not entries
    critical = vacuous or all(e.drop >= 1 for e in entries)
    return CriticalityReport(gamma2, critical, tuple(entries), vacuous)


@lru_cache(maxsize=None)
def per_augmentation_minimum_sets(g: Graph) -> dict:
    """``all_minimum_dds`` of G+uv for every non-edge uv, memoized on the graph."""
    return {(u, v): all_minimum_dds(add_edge(g, u, v)) for u, v in g.non_edges()}


def per_augmentation_observation1(g: Graph, report=None):
    """Observation 1 checked over ``all_minimum_dds`` of every augmentation."""
    if report is None:
        report = per_edge_criticality_report(g)
    if not report.is_critical:
        raise ValueError("observation check needs an edge-critical graph")
    for u, v, after, drop in report.per_nonedge:
        for dds in per_augmentation_minimum_sets(g)[u, v]:
            hit = len(dds & {u, v})
            if hit == 0 or (drop == 2 and hit != 2):
                return Obs1Result(False, (u, v, dds))
    return Obs1Result(True)


def per_augmentation_lemma45_profile(g: Graph, cut, x: int, y: int, report=None):
    """The Lemma 4/5 profile checked over ``all_minimum_dds`` of G+xy."""
    cut = frozenset(cut)
    if report is None:
        report = per_edge_criticality_report(g)
    if not (report.is_critical and report.gamma2 == 4):
        raise ValueError("profile check needs an edge-critical graph with double domination number 4")
    comps = components(g, cut)
    if len(comps) < 2:
        raise ValueError("the supplied set is not a cutset")
    loc_x = next((i for i, c in enumerate(comps) if x in c), None)
    loc_y = next((i for i, c in enumerate(comps) if y in c), None)
    if loc_x is None or loc_y is None or loc_x == loc_y:
        raise ValueError("x and y must lie in different components of the cut graph")
    if len(comps) >= 3:
        mode = "many-components"
    elif all(len(c) >= 2 for c in comps):
        mode = "two-large-components"
    else:
        return ProfileCheckResult(NOT_APPLICABLE, None, "a component of the cut graph is a singleton")
    for dds in per_augmentation_minimum_sets(g)[min(x, y), max(x, y)]:
        if len(dds) != 3:
            return ProfileCheckResult(FAIL, mode, "minimum set size differs from 3", dds)
        if mode == "many-components" and len(dds & {x, y}) != 1:
            return ProfileCheckResult(FAIL, mode, "minimum set does not meet {x,y} exactly once", dds)
        if mode == "two-large-components" and not dds & cut:
            return ProfileCheckResult(FAIL, mode, "minimum set misses the cutset", dds)
    return ProfileCheckResult(PASS, mode)


def eager_verdicts(g: Graph, report) -> dict:
    """The five named checks read from a full report, every hypothesis tested.

    This is how verdicts were computed before the checks became demand
    driven: no short-circuit order, and the theorem's witness is recomputed.
    Observation 1 is read from the per-edge oracles above.
    """
    from ddcrit.graphs import independence_number
    from ddcrit.harness import matching_clique_chain
    from ddcrit.matching import is_k_factor_critical_direct

    def verdict(status, witness=None):
        return {"status": status} if witness is None else {"status": status, "witness": witness}

    out = {}
    connected = report.diameter is not None
    four_critical = bool(report.critical) and report.gamma2 == 4
    ok = report.diameter in (2, 3)
    out["lemma1"] = (
        verdict(PASS if ok else FAIL, None if ok else {"diameter": report.diameter})
        if connected and four_critical
        else verdict(NOT_APPLICABLE)
    )
    if connected and report.diameter == 3:
        chain = matching_clique_chain(g)
        ok = four_critical == (chain is not None)
        witness = {"gamma2_critical": four_critical, "clique_chain": list(chain) if chain else None}
        out["lemma2"] = verdict(PASS if ok else FAIL, None if ok else witness)
    else:
        out["lemma2"] = verdict(NOT_APPLICABLE)
    applicable_r = [r for r, free in ((3, report.claw_free), (4, report.k14_free)) if free]
    if connected and four_critical and applicable_r:
        alpha, indep = independence_number(g)
        bad = [r for r in applicable_r if alpha > r]
        witness = {"r": bad[0], "alpha": alpha, "independent_set": sorted(indep)} if bad else None
        out["lemma3"] = verdict(FAIL if bad else PASS, witness)
    else:
        out["lemma3"] = verdict(NOT_APPLICABLE)
    if connected and bool(report.critical):
        obs = per_augmentation_observation1(g, per_edge_criticality_report(g))
        if obs.ok:
            out["obs1"] = verdict(PASS)
        else:
            u, v, dds = obs.counterexample
            out["obs1"] = verdict(FAIL, {"u": u, "v": v, "dds": sorted(dds)})
    else:
        out["obs1"] = verdict(NOT_APPLICABLE)
    hyp = (
        connected
        and report.order % 2 == 1
        and report.min_degree >= 4
        and report.connectivity >= 3
        and report.claw_free
        and four_critical
    )
    if not hyp:
        out["theorem1"] = verdict(NOT_APPLICABLE)
    elif report.in_family_H or report.factor_critical.get(3):
        out["theorem1"] = verdict(PASS)
    else:
        failing = is_k_factor_critical_direct(g, 3).witness_failure
        out["theorem1"] = verdict(FAIL, {"failing_3_set": sorted(failing)})
    return out


def unit_flow(g: Graph, s: int, t: int) -> int:
    """Number of internally vertex-disjoint s-t paths (s,t nonadjacent).

    The library's connectivity flow before it ran on the adjacency masks: a
    dense capacity matrix over the explicit vertex-split network and
    breadth-first augmenting paths.
    """
    # Split every vertex v into 2v -> 2v+1 with capacity 1; undirected edges
    # become a pair of infinite arcs between the split halves.
    big = g.n
    size = 2 * g.n
    cap = [[0] * size for _ in range(size)]
    adj = [[] for _ in range(size)]

    def arc(a, b, c):
        if not adj[a].count(b):
            adj[a].append(b)
            adj[b].append(a)
        cap[a][b] += c

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        arc(2 * u + 1, 2 * v, big)
        arc(2 * v + 1, 2 * u, big)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        while queue and parent[sink] == -1:
            nxt = []
            for a in queue:
                for b in adj[a]:
                    if parent[b] == -1 and cap[a][b] > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if parent[sink] == -1:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1


def all_pairs_vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity as the least ``unit_flow`` over every nonadjacent pair.

    The library's connectivity before Even's method; complete graphs give
    n-1. Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1
    best = g.n - 1
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.adjacent(u, v):
            best = min(best, unit_flow(g, u, v))
            if best == 0:
                return 0
    return best
