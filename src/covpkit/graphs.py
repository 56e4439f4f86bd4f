"""Constant-objective-value characterizers for classic graph problems.

Each problem (minimum spanning tree, shortest path in complete graphs,
minimum-weight maximum matching, round trips through all vertices) gets a
fast structural test producing either a certificate that reconstructs the
constrained weights or two explicit feasible solutions of different value,
plus a brute-force oracle for cross-validation at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from .errors import InputError, SizeLimitError
from .exact import CostTensor, Scalar

Edge = tuple[int, int]


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    directed: bool
    edges: tuple[tuple[int, int, Scalar], ...]

    def weight_map(self) -> dict[Edge, Scalar]:
        return {(u, v): w for u, v, w in self.edges}


def weighted_graph(n: int, edges, directed: bool = False) -> WeightedGraph:
    """Validated graph: vertices 1..n, no self-loops, no parallel edges;
    undirected edges are stored with u < v."""
    if n < 1:
        raise InputError("graph needs at least one vertex")
    seen = set()
    normalized = []
    for u, v, w in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not directed and u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InputError(f"parallel edge ({u},{v})")
        seen.add((u, v))
        normalized.append((u, v, w))
    return WeightedGraph(n=n, directed=directed, edges=tuple(normalized))


def _adjacency(G: WeightedGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, G.n + 1)}
    for u, v, _ in G.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    return adj


def is_connected(G: WeightedGraph) -> bool:
    adj = _adjacency(G)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == G.n


def _require_complete_undirected(G: WeightedGraph) -> dict[Edge, Scalar]:
    if G.directed:
        raise InputError("this problem is defined on undirected graphs")
    weights = G.weight_map()
    for i in range(1, G.n + 1):
        for j in range(i + 1, G.n + 1):
            if (i, j) not in weights:
                raise InputError(f"graph is not complete: edge ({i},{j}) missing")
    return weights


def cycle_components(G: WeightedGraph) -> list[list[Edge]]:
    """Partition of the edges into the components of the cycle graph:
    two edges are together iff they lie on a common simple cycle, so the
    classes are the nontrivial biconnected blocks plus one singleton per
    bridge.  Computed by the block-finding DFS rather than by materializing
    the cycle graph."""
    if G.directed:
        raise InputError("cycle components are defined for undirected graphs")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.n + 1)}
    for idx, (u, v, _) in enumerate(G.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    for v in adj:
        adj[v].sort()

    disc = {v: 0 for v in adj}
    low = {v: 0 for v in adj}
    timer = 1
    edge_stack: list[int] = []
    blocks: list[list[int]] = []

    for root in range(1, G.n + 1):
        if disc[root]:
            continue
        # iterative DFS: (vertex, parent edge index, adjacency cursor)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pedge, cursor = stack.pop()
            if cursor < len(adj[v]):
                stack.append((v, pedge, cursor + 1))
                w, eidx = adj[v][cursor]
                if eidx == pedge:
                    continue
                if not disc[w]:
                    edge_stack.append(eidx)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eidx, 0))
                elif disc[w] < disc[v]:
                    edge_stack.append(eidx)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                if pedge >= 0:
                    u, w, _ = G.edges[pedge]
                    parent = u if disc[u] < disc[v] else w
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        block = []
                        while True:
                            e = edge_stack.pop()
                            block.append(e)
                            if e == pedge:
                                break
                        blocks.append(block)
    return sorted(
        sorted((G.edges[e][0], G.edges[e][1]) for e in block) for block in blocks
    )


def cycle_components_pairwise(G: WeightedGraph, cycle_limit: int = 200_000):
    """Independent oracle for `cycle_components`: enumerate simple cycles
    and merge the edges seen on each one.  Exponential; small graphs only."""
    edges = [(u, v) for u, v, _ in G.edges]
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    adj = _adjacency(G)
    count = 0
    for start in range(1, G.n + 1):
        # simple cycles with minimal vertex = start
        path = [start]
        on_path = {start}

        def dfs(v):
            nonlocal count
            count += 1
            if count > cycle_limit:
                raise SizeLimitError("cycle enumeration limit exceeded")
            for w in adj[v]:
                if w == start and len(path) >= 3:
                    cycle = [
                        index[tuple(sorted((path[i], path[(i + 1) % len(path)])))]
                        for i in range(len(path))
                    ]
                    for e in cycle[1:]:
                        union(cycle[0], e)
                elif w not in on_path and w > start:
                    path.append(w)
                    on_path.add(w)
                    dfs(w)
                    path.pop()
                    on_path.remove(w)

        dfs(start)
    groups: dict[int, list[Edge]] = {}
    for e, i in index.items():
        groups.setdefault(find(i), []).append(e)
    return sorted(sorted(g) for g in groups.values())


@dataclass(frozen=True)
class GraphReport:
    """Verdict of a characterizer or oracle.

    ``certificate`` reconstructs all constrained weights when the property
    holds; ``witness`` carries two feasible solutions (edge tuples, or
    vertex sequences for paths and round trips) of different value.
    """

    kind: str
    holds: bool
    certificate: dict | None = None
    witness: tuple | None = None
    witness_values: tuple[Scalar, Scalar] | None = None
    common_value: Scalar | None = None
    detail: str | None = None


# ---------------------------------------------------------------------------
# minimum spanning tree


def _grow_spanning_tree(G: WeightedGraph, seed_edges) -> list[Edge]:
    parent = list(range(G.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for u, v in seed_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise AssertionError("seed edges contain a cycle")
        parent[ru] = rv
        tree.append((u, v))
    for u, v, _ in G.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    if len(tree) != G.n - 1:
        raise AssertionError("could not complete a spanning tree")
    return sorted(tree)


def _cycle_through_edge_with_unequal(weights: dict[Edge, Scalar], block: list[Edge]):
    """A simple cycle inside a nonconstant block containing two edges of
    different weight, as (cycle edges, e, f).

    The block's line graph is connected, so some vertex x carries two block
    edges e = xa and f = xb of different weight.  The block is 2-connected,
    so a and b stay connected without x; a BFS path between them closes the
    cycle.  O(E) overall."""
    adj: dict[int, list[int]] = {}
    first: dict[int, Edge] = {}
    pair = None
    for g in block:
        for x, y in (g, g[::-1]):
            adj.setdefault(x, []).append(y)
            if x not in first:
                first[x] = g
            elif pair is None and weights[g] != weights[first[x]]:
                pair = (x, first[x], g)
    if pair is None:
        raise AssertionError("nonconstant block without two unequal adjacent edges")
    x, e, f = pair
    a, b = e[0] + e[1] - x, f[0] + f[1] - x
    parent = {a: a, x: x}
    queue = [a]
    for v in queue:  # breadth-first: the list grows while it is read
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
        if b in parent:
            break
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return [e, f] + [(min(p, q), max(p, q)) for p, q in zip(path, path[1:])], e, f


def mst_covp(G: WeightedGraph) -> GraphReport:
    """All spanning trees share their total weight iff the weight is
    constant on every nontrivial cycle component; bridges are free.  On
    failure two trees differing in one cycle exchange are returned: the
    cycle runs through two adjacent edges of different weight, so the whole
    test, witness included, takes O(E) time."""
    if G.directed:
        raise InputError("spanning trees live in undirected graphs")
    if not is_connected(G):
        raise InputError("graph is disconnected: no spanning tree exists")
    weights = G.weight_map()
    components = cycle_components(G)
    alphas = []
    for block in components:
        values = {weights[e] for e in block}
        if len(values) > 1:
            cycle_edges, e, f = _cycle_through_edge_with_unequal(weights, block)
            # tree T contains the cycle minus e; T' swaps f out for e
            seed = [g for g in cycle_edges if g != e]
            t1 = _grow_spanning_tree(G, seed)
            t2 = sorted(set(t1) - {f} | {e})
            v1 = sum(weights[g] for g in t1)
            v2 = sum(weights[g] for g in t2)
            return GraphReport(
                kind="mst", holds=False,
                witness=(tuple(t1), tuple(t2)),
                witness_values=(v1, v2),
            )
        alphas.append((tuple(block), next(iter(values))))
    sample = _grow_spanning_tree(G, [])
    tree_value = sum(weights[e] for e in sample)
    return GraphReport(
        kind="mst", holds=True,
        certificate={"alphas": tuple(alphas)},
        common_value=tree_value,
    )


# ---------------------------------------------------------------------------
# shortest paths


def sp_undirected_covp(G: WeightedGraph, source: int = 1, target: int | None = None) -> GraphReport:
    """Complete undirected graph, nonnegative weights: all simple
    source-target paths share their length iff the weights follow the
    two-parameter pattern (a on source edges, b on target edges, a+b on the
    direct edge, 0 inside)."""
    weights = _require_complete_undirected(G)
    target = G.n if target is None else target
    if source != 1 or target != G.n:
        raise InputError("the characterization is stated for source 1, target n")
    n = G.n
    if n < 2:
        raise InputError("need at least two vertices")
    for (u, v), w in weights.items():
        if w < 0:
            raise InputError(f"negative weight on ({u},{v})")
    if n == 2:
        return GraphReport(
            kind="sp-undir", holds=True,
            certificate={"a": weights[(1, 2)], "b": 0},
            common_value=weights[(1, 2)],
            detail="n=2: the single edge is the only path",
        )
    a = weights[(1, 2)]
    b = weights[(2, n)]
    ok = weights[(1, n)] == a + b
    if ok:
        for i in range(2, n):
            if weights[(1, i)] != a or weights[(i, n)] != b:
                ok = False
                break
    if ok:
        for i in range(2, n):
            for j in range(i + 1, n):
                if weights[(i, j)] != 0:
                    ok = False
                    break
            if not ok:
                break
    if ok:
        return GraphReport(
            kind="sp-undir", holds=True,
            certificate={"a": a, "b": b},
            common_value=a + b,
        )
    witness = _sp_undirected_witness(weights, n)
    v1 = _path_value(weights, witness[0], directed=False)
    v2 = _path_value(weights, witness[1], directed=False)
    return GraphReport(
        kind="sp-undir", holds=False, witness=witness, witness_values=(v1, v2)
    )


def _path_value(weights, path, directed: bool) -> Scalar:
    total = 0
    for x, y in zip(path, path[1:]):
        key = (x, y) if directed or x < y else (y, x)
        total += weights[key]
    return total


def _sp_undirected_witness(weights, n):
    # among paths visiting a subset of {1,i,j,n}, two must disagree
    candidates = []
    if n == 3:
        candidates.append(((1, 3), (1, 2, 3)))
    for i in range(2, n):
        for j in range(2, n):
            if i == j:
                continue
            paths = (
                (1, n),
                (1, i, n),
                (1, j, n),
                (1, i, j, n),
                (1, j, i, n),
            )
            candidates.append(paths)
    for paths in candidates:
        values = [_path_value(weights, p, directed=False) for p in paths]
        for k in range(1, len(values)):
            if values[k] != values[0]:
                return (paths[0], paths[k])
    raise AssertionError("pattern violated but all subset paths agree")


def sp_directed_covp(G: WeightedGraph) -> GraphReport:
    """Complete acyclic orientation (edges i->j for i<j): all 1->n paths
    share their length iff the weights telescope, w(i,j) = a_j - a_i."""
    if not G.directed:
        raise InputError("this characterization is for the directed problem")
    n = G.n
    weights = G.weight_map()
    expected = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    if set(weights) != expected:
        raise InputError("edge set must be exactly {(i,j): i < j}")
    potentials = [None, 0] + [weights[(1, i)] for i in range(2, n + 1)]
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            if weights[(i, j)] != potentials[j] - potentials[i]:
                if j == n:
                    p1, p2 = (1, i, n), (1, n)
                else:
                    p1, p2 = (1, i, j, n), (1, j, n)
                return GraphReport(
                    kind="sp-dir", holds=False,
                    witness=(p1, p2),
                    witness_values=(
                        _path_value(weights, p1, directed=True),
                        _path_value(weights, p2, directed=True),
                    ),
                )
    return GraphReport(
        kind="sp-dir", holds=True,
        certificate={"potentials": tuple(potentials[1:])},
        common_value=potentials[n] - potentials[1],
    )


# ---------------------------------------------------------------------------
# minimum weight maximum cardinality matching


def _greedy_matching(vertices) -> list[Edge]:
    vs = sorted(vertices)
    return [tuple(sorted((vs[i], vs[i + 1]))) for i in range(0, len(vs) - 1, 2)]


def matching_covp(G: WeightedGraph) -> GraphReport:
    """Odd n: constant iff all weights are equal.  Even n: constant iff the
    weights split as w(i,j) = a_i + a_j; the potentials are recovered from
    triangles and verified everywhere."""
    weights = _require_complete_undirected(G)
    n = G.n
    if n < 2:
        raise InputError("matching needs at least two vertices")
    if n == 2:
        return GraphReport(
            kind="matching", holds=True,
            certificate={"uniform": weights[(1, 2)]},
            common_value=weights[(1, 2)],
            detail="n=2: a single edge",
        )
    if n % 2 == 1:
        values = {w for w in weights.values()}
        if len(values) == 1:
            w0 = next(iter(values))
            return GraphReport(
                kind="matching", holds=True,
                certificate={"uniform": w0},
                common_value=w0 * (n // 2),
            )
        (e1, e2) = _unequal_triangle_edges(weights)
        tri = sorted(set(e1) | set(e2))
        base = _greedy_matching(set(range(1, n + 1)) - set(tri))
        m1 = tuple(sorted(base + [e1]))
        m2 = tuple(sorted(base + [e2]))
        return GraphReport(
            kind="matching", holds=False,
            witness=(m1, m2),
            witness_values=(
                sum(weights[e] for e in m1),
                sum(weights[e] for e in m2),
            ),
        )
    # even n >= 4: recover potentials from the first triangle at each vertex
    potentials = {}
    for i in range(1, n + 1):
        j, k = [x for x in range(1, n + 1) if x != i][:2]
        wij = weights[tuple(sorted((i, j)))]
        wik = weights[tuple(sorted((i, k)))]
        wjk = weights[tuple(sorted((j, k)))]
        a_i = Fraction(wij + wik - wjk, 2)
        potentials[i] = a_i.numerator if a_i.denominator == 1 else a_i
    ok = all(
        weights[(i, j)] == potentials[i] + potentials[j]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    if ok:
        return GraphReport(
            kind="matching", holds=True,
            certificate={"potentials": tuple(potentials[i] for i in range(1, n + 1))},
            common_value=sum(potentials.values()),
        )
    quad = _violated_quadruple(weights, n)
    i, j, k, l = quad
    base = _greedy_matching(set(range(1, n + 1)) - {i, j, k, l})
    m1 = tuple(sorted(base + [tuple(sorted((i, j))), tuple(sorted((k, l)))]))
    m2 = tuple(sorted(base + [tuple(sorted((i, l))), tuple(sorted((j, k)))]))
    return GraphReport(
        kind="matching", holds=False,
        witness=(m1, m2),
        witness_values=(
            sum(weights[e] for e in m1),
            sum(weights[e] for e in m2),
        ),
    )


def _unequal_triangle_edges(weights):
    items = sorted(weights.items())
    (e1, w1) = items[0]
    for e2, w2 in items[1:]:
        if w2 != w1:
            shared = set(e1) & set(e2)
            if shared:
                return e1, e2
            # bridge through a chain of triangles
            i, j = e1
            k, l = e2
            w_ik = weights[tuple(sorted((i, k)))]
            if w_ik != w1:
                return e1, tuple(sorted((i, k)))
            return tuple(sorted((i, k))), e2
    raise AssertionError("no unequal edges although the uniform test failed")


def _violated_quadruple(weights, n):
    for i, j, k, l in combinations(range(1, n + 1), 4):
        # the three pairings of {i,j,k,l}
        pairings = [
            ((i, j), (k, l)),
            ((i, k), (j, l)),
            ((i, l), (j, k)),
        ]
        values = [weights[a] + weights[b] for a, b in pairings]
        if values[0] != values[2]:
            return (i, j, k, l)
        if values[0] != values[1]:
            # exchange {ij,kl} vs {ik,jl}: same 4-cycle shape relabeled
            return (i, j, l, k)
    raise AssertionError("potential check failed but all exchanges agree")


# ---------------------------------------------------------------------------
# round trips (sum-matrix test on the cost matrix)


def tsp_covp(tensor: CostTensor) -> GraphReport:
    """All round trips through 1..n share their cost iff the off-diagonal
    entries split as c_ij = u_i + v_j (diagonal entries never enter).

    Sum-matrix test in O(n^2) (Berenguer 1979): with u_1 = 0, row 1 and
    column 1 fix v_j and u_i, one off-diagonal triple fixes v_1, and every
    entry is then checked.  On failure the residual r = c - u - v vanishes
    on every arc at vertex 1 and on 2->3, and moving vertex 1 from z->1->a
    into an arc i->j (with {z,a} and {i,j} disjoint) changes the trip cost
    by r_za - r_ij.  For n >= 6 such a pair with unequal residuals always
    exists; for n <= 5 the at most 24 trips are enumerated instead."""
    if tensor.d != 2 or tensor.dims[0] != tensor.dims[1]:
        raise InputError("need a square two-dimensional cost array")
    n = tensor.dims[0]
    if n < 3:
        raise InputError("round trips need n >= 3")
    data = tensor.data
    v1 = data[n] + data[2] - data[n + 2]  # c_21 + c_13 - c_23
    u = [0] + [data[i * n] - v1 for i in range(1, n)]
    v = [v1] + list(data[1:n])
    arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if all(data[(i - 1) * n + j - 1] == u[i - 1] + v[j - 1] for i, j in arcs):
        return GraphReport(
            kind="tsp", holds=True,
            certificate={"u": tuple(u), "v": tuple(v)},
            common_value=sum(u) + sum(v),
        )
    if n <= 5:
        tours = _all_tours(n)
        first = _tour_value(tensor, tours[0])
        witness = (tours[0], next(t for t in tours if _tour_value(tensor, t) != first))
    else:
        residual = {
            (i, j): data[(i - 1) * n + j - 1] - u[i - 1] - v[j - 1] for i, j in arcs
        }
        (z, a), (i, j) = _unequal_disjoint_arcs(residual, n)
        rest = tuple(x for x in range(2, n + 1) if x not in (z, a, i, j))
        witness = ((1, a, i, j) + rest + (z,), (1, j) + rest + (z, a, i))
    return GraphReport(
        kind="tsp", holds=False,
        witness=witness,
        witness_values=tuple(_tour_value(tensor, t) for t in witness),
    )


def _unequal_disjoint_arcs(residual, n):
    """Two vertex-disjoint arcs on 2..n (n >= 6) with unequal residuals,
    given r_23 = 0 and r not identically zero."""
    rest = range(4, n + 1)
    for q in permutations(rest, 2):
        if residual[q]:
            return (2, 3), q
    # r vanishes on 4..n, so a nonzero arc p touches 2 or 3 and leaves at
    # least two of the n-3 >= 3 vertices 4..n for a disjoint zero arc
    p = next(p for p in permutations(range(2, n + 1), 2) if residual[p])
    x, y = [w for w in rest if w not in p][:2]
    return p, (x, y)


@lru_cache(maxsize=8)
def _all_tours(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((1,) + rest for rest in permutations(range(2, n + 1)))


def _tour_value(tensor: CostTensor, tour) -> Scalar:
    n, data = tensor.dims[0], tensor.data
    return sum(data[(x - 1) * n + y - 1] for x, y in zip(tour, tour[1:] + tour[:1]))


# ---------------------------------------------------------------------------
# brute-force oracle


_ORACLE_BOUNDS = {"mst": 7, "sp-undir": 8, "sp-dir": 8, "matching": 8, "tsp": 8}


def spanning_trees(G: WeightedGraph) -> list[tuple[Edge, ...]]:
    """All spanning trees by include/contract vs delete recursion.

    The tree set depends only on the edge structure, so it is memoized
    across calls with different weights.
    """
    if G.n > _ORACLE_BOUNDS["mst"]:
        raise SizeLimitError(f"spanning-tree enumeration capped at n={_ORACLE_BOUNDS['mst']}")
    return list(_spanning_trees_struct(G.n, tuple(sorted((u, v) for u, v, _ in G.edges))))


@lru_cache(maxsize=256)
def _spanning_trees_struct(n: int, edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], ...]:
    edges = list(edges)
    out: list[tuple[Edge, ...]] = []

    def connected_with(available, chosen) -> bool:
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comp = n
        for u, v in chosen + available:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comp -= 1
        return comp == 1

    def find_root(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def bt(idx, chosen, parent):
        if len(chosen) == n - 1:
            out.append(tuple(chosen))
            return
        if idx == len(edges):
            return
        rest = edges[idx:]
        u, v = edges[idx]
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru != rv:
            p2 = parent.copy()
            p2[ru] = rv
            bt(idx + 1, chosen + [(u, v)], p2)
        if connected_with(rest[1:], chosen):
            bt(idx + 1, chosen, parent)

    bt(0, [], list(range(n + 1)))
    return tuple(out)


def simple_paths(G: WeightedGraph, source: int = 1, target: int | None = None):
    target = G.n if target is None else target
    if G.n > _ORACLE_BOUNDS["sp-undir"]:
        raise SizeLimitError(f"path enumeration capped at n={_ORACLE_BOUNDS['sp-undir']}")
    pairs = tuple((u, v) for u, v, _ in G.edges)
    return list(_simple_paths_struct(G.n, pairs, G.directed, source, target))


@lru_cache(maxsize=256)
def _simple_paths_struct(n, pairs, directed, source, target):
    if directed:
        adj = {v: [] for v in range(1, n + 1)}
        for u, v in pairs:
            adj[u].append(v)
        for v in adj:
            adj[v].sort()
    else:
        adj = {v: [] for v in range(1, n + 1)}
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
    out = []
    path = [source]
    on_path = {source}

    def dfs(v):
        if v == target:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(w)
                path.pop()
                on_path.remove(w)

    dfs(source)
    return tuple(out)


def maximum_matchings(G: WeightedGraph) -> list[tuple[Edge, ...]]:
    if G.n > _ORACLE_BOUNDS["matching"]:
        raise SizeLimitError(f"matching enumeration capped at n={_ORACLE_BOUNDS['matching']}")
    pairs = tuple((u, v) for u, v, _ in G.edges)
    return list(_maximum_matchings_struct(G.n, pairs))


@lru_cache(maxsize=256)
def _maximum_matchings_struct(n: int, pairs: tuple[Edge, ...]):
    weights = set(pairs)
    best_size = 0
    all_matchings: list[tuple[Edge, ...]] = []

    def bt(vertices, chosen):
        nonlocal best_size
        if not vertices:
            size = len(chosen)
            if size > best_size:
                best_size = size
                all_matchings.clear()
            if size == best_size:
                all_matchings.append(tuple(sorted(chosen)))
            return
        if len(chosen) + len(vertices) // 2 < best_size:
            return
        v = vertices[0]
        rest = vertices[1:]
        # leave v exposed
        bt(rest, chosen)
        for w in rest:
            e = (v, w) if (v, w) in weights else (w, v)
            if e in weights:
                bt([x for x in rest if x != w], chosen + [tuple(sorted((v, w)))])

    bt(list(range(1, n + 1)), [])
    unique = sorted(set(m for m in all_matchings if len(m) == best_size))
    return unique


def brute_force_oracle(kind: str, instance) -> GraphReport:
    """Exhaustively enumerate the feasible set and compare exact values.

    Stops at the first solution whose value differs from the first one, so
    failing instances are cheap; only constant instances pay for the full
    sweep.
    """
    if kind == "tsp":
        tensor: CostTensor = instance
        n = tensor.dims[0]
        if n > _ORACLE_BOUNDS["tsp"]:
            raise SizeLimitError(f"trip enumeration capped at n={_ORACLE_BOUNDS['tsp']}")
        solutions = _all_tours(n)
        value_of = lambda t: _tour_value(tensor, t)
    elif kind == "mst":
        G: WeightedGraph = instance
        if not is_connected(G):
            raise InputError("graph is disconnected")
        weights = G.weight_map()
        solutions = spanning_trees(G)
        value_of = lambda t: sum(weights[e] for e in t)
    elif kind in ("sp-undir", "sp-dir"):
        G = instance
        weights = G.weight_map()
        solutions = simple_paths(G)
        value_of = lambda p: _path_value(weights, p, directed=G.directed)
    elif kind == "matching":
        G = instance
        weights = _require_complete_undirected(G)
        solutions = maximum_matchings(G)
        value_of = lambda m: sum(weights[e] for e in m)
    else:
        raise InputError(f"unknown problem kind {kind!r}")
    if not solutions:
        return GraphReport(kind=kind, holds=True, detail="no feasible solutions")
    head = value_of(solutions[0])
    for k in range(1, len(solutions)):
        value = value_of(solutions[k])
        if value != head:
            return GraphReport(
                kind=kind, holds=False,
                witness=(solutions[0], solutions[k]),
                witness_values=(head, value),
            )
    return GraphReport(kind=kind, holds=True, common_value=head)


def certificate_reconstructs(report: GraphReport, instance) -> bool:
    """Re-derive every constrained weight from a 'holds' certificate."""
    if not report.holds or report.certificate is None:
        return False
    cert = report.certificate
    if report.kind == "mst":
        G: WeightedGraph = instance
        weights = G.weight_map()
        for block, alpha in cert["alphas"]:
            if len(block) > 1 and any(weights[e] != alpha for e in block):
                return False
        return True
    if report.kind == "sp-undir":
        G = instance
        weights = G.weight_map()
        n = G.n
        if n == 2:
            return True
        a, b = cert["a"], cert["b"]
        for (i, j), w in weights.items():
            if i == 1 and j == n:
                want = a + b
            elif i == 1:
                want = a
            elif j == n:
                want = b
            else:
                want = 0
            if w != want:
                return False
        return True
    if report.kind == "sp-dir":
        G = instance
        pot = cert["potentials"]
        return all(
            w == pot[v - 1] - pot[u - 1] for u, v, w in G.edges
        )
    if report.kind == "matching":
        G = instance
        weights = G.weight_map()
        if "uniform" in cert:
            return all(w == cert["uniform"] for w in weights.values())
        pot = cert["potentials"]
        return all(
            weights[(i, j)] == pot[i - 1] + pot[j - 1]
            for i in range(1, G.n + 1)
            for j in range(i + 1, G.n + 1)
        )
    if report.kind == "tsp":
        tensor: CostTensor = instance
        n = tensor.dims[0]
        u, v = cert["u"], cert["v"]
        return all(
            tensor.at((i, j)) == u[i - 1] + v[j - 1]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        )
    return False


def is_spanning_tree(G: WeightedGraph, edges) -> bool:
    if len(edges) != G.n - 1:
        return False
    have = {(u, v) for u, v, _ in G.edges}
    if any(tuple(e) not in have for e in edges):
        return False
    parent = list(range(G.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_simple_path(G: WeightedGraph, path, source: int = 1, target: int | None = None) -> bool:
    target = G.n if target is None else target
    if len(set(path)) != len(path) or path[0] != source or path[-1] != target:
        return False
    weights = G.weight_map()
    for x, y in zip(path, path[1:]):
        key = (x, y) if G.directed or x < y else (y, x)
        if key not in weights:
            return False
    return True


def is_maximum_matching(G: WeightedGraph, edges) -> bool:
    used = set()
    have = G.weight_map()
    for u, v in edges:
        if (u, v) not in have or u in used or v in used:
            return False
        used.update((u, v))
    return len(edges) == G.n // 2


def is_round_trip(n: int, tour) -> bool:
    return len(tour) == n and set(tour) == set(range(1, n + 1)) and tour[0] == 1
