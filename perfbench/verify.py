"""Independent checks of covpkit answers.

Nothing here imports covpkit or calls its checkers.  Each check works from
the operation's own data and ground truth (see ``inputs``) and from an answer
normalized by ``answers``; it re-derives what it needs: it rebuilds
decompositions entry by entry, tests refutation vectors against a membership
system built here, tests feasibility of witness solutions by projection,
recomputes objective values from the instance, and rebuilds graph weights
from certificates.

``check(op, answer)`` returns None for a right answer, or a
``(category, reason)`` pair.  "wrong_verdict" and "bad_artifact" mark a wrong
answer; "missing_artifact" marks a right verdict that lacks the certificate
or witness it owes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

WRONG = ("wrong_verdict", "bad_artifact")

# Ground truth for the enumeration grid.  covp_dim equals the decomposable
# dimension on the axial (n >= 3) and planar problems; (4,2,3) is the
# paper's counterexample.  (5,2,3) needs three mutually orthogonal Latin
# squares of order 3, which do not exist.
KNOWN_COVP_DIM = {(4, 2, 3): 49, (4, 2, 4): 67}
VACUOUS = {(5, 2, 3)}
KNOWN_SOLUTIONS = {(4, 2, 3): 72, (4, 2, 4): 6912, (3, 2, 4): 576}


def scalar(x):
    """Exact value of an answer scalar: int, Fraction or a "p/q" string."""
    if isinstance(x, bool):
        raise ValueError("boolean where a number was expected")
    if isinstance(x, str):
        num, _, den = x.partition("/")
        x = Fraction(int(num), int(den or 1))
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def closed_form_dim(dims, s) -> int:
    """Σ over axis sets U with |U| <= s of Π_{i in U} (n_i - 1)."""
    return sum(
        prod(dims[i] - 1 for i in U)
        for k in range(s + 1)
        for U in combinations(range(len(dims)), k)
    )


def _offset(t, dims) -> int:
    """Row-major offset of a 1-based index tuple."""
    off = 0
    for c, e in zip(t, dims):
        if not 1 <= c <= e:
            raise ValueError(f"coordinate {c} outside 1..{e}")
        off = off * e + (c - 1)
    return off


def _tuples(dims):
    return product(*(range(1, e + 1) for e in dims))


def _feasible(sol, d, s, n) -> bool:
    """Projection test: n^s tuples in {1..n}^d that meet every pattern of
    every s-subset of axes exactly once."""
    if len(sol) != n**s or len(set(sol)) != len(sol):
        return False
    if any(len(t) != d or not all(1 <= x <= n for x in t) for t in sol):
        return False
    for Q in combinations(range(d), s):
        if len({tuple(t[q] for q in Q) for t in sol}) != len(sol):
            return False
    return True


def _two_solution_witness(witness, values, value_of, feasible):
    if witness is None or values is None:
        return ("missing_artifact", "verdict 'fails' without two solutions")
    if len(witness) != 2 or len(values) != 2:
        return ("bad_artifact", "witness is not a pair")
    for k, sol in enumerate(witness):
        if not feasible(sol):
            return ("bad_artifact", f"witness solution {k} is not feasible")
        if value_of(sol) != scalar(values[k]):
            return ("bad_artifact", f"witness value {k} does not match the instance")
    if scalar(values[0]) == scalar(values[1]):
        return ("bad_artifact", "witness values are equal")
    return None


def check_assignment(op, ans):
    a, exp = op["args"], op["expect"]
    dims, data, s = a["dims"], a["data"], a["s"]
    d, n = len(dims), dims[0]
    if ans["provisional"]:
        return ("missing_artifact", "provisional verdict")
    if ans["vacuous"] or ans["holds"] != exp["holds"]:
        return ("wrong_verdict", f"holds={ans['holds']} vacuous={ans['vacuous']}")
    if ans["holds"]:
        if ans["common_value"] is None:
            return ("missing_artifact", "verdict 'holds' without a common value")
        if scalar(ans["common_value"]) != exp["common_value"]:
            return ("bad_artifact", "common value differs from the constructed one")
        return None
    witness = ans["witness"]
    if witness is not None:
        witness = [[tuple(t) for t in sol] for sol in witness]
    return _two_solution_witness(
        witness, ans["witness_values"],
        lambda sol: sum(data[_offset(t, dims)] for t in sol),
        lambda sol: _feasible(sol, d, s, n),
    )


def _refutes(y, dims, data, s):
    """y is a certificate against decomposability: yᵀA = 0 for the 0/1
    membership system A (one row per index tuple, one column per pattern of
    every s-subset of axes) and y·c != 0."""
    if len(y) != len(data):
        return False
    sums = {}
    for yt, t in zip(y, _tuples(dims)):
        if yt:
            for Q in combinations(range(len(dims)), s):
                key = (Q, tuple(t[q] for q in Q))
                sums[key] = sums.get(key, 0) + yt
    return all(v == 0 for v in sums.values()) and sum(
        yt * c for yt, c in zip(y, data)
    ) != 0


def check_decompose(op, ans):
    a, exp = op["args"], op["expect"]
    dims, data, s = a["dims"], a["data"], a["s"]
    if ans["decomposable"] != exp["holds"]:
        return ("wrong_verdict", f"decomposable={ans['decomposable']}")
    if not ans["decomposable"]:
        if ans["witness"] is None:
            return ("missing_artifact", "no refutation vector")
        y = [scalar(x) for x in ans["witness"]]
        if not _refutes(y, dims, data, s):
            return ("bad_artifact", "refutation vector fails yᵀA = 0, y·c != 0")
        return None
    comps = ans["components"]
    if comps is None:
        return ("missing_artifact", "no decomposition")
    subsets = list(combinations(range(1, len(dims) + 1), s))
    if sorted(tuple(Q) for Q, _ in comps) != subsets:
        return ("bad_artifact", "components do not cover every s-subset once")
    for Q, vals in comps:
        if len(vals) != prod(dims[q - 1] for q in Q):
            return ("bad_artifact", f"component {Q} has the wrong size")
    for t, c in zip(_tuples(dims), data):
        rebuilt = sum(
            scalar(vals[_offset([t[q - 1] for q in Q], [dims[q - 1] for q in Q])])
            for Q, vals in comps
        )
        if rebuilt != c:
            return ("bad_artifact", f"rebuilt entry at {t} differs")
    return None


def check_reduce(op, ans):
    dims, data = op["args"]["dims"], op["args"]["data"]
    reduced = [scalar(x) for x in ans["reduced"]]
    vectors = [[scalar(x) for x in v] for v in ans["vectors"]]
    if len(reduced) != len(data) or len(vectors) != len(dims):
        return ("bad_artifact", "reduction has the wrong shape")
    if any(x < 0 for x in reduced):
        return ("bad_artifact", "reduced costs are not nonnegative")
    for t, c, r in zip(_tuples(dims), data, reduced):
        if r + sum(vectors[k][t[k] - 1] for k in range(len(dims))) != c:
            return ("bad_artifact", f"reduced + subtracted differs from the input at {t}")
    if scalar(ans["z"]) != sum(sum(v) for v in vectors):
        return ("bad_artifact", "z is not the sum of the subtracted vectors")
    return None


# ---------------------------------------------------------------------------
# graphs


def _weights(a):
    if a["problem"] == "tsp":
        n = a["n"]
        return {(i + 1, j + 1): a["matrix"][i * n + j] for i in range(n) for j in range(n) if i != j}
    return {(u, v): w for u, v, w in a["edges"]}


def _edge(weights, x, y, directed):
    key = (x, y) if directed or x < y else (y, x)
    return key if key in weights else None


def _union(parent, u, v) -> bool:
    """Join the classes of u and v; False when they were joined already."""
    roots = []
    for x in (u, v):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        roots.append(x)
    if roots[0] == roots[1]:
        return False
    parent[roots[0]] = roots[1]
    return True


def _kruskal(n, weights, largest):
    """Weight of a minimum (or maximum) spanning tree."""
    parent = list(range(n + 1))
    total = used = 0
    for (u, v), w in sorted(weights.items(), key=lambda item: item[1], reverse=largest):
        if _union(parent, u, v):
            total += w
            used += 1
    return total if used == n - 1 else None


def _is_tree(n, weights, edges):
    if len(edges) != n - 1 or any(tuple(e) not in weights for e in edges):
        return False
    parent = list(range(n + 1))
    return all(_union(parent, u, v) for u, v in edges)


def _is_path(n, weights, path, directed):
    return (
        len(path) >= 2 and path[0] == 1 and path[-1] == n
        and len(set(path)) == len(path)
        and all(_edge(weights, x, y, directed) for x, y in zip(path, path[1:]))
    )


def _is_matching(n, weights, edges):
    seen = [v for e in edges for v in e]
    return (
        len(edges) == n // 2 and len(set(seen)) == len(seen)
        and all(tuple(e) in weights for e in edges)
    )


def _is_tour(n, tour):
    return len(tour) == n and sorted(tour) == list(range(1, n + 1))


def _solution_value(problem, weights, sol, directed):
    if problem in ("mst", "matching"):
        return sum(weights[tuple(e)] for e in sol)
    hops = list(zip(sol, sol[1:]))
    if problem == "tsp":
        hops.append((sol[-1], sol[0]))
    return sum(weights[_edge(weights, x, y, directed or problem == "tsp")] for x, y in hops)


def _certificate_value(problem, n, weights, cert):
    """Rebuild every constrained weight from the certificate; return the
    common value it implies, or None when a weight disagrees."""
    if problem == "mst":
        for edges, alpha in cert["alphas"]:
            if any(tuple(e) not in weights for e in edges):
                return None
            if len(edges) > 1 and any(weights[tuple(e)] != scalar(alpha) for e in edges):
                return None
        low, high = _kruskal(n, weights, False), _kruskal(n, weights, True)
        return low if low == high else None
    if problem == "sp-undir":
        a, b = scalar(cert["a"]), scalar(cert["b"])
        if n == 2:
            return weights[(1, 2)]
        for (i, j), w in weights.items():
            want = a + b if (i, j) == (1, n) else a if i == 1 else b if j == n else 0
            if w != want:
                return None
        return a + b
    if problem == "sp-dir":
        p = [None] + [scalar(x) for x in cert["potentials"]]
        if any(w != p[j] - p[i] for (i, j), w in weights.items()):
            return None
        return p[n] - p[1]
    if problem == "matching":
        if "uniform" in cert:
            w0 = scalar(cert["uniform"])
            return w0 * (n // 2) if all(w == w0 for w in weights.values()) else None
        p = [None] + [scalar(x) for x in cert["potentials"]]
        if any(w != p[i] + p[j] for (i, j), w in weights.items()):
            return None
        return sum(p[1:])
    if problem == "tsp":
        u = [scalar(x) for x in cert["u"]]
        v = [scalar(x) for x in cert["v"]]
        if any(w != u[i - 1] + v[j - 1] for (i, j), w in weights.items()):
            return None
        return sum(u) + sum(v)
    raise ValueError(f"unknown problem {problem!r}")


def check_graph(op, ans):
    a, exp = op["args"], op["expect"]
    problem, n = a["problem"], a["n"]
    directed = a.get("directed", False)
    weights = _weights(a)
    if ans["holds"] != exp["holds"]:
        return ("wrong_verdict", f"holds={ans['holds']}")
    if ans["holds"]:
        if ans["certificate"] is None or ans["common_value"] is None:
            return ("missing_artifact", "verdict 'holds' without a certificate")
        implied = _certificate_value(problem, n, weights, ans["certificate"])
        if implied is None:
            return ("bad_artifact", "certificate does not rebuild the weights")
        if scalar(ans["common_value"]) != implied or implied != exp["common_value"]:
            return ("bad_artifact", "common value differs from the certificate's")
        return None
    witness = ans["witness"]
    if witness is not None:
        edge_sets = problem in ("mst", "matching")
        witness = [[tuple(e) for e in sol] if edge_sets else list(sol) for sol in witness]
    feasible = {
        "mst": lambda sol: _is_tree(n, weights, sol),
        "sp-undir": lambda sol: _is_path(n, weights, sol, False),
        "sp-dir": lambda sol: _is_path(n, weights, sol, True),
        "matching": lambda sol: _is_matching(n, weights, sol),
        "tsp": lambda sol: _is_tour(n, sol),
    }[problem]
    return _two_solution_witness(
        witness, ans["witness_values"],
        lambda sol: _solution_value(problem, weights, sol, directed),
        feasible,
    )


# ---------------------------------------------------------------------------
# dimensions, enumeration reports and repro scenarios


def _known_solutions(d, s, n):
    if (d, s, n) in VACUOUS:
        return 0
    if s == 1:
        return factorial(n) ** (d - 1)
    if s == d - 1 and n == 3:
        return 3 * 2 ** (d - 1)
    return KNOWN_SOLUTIONS.get((d, s, n))


def _known_covp_dim(d, s, n):
    if (d, s, n) in VACUOUS:
        return n**d
    return KNOWN_COVP_DIM.get((d, s, n), closed_form_dim((n,) * d, s))


def check_conjecture(op, ans):
    d, s, n = (op["args"][k] for k in ("d", "s", "n"))
    savs = closed_form_dim((n,) * d, s)
    if not ans["complete"]:
        return ("missing_artifact", "enumeration incomplete")
    if ans["savs_dim"] != savs:
        return ("wrong_verdict", f"savs_dim {ans['savs_dim']} != {savs}")
    count = _known_solutions(d, s, n)
    if count is not None and ans["solution_count"] != count:
        return ("wrong_verdict", f"{ans['solution_count']} solutions, expected {count}")
    if (d, s, n) in VACUOUS:
        if not ans["vacuous"] or ans["covp_dim"] is not None:
            return ("wrong_verdict", "vacuous instance not reported as vacuous")
        return None
    covp = _known_covp_dim(d, s, n)
    if ans["vacuous"] or ans["covp_dim"] != covp or ans["equal"] != (covp == savs):
        return ("wrong_verdict", f"covp_dim {ans['covp_dim']} != {covp}")
    return None


def check_dimension(op, ans):
    d, s, n = (op["args"][k] for k in ("d", "s", "n"))
    want = _known_covp_dim(d, s, n) if op["kind"] == "space_dimension" else closed_form_dim((n,) * d, s)
    return None if ans["dimension"] == want else ("wrong_verdict", f"dimension {ans['dimension']} != {want}")


def check_rank_md(op, ans):
    """rank(M_d) = 2^d + 1, and the determinant sequence satisfies
    z_k = z_(k-1)·u_(k-1), u_k = u_(k-1)·v_(k-1), v_k = 3^(2^k)·v_(k-1)·u_(k-1)."""
    d = op["args"]["d"]
    if ans["rank"] != 2**d + 1:
        return ("wrong_verdict", f"rank {ans['rank']} != {2**d + 1}")
    z, u, v = ans["z"], ans["u"], ans["v"]
    for k in range(1, len(z)):
        if (z[k] != z[k - 1] * u[k - 1] or u[k] != u[k - 1] * v[k - 1]
                or v[k] != 3 ** (2**k) * v[k - 1] * u[k - 1]):
            return ("bad_artifact", f"determinant recursion broken at k={k}")
    if any(x == 0 for x in z):
        return ("bad_artifact", "zero reduced-block determinant")
    if d - 1 < len(z) and ans["m_prime_det"] != z[d - 1]:
        return ("bad_artifact", "det of the certifying submatrix differs from z_(d-1)")
    return None


def _repro_expected(scenario):
    if scenario == "example1":
        return [72, [1], 49, 33, False, True]
    if scenario == "rank-md":
        return [2**d + 1 for d in range(1, 7)]
    return [closed_form_dim((n,) * d, s) for d in range(2, 6) for n in range(2, 5) for s in (1, d - 1)]


def check_repro(op, ans):
    """Every number the scenario must reproduce appears among its computed
    values (the claims' wording and order are not part of the check)."""
    computed = [c.get("computed") for c in ans["claims"] if c.get("level") == "assert"]
    missing = [
        x for x in _repro_expected(op["args"]["scenario"])
        if not any(type(c) is type(x) and c == x for c in computed)
    ]
    return ("wrong_verdict", f"missing computed values {missing}") if missing else None


_CHECKS = {
    "decompose": check_decompose,
    "axial_tp": check_decompose,
    "axial_fast": check_assignment,
    "planar_p2": check_assignment,
    "brute": check_assignment,
    "reduce": check_reduce,
    "graph": check_graph,
    "conjecture": check_conjecture,
    "space_dimension": check_dimension,
    "savs_dim": check_dimension,
    "rank_md": check_rank_md,
    "repro": check_repro,
}


def check(op, ans):
    try:
        return _CHECKS[op["kind"]](op, ans)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return ("bad_artifact", f"answer does not parse: {type(exc).__name__}: {exc}")
