"""Connectedness graphs on the minimal primes and the punctured-spectrum test.

Theta joins two minimal primes when their sum is not primary to the
maximal ideal; Gamma lives on the maximal-dimension primes and joins two
when their sum has height one in S/I.  Spectrum connectivity is decided
through Theta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import SquareFreeIdeal, minimal_primes, popcount

THETA = "theta"
GAMMA = "gamma"


@dataclass(frozen=True)
class ConnectivityGraph:
    kind: str
    vertices: tuple  # CoordinatePrime, lexicographic by variable set
    edges: frozenset  # of (i, j) index pairs, i < j

    def __post_init__(self):
        t = len(self.vertices)
        for i, j in self.edges:
            if not (0 <= i < j < t):
                raise ValueError("edge references invalid vertex indices")


def theta_graph(I: SquareFreeIdeal) -> ConnectivityGraph:
    """Edge {i,j} iff p_i + p_j is not m-primary.

    A sum of coordinate primes is the coordinate prime on the union of
    their variables, so it is m-primary iff that union is every variable.
    """
    primes = minimal_primes(I)
    full = I.context.full_mask
    edges = set()
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            if primes[i].variables | primes[j].variables != full:
                edges.add((i, j))
    return ConnectivityGraph(THETA, primes, frozenset(edges))


def _quotient_height(primes: tuple, prime_mask: int) -> int:
    """Height in S/I of the coordinate prime on prime_mask, given I's minimal primes.

    |vars| minus the smallest minimal prime of I inside it: the longest
    chain of coordinate primes of S/I below it (the tests' chain oracle).
    """
    inside = [p.height for p in primes if p.variables & prime_mask == p.variables]
    if not inside:
        raise ValueError("the prime does not contain a minimal prime of I")
    return popcount(prime_mask) - min(inside)


def gamma_graph(I: SquareFreeIdeal) -> ConnectivityGraph:
    """Hochster-Huneke graph on the maximal-dimension minimal primes.

    dim S/I is n minus the least height of a minimal prime, so the top
    primes are those of least height.
    """
    primes = minimal_primes(I)
    least = min(p.height for p in primes)
    top = tuple(p for p in primes if p.height == least)
    edges = set()
    for i in range(len(top)):
        for j in range(i + 1, len(top)):
            union = top[i].variables | top[j].variables
            if _quotient_height(primes, union) == 1:
                edges.add((i, j))
    return ConnectivityGraph(GAMMA, top, frozenset(edges))


def is_connected(G: ConnectivityGraph) -> bool:
    """Union-find connectivity; a single vertex is connected."""
    t = len(G.vertices)
    if t == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    parent = list(range(t))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in G.edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(t)}) == 1


def punctured_spectrum_connected(I: SquareFreeIdeal) -> bool:
    return is_connected(theta_graph(I))


def to_dot(G: ConnectivityGraph) -> str:
    lines = [f"graph {G.kind} {{"]
    for idx, p in enumerate(G.vertices):
        lines.append(f'  v{idx} [label="{p.label()}"];')
    for i, j in sorted(G.edges):
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
