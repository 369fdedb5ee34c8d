"""Connectedness graphs on the minimal primes and the punctured-spectrum test.

Theta joins two minimal primes when their sum is not primary to the
maximal ideal; Gamma lives on the maximal-dimension primes and joins two
when their sum has height one in S/I.  Spectrum connectivity is decided
through Theta.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ideals
from .ideals import SquareFreeIdeal, VariableContext, minimal_primes

THETA = "theta"
GAMMA = "gamma"


@dataclass(frozen=True)
class ConnectivityGraph:
    kind: str
    vertices: tuple  # prime variable masks, lexicographic by variable set
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
            if primes[i] | primes[j] != full:
                edges.add((i, j))
    return ConnectivityGraph(THETA, primes, frozenset(edges))


def _quotient_height(primes: tuple, prime_mask: int) -> int:
    """Height in S/I of the coordinate prime on prime_mask, given I's minimal primes.

    |vars| minus the smallest minimal prime of I inside it: the longest
    chain of coordinate primes of S/I below it (the tests' chain oracle).
    """
    inside = [p.bit_count() for p in primes if p & prime_mask == p]
    if not inside:
        raise ValueError("the prime does not contain a minimal prime of I")
    return prime_mask.bit_count() - min(inside)


def gamma_graph(I: SquareFreeIdeal) -> ConnectivityGraph:
    """Hochster-Huneke graph on the maximal-dimension minimal primes.

    dim S/I is n minus the least height of a minimal prime, so the top
    primes are those of least height.
    """
    primes = minimal_primes(I)
    least = min(p.bit_count() for p in primes)
    top = tuple(p for p in primes if p.bit_count() == least)
    edges = set()
    for i in range(len(top)):
        for j in range(i + 1, len(top)):
            if _quotient_height(primes, top[i] | top[j]) == 1:
                edges.add((i, j))
    return ConnectivityGraph(GAMMA, top, frozenset(edges))


def components(G: ConnectivityGraph) -> int:
    """The number of connected components; the empty graph raises."""
    t = len(G.vertices)
    if t == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    return ideals.components([1 << v for v in range(t)] + [1 << i | 1 << j for i, j in G.edges])


def is_connected(G: ConnectivityGraph) -> bool:
    """A single vertex is connected."""
    return components(G) == 1


def punctured_spectrum_connected(I: SquareFreeIdeal) -> bool:
    return is_connected(theta_graph(I))


def to_dot(G: ConnectivityGraph, context: VariableContext) -> str:
    lines = [f"graph {G.kind} {{"]
    for idx, p in enumerate(G.vertices):
        lines.append(f'  v{idx} [label="{context.prime_label(p)}"];')
    for i, j in sorted(G.edges):
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
