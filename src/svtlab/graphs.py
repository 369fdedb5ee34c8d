"""Connectedness graphs on the minimal primes and the punctured-spectrum test.

A graph is (vertices, edges): prime variable masks, lexicographic by
variable set, and index pairs i < j in lexicographic order.  Theta joins
two minimal primes when their sum is not primary to the maximal ideal.
Gamma lives on the maximal-dimension primes, those of the least height h,
and joins two when their sum has height one in S/I: the union's size less
that of the smallest minimal prime inside it, which is h, as either of
the two is one and none is smaller.  So Gamma joins them iff their union
has h + 1 variables.  Spectrum connectivity is decided through Theta.
"""

from __future__ import annotations

from . import ideals
from .ideals import SquareFreeIdeal, VariableContext, minimal_primes


def _pairs(vertices: tuple, joined) -> tuple:
    """The pairs i < j, in lexicographic order, whose union mask satisfies `joined`."""
    return tuple((i, j) for i in range(len(vertices)) for j in range(i + 1, len(vertices))
                 if joined(vertices[i] | vertices[j]))


def theta_graph(I: SquareFreeIdeal) -> tuple:
    """Edge {i,j} iff p_i + p_j is not m-primary.

    A sum of coordinate primes is the coordinate prime on the union of
    their variables, so it is m-primary iff that union is every variable.
    """
    primes = minimal_primes(I)
    full = I.context.full_mask
    return primes, _pairs(primes, lambda union: union != full)


def gamma_graph(I: SquareFreeIdeal) -> tuple:
    """Hochster-Huneke graph on the maximal-dimension minimal primes.

    dim S/I is n minus the least height of a minimal prime, so the top
    primes are those of least height.
    """
    primes = minimal_primes(I)
    least = min(p.bit_count() for p in primes)
    top = tuple(p for p in primes if p.bit_count() == least)
    return top, _pairs(top, lambda union: union.bit_count() == least + 1)


def components(vertices: tuple, edges) -> int:
    """The number of connected components; the empty graph raises."""
    t = len(vertices)
    if t == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    return ideals.components([1 << v for v in range(t)] + [1 << i | 1 << j for i, j in edges])


def is_connected(vertices: tuple, edges) -> bool:
    """A single vertex is connected."""
    return components(vertices, edges) == 1


def punctured_spectrum_connected(I: SquareFreeIdeal) -> bool:
    return is_connected(*theta_graph(I))


def to_dot(kind: str, vertices: tuple, edges, context: VariableContext) -> str:
    lines = [f"graph {kind} {{"]
    for idx, p in enumerate(vertices):
        lines.append(f'  v{idx} [label="{context.prime_label(p)}"];')
    for i, j in edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
