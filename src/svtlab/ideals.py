"""Square-free monomial ideals, exactly.

A square-free monomial is its support, a bitmask over the variable
positions of a VariableContext (0 is the unit monomial).
All values are immutable; every operation is a pure function, so the
types are safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence


DEFAULT_MAX_VARS = 16


class ContextMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class IdealDomainError(ValueError):
    """The zero or unit ideal was handed to an operation that rejects it."""


class CapExceededError(RuntimeError):
    """A resource cap was hit: the variables of a context or of the engine."""


def bits(mask: int) -> list:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def components(masks) -> int:
    """The number of connected components of the nonzero `masks`, two masks
    joined when they share a bit."""
    count, left = 0, list(masks)
    while left:
        reach, before = left[0], 0
        while reach != before:
            before = reach
            for f in left:
                if f & reach:
                    reach |= f
        left = [f for f in left if not f & reach]
        count += 1
    return count


def check_context_cap(n: int):
    """Refuse a ring of more than DEFAULT_MAX_VARS variables."""
    if n > DEFAULT_MAX_VARS:
        raise CapExceededError(f"{n} variables exceeds the context cap {DEFAULT_MAX_VARS}")


@dataclass(frozen=True)
class VariableContext:
    """The ambient polynomial ring k[names[0], ..., names[n-1]]."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("a variable context needs at least one variable")
        check_context_cap(len(names))
        if any(not isinstance(s, str) or not s for s in names):
            raise ValueError("variable names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @functools.cached_property
    def _bits(self) -> dict:
        """name -> 1 << index, built on the first name looked up."""
        return {s: 1 << k for k, s in enumerate(self.names)}

    def ordered_mask(self, names: Iterable) -> tuple:
        """(mask of `names`, whether they list its variables once each in
        the context's order, as names_of does)."""
        m, ordered = 0, True
        bit_of = self._bits
        for s in names:
            try:
                b = bit_of[s]
            except (KeyError, TypeError):  # TypeError: an unhashable name
                raise ValueError(f"unknown variable {s!r}") from None
            if b <= m:  # b is a power of two, so b > m iff it tops every bit of m
                ordered = False
            m |= b
        return m, ordered

    def mask_of(self, names: Iterable) -> int:
        return self.ordered_mask(names)[0]

    def names_of(self, mask: int) -> tuple:
        return tuple([self.names[i] for i in bits(mask)])


def _check_context(a, b):
    if a.context != b.context:
        raise ContextMismatchError("operands belong to different variable contexts")


def minimize_supports(masks: Iterable) -> tuple:
    """Drop generators whose support contains another generator's support."""
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class SquareFreeIdeal:
    """Minimized generator set; () is the zero ideal, (0,) the unit ideal."""

    context: VariableContext
    generators: tuple  # sorted tuple of support bitmasks

    def __post_init__(self):
        gens = minimize_supports(self.generators)
        object.__setattr__(self, "generators", gens)
        if any(g < 0 or g > self.context.full_mask for g in gens):
            raise ValueError("generator support outside the variable context")

    @classmethod
    def from_supports(cls, context: VariableContext, masks: Iterable) -> "SquareFreeIdeal":
        return cls(context, tuple(masks))

    @classmethod
    def from_variable_lists(cls, context: VariableContext, lists: Iterable) -> "SquareFreeIdeal":
        return cls(context, tuple(context.mask_of(g) for g in lists))

    @classmethod
    def maximal(cls, context: VariableContext) -> "SquareFreeIdeal":
        return cls(context, tuple(1 << i for i in range(context.n)))

    @classmethod
    def intersection_of_primes(cls, context: VariableContext, prime_lists: Iterable) -> "SquareFreeIdeal":
        result = None
        for vars_ in prime_lists:
            p = cls(context, tuple(1 << i for i in bits(context.mask_of(vars_))))
            result = p if result is None else intersect(result, p)
        if result is None:
            raise ValueError("empty intersection of primes")
        return result

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return self.generators == (0,)

    @property
    def r(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _minimal_primes(self) -> tuple:
        found = sorted(_minimal_transversals(self), key=lambda m: tuple(bits(m)))
        return tuple(CoordinatePrime(self.context, m) for m in found)

    def support_union(self) -> int:
        u = 0
        for g in self.generators:
            u |= g
        return u

    def generator_lists(self) -> list:
        return [list(self.context.names_of(g)) for g in self.generators]

    def to_json(self) -> dict:
        return {"variables": list(self.context.names), "generators": self.generator_lists()}


@dataclass(frozen=True)
class CoordinatePrime:
    """The prime generated by the single variables in `variables`."""

    context: VariableContext
    variables: int  # nonempty bitmask

    def __post_init__(self):
        if self.variables == 0:
            raise ValueError("a coordinate prime needs at least one variable")
        if self.variables > self.context.full_mask:
            raise ValueError("variables outside the context")

    @property
    def height(self) -> int:
        return self.variables.bit_count()

    def label(self) -> str:
        return "P{" + ",".join(self.context.names_of(self.variables)) + "}"


# ---------------------------------------------------------------------------
# operations


def intersect(I: SquareFreeIdeal, J: SquareFreeIdeal) -> SquareFreeIdeal:
    """Set-theoretic intersection: pairwise lcms (support unions), minimized."""
    _check_context(I, J)
    return SquareFreeIdeal(I.context, tuple(g | h for g in I.generators for h in J.generators))


def sum_ideals(I: SquareFreeIdeal, J: SquareFreeIdeal) -> SquareFreeIdeal:
    _check_context(I, J)
    return SquareFreeIdeal(I.context, I.generators + J.generators)


def require_analyzable(I: SquareFreeIdeal):
    if I.is_zero:
        raise IdealDomainError("the zero ideal is not accepted here")
    if I.is_unit:
        raise IdealDomainError("the unit ideal is not accepted here")


def _minimal_transversals(I: SquareFreeIdeal) -> list:
    """Minimal variable sets meeting every generator support, as bitmasks.

    Berge's algorithm (C. Berge, "Hypergraphs", 1989) adds the supports one
    at a time to the minimal transversals of those before.  Two facts make
    it exact.  A minimal transversal that meets the new support g stays
    minimal, and is kept.  One, t, that misses g gives the candidates t | v
    for v in g; these are pairwise incomparable (t | v inside t' | v' forces
    v = v', as t' misses g, and then t = t' in the antichain), so only a
    kept transversal can lie inside one, and the others are exactly the new
    minimal transversals.
    """
    found = [0]
    for g in sorted(I.generators, key=int.bit_count):
        kept = [t for t in found if t & g]
        grown = [t | 1 << v for t in found if not t & g for v in bits(g)]
        found = kept + [c for c in grown if not any(k & c == k for k in kept)]
    return found


def minimal_primes(I: SquareFreeIdeal) -> tuple:
    """Minimal primes over I, as minimal transversals of the generator supports.

    Returned in lexicographic order of variable index sets.  No generator
    cap applies: after each generator the transversal search holds an
    antichain of variable sets, by Sperner's theorem at most C(n, n // 2).
    """
    require_analyzable(I)
    return I._minimal_primes


def is_m_primary(I: SquareFreeIdeal) -> bool:
    """True iff sqrt(I) is the maximal ideal, i.e. every variable is a generator;
    False for the zero and the unit ideal, which have no single-variable one."""
    singles = {g for g in I.generators if g.bit_count() == 1}
    return len(singles) == I.context.n


def stanley_reisner_facets(I: SquareFreeIdeal) -> tuple:
    """Facets of {F : no generator support contained in F}, sorted.

    A face misses a set of variables that meets every generator, so the
    facets are the complements of the minimal transversals (the minimal
    primes); the maximal ideal gives the empty face alone, (0,).  The test
    suite checks them against a direct enumeration of all 2^n subsets,
    which is the independent route.
    """
    require_analyzable(I)
    full = I.context.full_mask
    return tuple(sorted(full & ~p.variables for p in I._minimal_primes))


def dim_quotient(I: SquareFreeIdeal) -> int:
    """Krull dimension of S/I: the maximal facet cardinality."""
    return max(F.bit_count() for F in stanley_reisner_facets(I))


def height(I: SquareFreeIdeal) -> int:
    """min over minimal primes of the number of variables."""
    return min(p.height for p in minimal_primes(I))
