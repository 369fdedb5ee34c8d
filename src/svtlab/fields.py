"""Coefficient field selection for the exact linear algebra.

The default field is the rationals (ranks computed by fraction-free
integer elimination, so no floating point anywhere).  Finite prime
fields are available for speed and for characteristic experiments.

A FieldSpec only selects and labels the field: it has no element
arithmetic, because every quantity svtlab computes is a count of terms
plus and minus ranks of sparse integer matrices.  That includes the rank
of multiplication by x_j on H^i: it is the restriction from the complex
of the source pattern to its induced subcomplex on the target, so its
rank follows from the relative cohomology of the pair and the table by
exactness (cech states the recurrence).  linalg takes every rank with one
incremental echelon, the same for every field: over GF(p) on native ints
mod p, each kept row scaled to a leading 1; over Q fraction-free on
integers.
"""

from __future__ import annotations

from dataclasses import dataclass


# Miller-Rabin with the first 13 primes as bases is exact below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015);
# the first 12 alone are fooled by 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic for p < MAX_CHARACTERISTIC."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """characteristic 0 means the rationals; otherwise a prime p gives GF(p)."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"field characteristic must be below {MAX_CHARACTERISTIC}, "
                f"got {self.characteristic}"
            )
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(
                f"field characteristic must be 0 or a prime, got {self.characteristic}"
            )

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def label(self) -> str:
        return "rationals" if self.is_rationals else f"GF({self.characteristic})"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        if text in ("rationals", "QQ", "Q", "0"):
            return cls(0)
        return cls(int(text))

