"""svtlab: graded local cohomology of square-free monomial ideals and the
second-vanishing-theorem equivalence, computed exactly."""

__version__ = "0.1.0"

# Stamped on every cache entry; bump it whenever the table engine changes,
# so entries written by an older engine are recomputed, not served.
ENGINE_VERSION = "3"
