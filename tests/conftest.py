import os
import random
import sys

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from svtlab.fields import FieldSpec
from svtlab.ideals import SquareFreeIdeal, VariableContext

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name: str) -> str:
    return os.path.abspath(os.path.join(FIXTURES, name))


@pytest.fixture
def rationals():
    return FieldSpec(0)


def context_of(n: int) -> VariableContext:
    return VariableContext(tuple(f"x{i + 1}" for i in range(n)))


@st.composite
def proper_ideals(draw, min_n=3, max_n=5, max_gens=4):
    """Random proper nonzero square-free ideals in a small ring."""
    n = draw(st.integers(min_n, max_n))
    ctx = context_of(n)
    gens = draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens)
    )
    I = SquareFreeIdeal(ctx, gens)
    return I


def seeded_random_ideals(n, count, seed, max_gens=4):
    """Deterministic sample used by the acceptance suites."""
    from svtlab.analysis import random_square_free_ideal

    ctx = context_of(n)
    rng = random.Random(seed)
    return [random_square_free_ideal(ctx, rng, max_gens) for _ in range(count)]
