"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's grid machinery: membership
is a plain bounded search, complements are box enumerations.  Expected values
in the tests were computed with these oracles and then frozen.
"""

import itertools
import os

import pytest

import hilbclose
from hilbclose.lattice import AffineSemigroup


def child_env():
    """The environment for a child interpreter that imports this same hilbclose."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hilbclose.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def brute_member(gens, v):
    """Nonnegative-integer-combination search, memoized, bounded by v itself."""
    gens = [tuple(g) for g in gens]
    memo = {}

    def rec(w):
        if all(c == 0 for c in w):
            return True
        if w in memo:
            return memo[w]
        memo[w] = False
        for g in gens:
            d = tuple(a - b for a, b in zip(w, g))
            if all(c >= 0 for c in d) and rec(d):
                memo[w] = True
                break
        return memo[w]

    w = tuple(v)
    if any(c < 0 for c in w):
        return False
    return rec(w)


def brute_ideal_member(sgens, igens, v):
    return any(
        brute_member(sgens, tuple(a - b for a, b in zip(v, g)))
        for g in igens
        if all(a - b >= 0 for a, b in zip(v, g)))


def brute_complement(sgens, igens, box):
    """S-points inside [0, box]^d that are not in the ideal."""
    dim = len(next(iter(sgens)))
    out = []
    for v in itertools.product(range(box + 1), repeat=dim):
        if brute_member(sgens, v) and not brute_ideal_member(sgens, igens, v):
            out.append(v)
    return sorted(out)


REMARK_GENS = [(1, 0), (1, 1), (0, 2), (0, 3)]


@pytest.fixture
def remark_ring():
    """The 2-dimensional non-normal domain with a one-dimensional normalization cokernel."""
    return AffineSemigroup(2, REMARK_GENS)


@pytest.fixture
def free2():
    return AffineSemigroup(2, [(1, 0), (0, 1)])


@pytest.fixture
def free3():
    return AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def cm_ring():
    """Cohen-Macaulay but non-regular: first coordinates from the (2,3) numerical semigroup."""
    return AffineSemigroup(2, [(2, 0), (3, 0), (0, 1)])
