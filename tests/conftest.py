"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's grid machinery: membership
is a plain bounded search, complements are box enumerations.  Expected values
in the tests were computed with these oracles and then frozen.  The
limit-closure oracles are the exception: they reach a closure by another
route than the library's closed form, through the package's own colon,
membership and intersection: the colon chain at a fixed index, a bounded
search over the chain index, and the split intersection as a meet of
per-split chain members.
"""

import itertools
import os

import pytest

import hilbclose
from hilbclose.ideals import MonomialIdeal, ideal_colon, ideal_intersection
from hilbclose.lattice import AffineSemigroup, vadd, vscale, vsub


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


def limit_chain_member(q, t):
    """The t-th colon (u1^(t+1), ..., ud^(t+1)) : (u1...ud)^t of the limit-closure
    chain, computed as an ideal colon (a test oracle for the closed form)."""
    ring = q.ring
    gens = [g.scaled(t + 1) for g in q.ordered_generators]
    if t == 0:
        return MonomialIdeal(ring, gens)
    prod = (0,) * ring.dim
    for g in q.ordered_generators:
        prod = vadd(prod, g)
    return ideal_colon(MonomialIdeal(ring, gens), vscale(t, prod))


def limit_member_by_search(q, v, t_max):
    """v in S with v - u_i + t*u_j in S for some i, j != i and t <= t_max (2-D)."""
    ring = q.ring
    u1, u2 = q.ordered_generators
    return ring.member(v) and any(
        ring.member(vadd(vsub(v, ui), vscale(t, uj)))
        for ui, uj in ((u1, u2), (u2, u1)) for t in range(t_max + 1))


def compositions(total, parts):
    """All compositions of ``total`` into ``parts`` positive entries, lex order."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def split_meet(q, total):
    """The intersection of the limit closures of the splits Q(alpha),
    |alpha| = total, as a meet of extracted closures.  Each closure is the
    colon chain at t = 48, which reaches it on the rings the tests draw, so
    the oracle shares no code with the closed form."""
    return ideal_intersection(limit_chain_member(q.split(alpha), 48)
                              for alpha in compositions(total, q.ring.dim))


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
