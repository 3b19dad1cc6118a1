import contextlib
import itertools
import math
import pathlib
import signal

import pytest
from hypothesis import strategies as st

from latcert.discgroup import DiscAction
from latcert.lattice import GramLattice
from latcert.matrices import adjugate, det, from_rows, mat_mul

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

PAPER_GRAM = [[4, 20], [20, 4]]
PAPER_SIGMA = [[10, 1], [-1, 0]]


@pytest.fixture
def paper_lattice():
    return GramLattice.from_rows(PAPER_GRAM)


@pytest.fixture
def sigma():
    return from_rows(PAPER_SIGMA)


@pytest.fixture
def data_dir():
    return DATA_DIR


def small_sweep():
    """Every even indefinite [[2a,b],[b,2c]] with |a|, |c| <= 8 and
    0 <= b <= 11."""
    return [
        [[2 * a, b], [b, 2 * c]]
        for a, c, b in itertools.product(range(-8, 9), range(-8, 9), range(12))
        if 4 * a * c - b * b < 0
    ]


def census_window():
    """The 450 reduced pairs [[4,b],[b,2c]], 0 <= b <= 2, with
    -1200 <= det < 0."""
    return [
        [[4, b], [b, 2 * c]]
        for b in range(3)
        for c in range(0 if b else -1, -200, -1)
        if b * b - 8 * c <= 1200
    ]


def symmetric_entries(rank, lo=-9, hi=9):
    ints = st.integers(lo, hi)
    return st.lists(
        st.lists(ints, min_size=rank, max_size=rank),
        min_size=rank,
        max_size=rank,
    ).map(_symmetrize)


def _symmetrize(rows):
    n = len(rows)
    return [
        [rows[i][j] if i <= j else rows[j][i] for j in range(n)]
        for i in range(n)
    ]


@st.composite
def nondegenerate_lattices(draw, lo=-9, hi=9):
    rows = draw(
        symmetric_entries(2, lo, hi).filter(
            lambda r: det(from_rows(r)) != 0
        )
    )
    return GramLattice.from_rows(rows)


def even_indefinite_rank2_strategy(lo=-8, hi=8):
    """Even rank-2 lattices with negative determinant (signature (1,1))."""
    even = st.integers(lo // 2, hi // 2).map(lambda x: 2 * x)
    return (
        st.tuples(even, st.integers(lo, hi), even)
        .filter(lambda t: t[0] * t[2] - t[1] * t[1] < 0)
        .map(lambda t: GramLattice.from_rows([[t[0], t[1]], [t[1], t[2]]]))
    )


def small_vectors(rank, lo=-6, hi=6):
    return st.lists(
        st.integers(lo, hi), min_size=rank, max_size=rank
    ).map(tuple)


ELEMENTARY_OPS = st.lists(
    st.tuples(
        st.integers(0, 3),  # target row
        st.integers(0, 3),  # source row
        st.integers(-2, 2),  # multiple
    ),
    max_size=8,
)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m, k):
    """m^k for a 2x2 integer matrix and k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("negative power not supported")
    result = identity(2)
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def brute_pell(d, y_max):
    """Smallest (x, y) with y in 1..y_max and x^2 - d*y^2 = 1, if any."""
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be a positive nonsquare")
    for y in range(1, y_max + 1):
        rhs = d * y * y + 1
        x = math.isqrt(rhs)
        if x * x == rhs:
            return x, y
    return None


def pell_by_squaring(d, y_limit=None):
    """The continued-fraction walk that tests p^2 - d*q^2 = 1 at every
    convergent, as a reference independent of quadform's rho-step; None
    once a denominator passes y_limit before the solution."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    while p_cur * p_cur - d * q_cur * q_cur != 1:
        if y_limit is not None and q_cur > y_limit:
            return None
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return p_cur, q_cur


def unimodular_inverse(m):
    """The integer inverse of a 2x2 matrix of determinant +-1."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {d})")
    return tuple(tuple(x * d for x in row) for row in adjugate(m))


def identity_action(factors):
    return DiscAction(matrix=identity(len(factors)), factors=factors)


def reduced(action):
    """The action's matrix with row i reduced modulo factors[i]: two
    actions on one group are the same map iff these are equal."""
    return tuple(
        tuple(x % d for x in row) for row, d in zip(action.matrix, action.factors)
    )


def is_identity(action):
    return reduced(action) == reduced(identity_action(action.factors))


def compose(a, b):
    """The action a*b, its matrix product taken unreduced."""
    if a.factors != b.factors:
        raise ValueError("actions on different groups")
    return DiscAction(matrix=mat_mul(a.matrix, b.matrix), factors=a.factors)


def random_unimodular(rank, ops):
    """Product of elementary row additions: always unimodular."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, k in ops:
        i, j = i % rank, j % rank
        if i == j:
            continue
        for col in range(rank):
            m[i][col] += k * m[j][col]
    return from_rows(m)


CONSTRUCTION_PATHS = ("positional", "keyword", "_make", "_replace")


def rebuild(path, valid, **changes):
    """The record `valid` with `changes` applied, built through one of
    CONSTRUCTION_PATHS; a validated type must check every one of them."""
    cls = type(valid)
    fields = {**valid._asdict(), **changes}
    if path == "positional":
        return cls(*fields.values())
    if path == "keyword":
        return cls(**fields)
    if path == "_make":
        return cls._make(fields.values())
    return valid._replace(**changes)


# Entries whose discriminants have a prime factor far above
# isometry.TRIAL_DIVISION_BOUND.
HANG_CHECK_N = 1000000000000134  # N^2 + 1 is prime
HANG_ORBIT_T = 100000000000000000089  # T^2 - 8 is prime


@contextlib.contextmanager
def deadline(seconds, what):
    """Raise TimeoutError in the body once it runs past `seconds`."""

    def alarm(*_):
        raise TimeoutError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
