import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcert.isometry import (
    MAX_K_MAX,
    QuadraticRoot,
    TRIAL_DIVISION_BOUND,
    _squarefree_split,
    char_poly_rank2,
    is_isometry,
    order,
    polarization_orbit,
    preserves_positive_cone,
)
from latcert.lattice import GramLattice, inner, norm
from latcert.matrices import mat_mul, mat_vec

from .conftest import (
    HANG_CHECK_N,
    HANG_ORBIT_T,
    deadline,
    identity,
    mat_pow,
    small_vectors,
    unimodular_inverse,
)

NEG_I = ((-1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))


class TestIsIsometry:
    def test_sigma(self, paper_lattice, sigma):
        assert is_isometry(paper_lattice, sigma)

    def test_identity(self, paper_lattice):
        assert is_isometry(paper_lattice, identity(2))

    def test_basis_swap(self, paper_lattice):
        assert is_isometry(paper_lattice, SWAP)

    def test_non_isometry(self, paper_lattice):
        assert not is_isometry(paper_lattice, ((1, 1), (0, 1)))

    def test_dimension_mismatch(self, paper_lattice):
        with pytest.raises(ValueError):
            is_isometry(paper_lattice, ((1,),))

    @given(st.data())
    @settings(max_examples=100)
    def test_norm_preservation(self, data):
        g = GramLattice.from_rows([[4, 20], [20, 4]])
        sigma = ((10, 1), (-1, 0))
        k = data.draw(st.integers(0, 5))
        v = data.draw(small_vectors(2))
        m = mat_pow(sigma, k)
        assert norm(g, mat_vec(m, v)) == norm(g, v)

    def test_group_closure(self, paper_lattice, sigma):
        cases = [sigma, SWAP, NEG_I, unimodular_inverse(sigma)]
        for a in cases:
            for b in cases:
                assert is_isometry(paper_lattice, mat_mul(a, b))
            assert is_isometry(paper_lattice, unimodular_inverse(a))


class TestPositiveCone:
    def test_sigma_preserves(self, paper_lattice, sigma):
        assert preserves_positive_cone(paper_lattice, sigma, (1, 0))
        assert inner(paper_lattice, mat_vec(sigma, (1, 0)), (1, 0)) == 20

    def test_identity_preserves(self, paper_lattice):
        assert preserves_positive_cone(paper_lattice, identity(2), (1, 0))

    def test_negation_flips(self, paper_lattice):
        assert not preserves_positive_cone(paper_lattice, NEG_I, (1, 0))

    def test_rejects_h_outside_cone(self, paper_lattice):
        with pytest.raises(ValueError):
            preserves_positive_cone(paper_lattice, identity(2), (1, -1))

    def test_multiplicative_flag(self, paper_lattice, sigma):
        h = (1, 0)
        cases = [sigma, NEG_I, SWAP, mat_mul(NEG_I, sigma)]
        for a in cases:
            for b in cases:
                flag_ab = preserves_positive_cone(paper_lattice, mat_mul(a, b), h)
                flag_a = preserves_positive_cone(paper_lattice, a, h)
                flag_b = preserves_positive_cone(paper_lattice, b, h)
                assert flag_ab == (flag_a == flag_b)


class TestOrder:
    def test_identity(self):
        assert order(identity(2)) == 1

    def test_negation(self):
        assert order(NEG_I) == 2

    def test_sigma_infinite(self, sigma):
        assert order(sigma) is None
        assert mat_pow(sigma, 12) != identity(2)

    def test_rotation_order_four(self):
        assert order(((0, -1), (1, 0))) == 4

    def test_order_six(self):
        assert order(((1, -1), (1, 0))) == 6

    def test_matches_power_loop(self):
        # every finite-order element of GL(2, Z) has order dividing 12
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
            m = ((a, b), (c, d))
            expected = None
            power = m
            for k in range(1, 13):
                if power == identity(2):
                    expected = k
                    break
                power = mat_mul(power, m)
            assert order(m) == expected, m


class TestCharPoly:
    def test_sigma(self, sigma):
        char = char_poly_rank2(sigma)
        assert (char.trace, char.det) == (10, 1)
        root = char.dominant_root
        # (p + q*sqrt(d)) / 2 with integers p, q
        assert (root.p, root.q, root.d) == (10, 4, 6)
        assert str(root) == "5 + 2*sqrt(6)"

    def test_odd_trace_root_prints_halves(self):
        root = char_poly_rank2(((1, 1), (1, 0))).dominant_root
        assert (root.p, root.q, root.d) == (1, 1, 5)
        assert str(root) == "1/2 + 1/2*sqrt(5)"

    def test_str_prints_halves_as_fractions(self):
        for p, q in itertools.product(range(-9, 10), range(1, 10)):
            root = QuadraticRoot(p=p, q=q, d=7)
            assert str(root) == f"{Fraction(p, 2)} + {Fraction(q, 2)}*sqrt(7)"

    def test_identity(self):
        # the double root 1 is rational
        char = char_poly_rank2(identity(2))
        assert (char.trace, char.det) == (2, 1)
        assert char.dominant_root is None

    def test_swap(self):
        # the roots 1 and -1 are rational
        char = char_poly_rank2(SWAP)
        assert (char.trace, char.det) == (0, -1)
        assert char.dominant_root is None

    def test_content_of_trace_free_part(self):
        # M = t*I + u*N has g = gcd(a - d, b, c) divisible by u, and g^2
        # divides tr^2 - 4*det; the root matches a split of the whole disc
        for t, u, n in itertools.product(
            (-7, 0, 3, 10), (2, 3, 12), (((1, 2), (3, -1)), ((1, 1), (1, 0)))
        ):
            m = tuple(
                tuple(t * (i == j) + u * n[i][j] for j in range(2))
                for i in range(2)
            )
            char = char_poly_rank2(m)
            disc = char.trace**2 - 4 * char.det
            s, d = _squarefree_split_by_trial_division(disc)
            assert char.dominant_root == QuadraticRoot(
                p=char.trace, q=s, d=d
            ), m

    def test_content_scales_q_only(self, sigma):
        base = char_poly_rank2(sigma).dominant_root
        for u in (2, 3, 35, 10**9 + 7):
            m = ((5 + 5 * u, u), (-u, 5 - 5 * u))
            root = char_poly_rank2(m).dominant_root
            assert (root.p, root.q, root.d) == (base.p, u * base.q, base.d)


def _squarefree_split_by_trial_division(n):
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1
    return s, d * n


class TestFactoringBound:
    @pytest.mark.parametrize(
        "m",
        [
            (
                (2 * HANG_CHECK_N**2 + 1, 2 * (HANG_CHECK_N**2 + 1) * HANG_CHECK_N),
                (2 * HANG_CHECK_N, 2 * HANG_CHECK_N**2 + 1),
            ),
            ((HANG_ORBIT_T, 1), (-2, 0)),
        ],
    )
    def test_prime_discriminant_part_in_bounded_time(self, m):
        with deadline(2.0, "char_poly_rank2"):
            char = char_poly_rank2(m)
        root = char.dominant_root
        assert root.p == char.trace
        assert root.q**2 * root.d == char.trace**2 - 4 * char.det

    def test_root_identity_past_the_bound(self):
        rng = random.Random(15)
        for _ in range(25):
            m = tuple(
                tuple(rng.randint(-(10**30), 10**30) for _ in range(2))
                for _ in range(2)
            )
            root = char_poly_rank2(m).dominant_root
            tr, dt = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if root is not None:
                assert root.q**2 * root.d == tr * tr - 4 * dt, m


class TestSquarefreeSplit:
    def test_matches_full_trial_division(self):
        for n in range(1, 20001):
            expected = _squarefree_split_by_trial_division(n)
            assert _squarefree_split(n) == expected, n

    def test_cube_root_edge_cases(self):
        # the remainder after stripping primes below its cube root
        p, q = 65_519, 65_521  # the two largest primes below the bound
        assert q < TRIAL_DIVISION_BOUND
        assert _squarefree_split(p * p) == (p, 1)
        assert _squarefree_split(p * q) == (1, p * q)
        assert _squarefree_split(p * p * q) == (p, q)
        assert _squarefree_split(4 * p * p) == (2 * p, 1)
        assert _squarefree_split(6 * q * q) == (q, 6)

    def test_primes_above_the_bound(self):
        # a remainder with no prime factor up to the bound is kept whole
        # unless it is a perfect square, so p^2 stays inside d here
        p, q = 999_983, 1_000_003
        assert _squarefree_split(p * p) == (p, 1)
        assert _squarefree_split(p * q) == (1, p * q)
        assert _squarefree_split(p * p * q) == (1, p * p * q)
        assert _squarefree_split(4 * p * p) == (2 * p, 1)
        assert _squarefree_split(6 * q * q) == (q, 6)
        assert _squarefree_split(4 * p * p * q) == (2, p * p * q)


class TestPolarizationOrbit:
    def test_paper_orbit_segment(self, paper_lattice, sigma):
        orbit = polarization_orbit(paper_lattice, sigma, (1, 0), 2, 10**9)
        assert orbit[0] == (0, (1, 0), 4)
        assert orbit[1] == (1, (10, -1), 20)
        assert orbit[2] == (2, (99, -10), 196)

    def test_degree_growth(self, paper_lattice, sigma):
        orbit = polarization_orbit(paper_lattice, sigma, (1, 0), 10, 10**30)
        degrees = [d for _, _, d in orbit]
        assert degrees == sorted(degrees)
        assert len(set(degrees)) == len(degrees)

    def test_stops_at_the_first_entry_that_reaches_the_limit(self, paper_lattice, sigma):
        assert len(polarization_orbit(paper_lattice, sigma, (1, 0), 2, 197)) == 3
        assert polarization_orbit(paper_lattice, sigma, (1, 0), 2, 196) is None
        # -sigma sends h to (-10, 1) of degree -20: absolute values count
        minus = ((-10, -1), (1, 0))
        assert len(polarization_orbit(paper_lattice, minus, (1, 0), 1, 21)) == 2
        assert polarization_orbit(paper_lattice, minus, (1, 0), 1, 20) is None

    @pytest.mark.parametrize("k_max", [0, MAX_K_MAX + 1])
    def test_rejects_bad_k_max(self, paper_lattice, sigma, k_max):
        with pytest.raises(ValueError, match="k_max must be between"):
            polarization_orbit(paper_lattice, sigma, (1, 0), k_max, 10**9)
