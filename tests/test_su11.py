import cmath
import math
import random

import numpy as np
import pytest

from lambshift.oracles import BchCoordinates, bch_decompose, bch_reconstruct_2x2
from lambshift.su11 import (
    GroupElement,
    RepLabel,
    _finite_transform,
    compose,
    rep_matrix_element,
    scaling_coords,
)

IDENTITY = GroupElement(1.0 + 0.0j, 0.0j)
# the tilted compact generator's element at (T, phi) = (0.8, 0.5), (0.7, 1.2) and (1.1, 0.6):
# alpha = cos(T/2) - i sin(T/2) cosh(phi), beta = -sin(T/2) sinh(phi)
TILTED = {
    (T, phi): GroupElement(
        complex(math.cos(T / 2.0), -math.sin(T / 2.0) * math.cosh(phi)),
        complex(-math.sin(T / 2.0) * math.sinh(phi)),
    )
    for T, phi in ((0.8, 0.5), (0.7, 1.2), (1.1, 0.6))
}


def element(rho: float, chi: float, psi: float) -> GroupElement:
    """The element of polar coordinates alpha = e^{i chi} cosh rho, beta = e^{i psi} sinh rho."""
    return GroupElement(cmath.exp(1j * chi) * math.cosh(rho), cmath.exp(1j * psi) * math.sinh(rho))


def random_coords(rng: random.Random) -> tuple[float, float, float]:
    return rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)


def random_element(rng: random.Random) -> GroupElement:
    return element(*random_coords(rng))


def inverse(u: GroupElement) -> GroupElement:
    return GroupElement(u.alpha.conjugate(), -u.beta)


class TestGroupChart:
    def test_identity_and_inverse(self):
        u = scaling_coords(0.8)
        assert compose(IDENTITY, u) == u
        w = compose(u, inverse(u))
        assert abs(w.alpha - 1.0) < 1e-15 and abs(w.beta) < 1e-15

    def test_canonical_elements_satisfy_tight_determinant(self):
        for phi in (0.0, 0.3, 2.0, 8.0):
            assert abs(scaling_coords(phi).det_defect()) < 1e-12

    def test_rejects_non_group_coordinates(self):
        with pytest.raises(ValueError):
            GroupElement(1.5, 0.2)
        # _replace skips GroupElement's own check: |alpha|^2 - |beta|^2 = 4 - sinh^2(0.45)
        u = scaling_coords(0.9)._replace(alpha=2.0 + 0j)
        with pytest.raises(ValueError, match="determinant invariant"):
            rep_matrix_element(RepLabel(2), 2, 3, u)

    def test_scaling_one_parameter_subgroup(self):
        rng = random.Random(7)
        for _ in range(20):
            p1, p2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            got = compose(scaling_coords(p1), scaling_coords(p2))
            want = scaling_coords(p1 + p2)
            # oracle: plain 2x2 matrix product
            m1, m2 = np.array(scaling_coords(p1).matrix()), np.array(scaling_coords(p2).matrix())
            prod = m1 @ m2
            assert abs(got.alpha - prod[0, 0]) < 1e-12
            assert abs(got.alpha - want.alpha) < 1e-12
            assert abs(got.beta - want.beta) < 1e-12

    def test_scaling_half_angle(self):
        phi = math.acosh(1.25)
        assert scaling_coords(phi).alpha.real == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-15, abs=0)
        round_trip = compose(scaling_coords(phi), scaling_coords(-phi))
        assert abs(round_trip.alpha - 1.0) < 1e-15 and abs(round_trip.beta) < 1e-16


class TestBch:
    def test_identity_coordinates(self):
        b = bch_decompose(IDENTITY)
        assert (b.rho, b.chi, b.psi) == (0.0, 0.0, 0.0)

    def test_real_boost(self):
        r = 0.85
        u = GroupElement(math.cosh(r), math.sinh(r))
        b = bch_decompose(u)
        assert b.rho == pytest.approx(r, rel=1e-14, abs=0)
        assert b.chi == 0.0 and b.psi == 0.0

    @pytest.mark.parametrize("rho", [1e-9, 1e-7, 1e-6, 1e-5])
    def test_small_boost_is_kept(self, rho):
        # criterion 8's bound at boosts below its random draws: cosh rho
        # keeps only rho^2/2 of the boost (none below rho ~ 1e-8), so rho
        # must come from sinh rho = |beta|
        for k in range(1, 100):
            u = element(rho, 2.0 * math.pi * k / 100, 0.3)
            m = bch_reconstruct_2x2(bch_decompose(u))
            assert np.max(np.abs(m - np.array(u.matrix()))) <= 1e-12, k

    def test_reconstruct_round_trip_on_coordinates(self):
        rng = random.Random(3)
        for _ in range(50):
            u = random_element(rng)
            v = element(*bch_decompose(u))
            assert abs(u.alpha - v.alpha) < 1e-12
            assert abs(u.beta - v.beta) < 1e-12

    def test_disentangled_product_reconstructs_100_random_elements(self):
        rng = random.Random(11)
        for _ in range(100):
            u = random_element(rng)
            m = bch_reconstruct_2x2(bch_decompose(u))
            expect = np.array(u.matrix())
            assert np.max(np.abs(m - expect)) < 1e-12

    def test_disentangled_identity_and_boost(self):
        assert np.max(np.abs(bch_reconstruct_2x2(BchCoordinates(0.0, 0.0, 0.0)) - np.eye(2))) == 0.0
        r = 0.6
        m = bch_reconstruct_2x2(BchCoordinates(r, 0.0, 0.0))
        expect = np.array([[math.cosh(r), math.sinh(r)], [math.sinh(r), math.cosh(r)]])
        assert np.max(np.abs(m - expect)) < 1e-14

    def test_reconstructs_time_evolution_element(self):
        u = TILTED[1.1, 0.6]
        m = bch_reconstruct_2x2(bch_decompose(u))
        assert np.max(np.abs(m - np.array(u.matrix()))) < 1e-12

    def test_psi_convention_at_zero_beta_is_unobservable(self):
        # with beta = 0 any psi describes the same element, so fixing
        # psi := 0 cannot change anything downstream
        chi = 0.7
        canonical = element(0.0, chi, 0.0)
        arbitrary = element(0.0, chi, 1.234)
        assert canonical == arbitrary
        a = bch_reconstruct_2x2(BchCoordinates(0.0, chi, 0.0))
        b = bch_reconstruct_2x2(BchCoordinates(0.0, chi, 1.234))
        assert np.max(np.abs(a - b)) == 0.0
        assert bch_decompose(canonical).psi == 0.0


class TestRepresentation:
    def test_label_validation(self):
        assert RepLabel(3).m0 == 3
        with pytest.raises(ValueError):
            RepLabel(0)
        # a string raised TypeError from the comparison, NaN from int(), and
        # True was taken as the tower m0 = 1
        for bad in ("2", 2.5, math.nan, math.inf, None, True):
            with pytest.raises(ValueError, match="m0 must be a positive integer"):
                RepLabel(bad)
        assert RepLabel(2.0).m0 == 2

    def test_identity_is_kronecker_delta(self):
        label = RepLabel(2)
        for mr in range(2, 6):
            for mc in range(2, 6):
                got = rep_matrix_element(label, mr, mc, IDENTITY)
                assert got == (1.0 if mr == mc else 0.0)

    def test_below_tower_indices_vanish(self):
        label = RepLabel(3)
        u = scaling_coords(0.9)
        assert rep_matrix_element(label, 2, 5, u) == 0.0
        assert rep_matrix_element(label, 5, 1, u) == 0.0

    def test_lowest_weight_closed_form(self):
        label = RepLabel(2)
        phi = math.acosh(1.25)
        got = rep_matrix_element(label, 2, 2, scaling_coords(phi))
        assert abs(got) ** 2 == pytest.approx((8.0 / 9.0) ** 4, rel=1e-13, abs=0)
        u = TILTED[0.7, 1.2]
        expect = u.alpha.conjugate() ** -4
        assert rep_matrix_element(label, 2, 2, u) == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_ladder_series(self):
        # independent oracle: the r-sum over disentangled ladder powers
        rng = random.Random(5)
        for _ in range(25):
            coords = random_coords(rng)
            u = element(*coords)
            m0 = rng.randint(1, 3)
            mr = rng.randint(m0, m0 + 5)
            mc = rng.randint(m0, m0 + 5)
            got = rep_matrix_element(RepLabel(m0), mr, mc, u)
            want = _ladder_series_oracle(m0, mr, mc, *coords)
            assert got == pytest.approx(want, rel=2e-11, abs=1e-13)

    def test_unitarity_partial_sums(self):
        u = compose(scaling_coords(1.1), TILTED[0.8, 0.5])
        for m0 in (1, 2, 3):
            label = RepLabel(m0)
            for m_row in range(m0, m0 + 4):
                total = 0.0
                tail = 1.0
                for m in range(m0, m0 + 140):
                    v = rep_matrix_element(label, m_row, m, u)
                    tail = abs(v) ** 2
                    total += tail
                assert tail < 1e-12, "truncation tail too large for the check"
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_homomorphism_under_composition(self):
        rng = random.Random(9)
        # elements kept moderate so the intermediate-state sum converges
        # comfortably below the 1e-9 comparison level
        u1 = GroupElement(cmath.exp(0.4j) * math.cosh(0.9), cmath.exp(1.9j) * math.sinh(0.9))
        u2 = GroupElement(cmath.exp(-1.1j) * math.cosh(0.7), cmath.exp(0.3j) * math.sinh(0.7))
        u12 = compose(u1, u2)
        label = RepLabel(2)
        for m_row in range(2, 2 + 4):
            for m_col in range(2, 2 + 4):
                direct = rep_matrix_element(label, m_row, m_col, u12)
                summed = 0.0 + 0.0j
                for r in range(2, 400):
                    term = rep_matrix_element(label, m_row, r, u1) * rep_matrix_element(
                        label, r, m_col, u2
                    )
                    summed += term
                    if r > max(m_row, m_col) + 20 and abs(term) < 1e-14:
                        break
                assert abs(direct - summed) < 1e-9

    def test_m0_reflection_equivalence(self):
        # m0 -> 1 - m0 leaves |matrix element| invariant
        rng = random.Random(13)
        for m0 in (1, 2, 3):
            for _ in range(10):
                u = random_element(rng)
                mr = rng.randint(m0, m0 + 4)
                mc = rng.randint(mr, mr + 4)
                a = _finite_transform(m0, mr, mc, u.alpha, u.beta)
                b = _finite_transform(1 - m0, mr, mc, u.alpha, u.beta)
                assert abs(a) == pytest.approx(abs(b), rel=1e-12, abs=0)

    def test_hermiticity_relation(self):
        rng = random.Random(17)
        u = random_element(rng)
        label = RepLabel(2)
        lhs = rep_matrix_element(label, 5, 3, u)
        rhs = rep_matrix_element(label, 3, 5, inverse(u)).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _ladder_series_oracle(m0, m_row, m_col, rho, chi, psi):
    """Direct r-sum with explicit gamma factors; independent code path."""
    t = math.tanh(rho)
    c = math.cosh(rho)
    total = 0.0 + 0.0j
    for r in range(m0, min(m_row, m_col) + 1):
        amp = math.sqrt(
            math.factorial(m_row + m0 - 1)
            * math.factorial(m_row - m0)
            * math.factorial(m_col + m0 - 1)
            * math.factorial(m_col - m0)
        ) / (
            math.factorial(r + m0 - 1)
            * math.factorial(r - m0)
            * math.factorial(m_row - r)
            * math.factorial(m_col - r)
        )
        phase = cmath.exp(1j * ((chi + psi) * (m_row - r) - (chi + psi) * (m_col - r) + 2 * chi * m_col))
        total += (
            (-t) ** (m_row - r) * t ** (m_col - r) / c ** (2 * r) * amp * phase
        )
    return total
