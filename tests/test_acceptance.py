"""Acceptance suite: every shipped-quality gate at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to stream them).
Criterion 1 includes the (2,1) entry, where three independent evaluation
routes in this package agree with each other but sit 2.7e-3 from the
published number; the assertion keeps the published target.
"""

import math
import random
import time

import numpy as np
import pytest

import lambshift as ls
from lambshift.constants import default_constants
from lambshift.kernel import PhiKernel
from lambshift.oracles import (
    bch_decompose,
    bch_reconstruct_2x2,
    kernel_q,
    kernel_via_spectral_series,
    circular_rate_closed_form,
    neville_extrapolate,
    q_imag_time,
    remainder,
    remainder_dtau,
)
from lambshift.quadrature import QuadratureSpec
from lambshift.shifts import (
    DipoleOptions,
    QuantumState,
    bethe_log,
    decay_rates,
    dipole_lamb_full,
    lamb_shift,
    shift_prefactor,
)
from lambshift.su11 import GroupElement, RepLabel, compose, rep_matrix_element

CONSTANTS = default_constants()

TABLE1_SHIFTS = {
    (1, 0): 7936.29,
    (2, 0): 1015.40,
    (2, 1): 4.09715,
    (3, 0): 302.626,
    (3, 1): 1.53944,
    (4, 0): 127.993,
    (4, 1): 0.713471,
}
TABLE1_RATES = {
    (2, 1, 1): 626.813,
    (3, 0, 2): 6.31698,
    (3, 1, 1): 167.338,
    (3, 1, 2): 22.4604,
    (4, 0, 2): 2.57953,
    (4, 0, 3): 1.83642,
    (4, 1, 1): 68.2212,
    (4, 1, 2): 9.67325,
    (4, 1, 3): 3.41451,
}
BETHE_TARGETS = {
    (1, 0): (2.98413, 1e-3),
    (2, 0): (2.81177, 1e-3),
    (3, 0): (2.76767, 1e-3),
    (4, 0): (2.74965, 1e-3),
    (2, 1): (-0.0300156, 2e-4),
    (3, 1): (-0.0381905, 2e-4),
    (4, 1): (-0.0419642, 2e-4),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table1_results():
    t0 = time.time()
    results = {(N, L): lamb_shift(QuantumState(N=N, L=L)) for (N, L) in TABLE1_SHIFTS}
    return results, time.time() - t0


@pytest.fixture(scope="module")
def bethe_results():
    out = {}
    for (N, L) in BETHE_TARGETS:
        t0 = time.time()
        out[(N, L)] = (bethe_log(N, L), time.time() - t0)
    return out


def test_criterion_01_table1_reproduction(table1_results):
    results, elapsed = table1_results
    failures = []
    for (N, L), ref in TABLE1_SHIFTS.items():
        got = results[(N, L)].lamb_shift_MHz
        rel = abs(got - ref) / abs(ref)
        if rel > 2e-3:
            failures.append(f"shift({N},{L})={got:.6f} vs {ref} (rel {rel:.2e})")
    for (N, L, n), ref in TABLE1_RATES.items():
        got = dict(results[(N, L)].partial_rates)[n]
        rel = abs(got - ref) / abs(ref)
        if rel > 2e-3:
            failures.append(f"rate({N},{L},n={n})={got:.5f} vs {ref} (rel {rel:.2e})")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    ok = not failures
    report(1, ok, f"table 1 in {elapsed:.1f}s" + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_criterion_01_companion_three_route_consensus(table1_results):
    # Not a spec criterion: documents that the one red entry above is the
    # published number, not this implementation (see decisions ledger).
    results, _ = table1_results
    got = results[(2, 1)].lamb_shift_MHz
    assert got == pytest.approx(4.08618, abs=5e-4)


def test_criterion_02_exact_dipole_2p_rate():
    rates = dict(decay_rates(QuantumState(N=2, L=1), DipoleOptions(enabled=True)))
    exact = (2.0 / 3.0) ** 8 * CONSTANTS.rate_unit_per_s(1) / 1.0e6
    rel = abs(rates[1] - exact) / exact
    ok = rel <= 1e-12
    report(2, ok, f"2p dipole rate rel deviation {rel:.2e} (tol 1e-12)")
    assert ok


def test_criterion_03_circular_state_identity():
    worst = 0.0
    for N in range(2, 11):
        pipeline = dict(decay_rates(QuantumState(N=N, L=N - 1), DipoleOptions(enabled=True)))[N - 1]
        closed = circular_rate_closed_form(N)
        worst = max(worst, abs(pipeline - closed) / closed)
    semi = (2.0 / 3.0) / (50**4 * 49) * CONSTANTS.rate_unit_per_s(1) / 1.0e6
    envelope = abs(circular_rate_closed_form(50) / semi - 1.0)
    ok = worst <= 1e-12 and envelope < 4e-3
    report(3, ok, f"identity worst rel {worst:.2e} (tol 1e-12); N=50 envelope {envelope:.2e} (tol 4e-3)")
    assert worst <= 1e-12
    assert envelope < 4e-3


def test_criterion_04_bethe_logarithms(bethe_results):
    failures = []
    slowest = 0.0
    for (N, L), (ref, tol) in BETHE_TARGETS.items():
        result, elapsed = bethe_results[(N, L)]
        slowest = max(slowest, elapsed)
        dev = abs(result.gamma - ref)
        if dev > tol or elapsed >= 60.0:
            failures.append(f"gamma({N},{L})={result.gamma:.7f} dev {dev:.2e} tol {tol} [{elapsed:.1f}s]")
    ok = not failures
    report(4, ok, f"7 Bethe logs, slowest {slowest:.1f}s" + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_criterion_05_dipole_lamb_with_relativistic_constants(bethe_results):
    targets = [
        (QuantumState(N=2, L=0, J=0.5), (2, 0), 1039.31),
        (QuantumState(N=2, L=1, J=0.5), (2, 1), -12.8840),
        (QuantumState(N=2, L=1, J=1.5), (2, 1), 12.5492),
    ]
    failures = []
    for state, key, ref in targets:
        gamma = bethe_results[key][0].gamma
        full, _ = dipole_lamb_full(state, gamma)
        rel = abs(full - ref) / abs(ref)
        if rel > 1e-3:
            failures.append(f"(N={state.N},L={state.L},J={state.J}): {full:.4f} vs {ref} rel {rel:.2e}")
    ok = not failures
    report(5, ok, "2s/2p dipole shifts within 1e-3" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_06_kernel_oracle_equivalence():
    rng = random.Random(64)
    worst = 0.0
    for _ in range(64):
        N = rng.randint(1, 6)
        L = rng.randint(0, N - 1)
        phi = rng.uniform(0.05, 3.0)
        if rng.random() < 0.5:
            T = rng.uniform(0.05, 6.0)
            got = kernel_q(N, L, T, phi)
            ref = kernel_via_spectral_series(N, L, T, phi, 320).value
        else:
            tau = rng.uniform(0.05, 2.5)
            got = q_imag_time(PhiKernel(N, L, phi), tau)
            ref = kernel_via_spectral_series(N, L, tau, phi, 320, imaginary_time=True).value.real
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-3))
    ok = worst <= 1e-10
    report(6, ok, f"64 sampled points, max relative deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_07_representation_form_equivalence(table1_results, eps_shift):
    results, _ = table1_results
    failures = []
    details = []
    cases = (
        ((1, 0), (0.05, 0.025, 0.0125)),
        ((2, 0), (0.05, 0.025, 0.0125)),
        # heavy cancellation between the tau and PV pieces makes the (2,1)
        # comparison need a deeper damping sequence
        ((2, 1), (0.05, 0.025, 0.0125, 0.00625)),
    )
    for (N, L), eps_values in cases:
        primary = results[(N, L)].lamb_shift_MHz
        values = [eps_shift(N, L, eps).real for eps in eps_values]
        extrapolated, _ = neville_extrapolate(list(eps_values), values)
        rel = abs(extrapolated - primary) / abs(primary)
        details.append(f"({N},{L}): {rel:.2e}")
        if rel > 1e-3:
            failures.append(f"({N},{L}): eps-route {extrapolated:.6f} vs primary {primary:.6f} rel {rel:.2e}")
    ok = not failures
    report(7, ok, "rotated vs eps-axis " + ", ".join(details) + " (tol 1e-3)")
    assert ok, failures


def test_criterion_08_su11_suite():
    rng = random.Random(88)

    def random_element(rho_max=2.0):
        rho = rng.uniform(0.0, rho_max)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        return GroupElement(
            complex(math.cos(chi), math.sin(chi)) * math.cosh(rho),
            complex(math.cos(psi), math.sin(psi)) * math.sinh(rho),
        )

    # unitarity partial sums
    worst_unitarity = 0.0
    u = random_element()
    for m0 in (1, 2):
        label = RepLabel(m0)
        for m_row in range(m0, m0 + 3):
            total = 0.0
            for m in range(m0, m0 + 2000):
                term = abs(rep_matrix_element(label, m_row, m, u)) ** 2
                total += term
                if m > m_row + 20 and term < 1e-13:
                    break
            worst_unitarity = max(worst_unitarity, abs(total - 1.0))

    # homomorphism under composition (elements within the rho <= 2 scope;
    # the intermediate sum is extended until its tail is negligible)
    u1, u2 = random_element(1.0), random_element(1.0)
    u12 = compose(u1, u2)
    label = RepLabel(2)
    worst_hom = 0.0
    for m_row in range(2, 2 + 4):
        for m_col in range(2, 2 + 4):
            direct = rep_matrix_element(label, m_row, m_col, u12)
            summed = 0.0 + 0.0j
            for r in range(2, 2 + 2000):
                term = rep_matrix_element(label, m_row, r, u1) * rep_matrix_element(
                    label, r, m_col, u2
                )
                summed += term
                if r > max(m_row, m_col) + 20 and abs(term) < 1e-14:
                    break
            worst_hom = max(worst_hom, abs(direct - summed))

    # BCH reconstruction of 100 random elements
    worst_bch = 0.0
    for _ in range(100):
        u = random_element()
        m = bch_reconstruct_2x2(bch_decompose(u))
        worst_bch = max(worst_bch, float(np.max(np.abs(m - np.array(u.matrix())))))

    ok = worst_unitarity <= 1e-10 and worst_hom <= 1e-9 and worst_bch <= 1e-12
    report(8, ok, f"unitarity {worst_unitarity:.2e} (1e-10), homomorphism {worst_hom:.2e} (1e-9), "
                  f"BCH x100 {worst_bch:.2e} (1e-12)")
    assert worst_unitarity <= 1e-10
    assert worst_hom <= 1e-9
    assert worst_bch <= 1e-12


def test_criterion_09_analytic_derivative():
    rng = random.Random(9)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        N = rng.randint(1, 6)
        L = rng.randint(0, N - 1)
        tau = rng.uniform(0.05, 3.0)
        phi = rng.uniform(0.02, 3.5)
        ker = PhiKernel(N, L, phi)
        fd = (remainder(ker, tau + step) - remainder(ker, tau - step)) / (2 * step)
        an = remainder_dtau(ker, tau)
        worst = max(worst, abs(an - fd) / max(abs(an), 1e-12))
    ok = worst <= 1e-6
    report(9, ok, f"50 random points, worst relative {worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_10_quadrature_stability(table1_results):
    results, _ = table1_results
    failures = []
    for (N, L) in ((2, 0), (2, 1), (3, 1)):
        base = results[(N, L)]
        doubled = lamb_shift(
            QuantumState(N=N, L=L),
            spec=QuadratureSpec(rel_tol=1e-9, max_subdivisions=4000),
        )
        # error estimates are on the bracket integrals; rescale to MHz by the
        # shift prefactor (the closed-form logs of the PV term carry no error)
        change = abs(doubled.lamb_shift_MHz - base.lamb_shift_MHz)
        scale = abs(CONSTANTS.eV_to_MHz(shift_prefactor(base.state, CONSTANTS)))
        budget = base.diagnostics.error_estimate * scale
        if not base.converged or change > budget + 1e-12:
            failures.append(f"({N},{L}): change {change:.2e} vs budget {budget:.2e}")
    ok = not failures
    report(10, ok, "doubled subdivisions stay within error estimates"
           if ok else "; ".join(failures))
    assert ok, failures
