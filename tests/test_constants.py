import math
import re

import pytest

from lambshift.constants import (
    PhysicalConstants,
    bundled_fixture_path,
    default_constants,
    load_constants,
    resolve_constants,
    rydberg_energy,
)


def test_default_constants_are_codata_2018():
    c = default_constants()
    assert c.alpha0 == 7.2973525693e-3
    assert c.mec2_eV == 510998.95000
    assert c.hbar_eVs == 6.582119569e-16


def test_defaults_inside_sanity_windows():
    c = default_constants()
    assert 7.29e-3 < c.alpha0 < 7.30e-3
    assert 5.109e5 < c.mec2_eV < 5.110e5
    assert 6.58e-16 < c.hbar_eVs < 6.59e-16


def test_rydberg_hydrogen_ground_state():
    c = default_constants()
    assert rydberg_energy(c, 1, 1) == pytest.approx(-13.6057, rel=1e-4)


def test_rydberg_scaling_exact():
    c = default_constants()
    e11 = rydberg_energy(c, 1, 1)
    assert rydberg_energy(c, 1, 2) == e11 / 4.0
    assert rydberg_energy(c, 2, 1) == 4.0 * e11


def test_rydberg_scaled_energy_independent_of_n_and_z():
    c = default_constants()
    base = rydberg_energy(c, 1, 1)
    for Z in (1, 2, 5):
        for N in (1, 2, 7, 30):
            assert rydberg_energy(c, Z, N) * N * N / (Z * Z) == pytest.approx(base, rel=1e-15, abs=0)


@pytest.mark.parametrize("Z,N", [(0, 1), (1, 0), (-1, 3)])
def test_rydberg_rejects_bad_quantum_numbers(Z, N):
    with pytest.raises(ValueError):
        rydberg_energy(default_constants(), Z, N)


def test_frequency_round_trip():
    c = default_constants()
    for x in (1.0, 4.097, 7936.29, 1e-6):
        assert c.MHz_to_eV(c.eV_to_MHz(x)) == pytest.approx(x, rel=5e-16, abs=0)
        assert c.eV_to_MHz(c.MHz_to_eV(x)) == pytest.approx(x, rel=5e-16, abs=0)


def test_bundled_fixture_matches_defaults():
    fixture = load_constants(bundled_fixture_path())
    assert fixture == default_constants()


def test_load_constants_roundtrip(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text("alpha0 = 7.2e-3\nmec2_eV = 511000.0\nhbar_eVs = 6.58e-16\n")
    c = load_constants(str(path))
    assert c.alpha0 == 7.2e-3
    assert c.mec2_eV == 511000.0


def test_load_constants_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha0 = 7.2e-3\nmec2_eV = 511000.0\nhbar_eVs = 6.58e-16\nfoo = 1\n")
    with pytest.raises(ValueError, match="unknown constant"):
        load_constants(str(path))


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("alpha0 = 0.0073\nmec2_eV = 511000.0\nalpha0 = 0.5\nhbar_eVs = 6.58e-16\n", 3),
        ("alpha0 = 7.2e-3\nmec2_eV = 511000.0\nhbar_eVs = 6.58e-16\n# alias\nhbar_ev_s = 6.6e-16\n", 5),
    ],
)
def test_load_constants_rejects_a_constant_given_twice(tmp_path, text, lineno):
    # the last value must not silently win
    path = tmp_path / "twice.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: constant")):
        load_constants(str(path))


def test_load_constants_rejects_missing_key(tmp_path):
    path = tmp_path / "incomplete.txt"
    path.write_text("alpha0 = 7.2e-3\n")
    with pytest.raises(ValueError, match="missing constants"):
        load_constants(str(path))


@pytest.mark.parametrize("key", ["alpha0", "mec2_eV", "hbar_eVs"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-3"])
def test_load_constants_rejects_non_finite_or_non_positive(tmp_path, key, value):
    values = {"alpha0": "7.2e-3", "mec2_eV": "511000.0", "hbar_eVs": "6.58e-16", key: value}
    path = tmp_path / "bad.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    with pytest.raises(ValueError, match="finite and positive"):
        load_constants(str(path))


@pytest.mark.parametrize("alpha0", [1.0, 1.0 + 2.0**-52, 1e3, 1e80])
def test_alpha0_of_one_or_more_is_rejected(alpha0):
    with pytest.raises(ValueError, match=re.escape(f"below 1, got alpha0={alpha0!r}")):
        PhysicalConstants(alpha0=alpha0)


@pytest.mark.parametrize("key", ["alpha0", "mec2_eV", "hbar_eVs"])
@pytest.mark.parametrize("value", ["0.007", None, 1j])
def test_a_constant_that_is_no_real_number_raises_value_error(key, value):
    # a comparison with a string raised TypeError, past the check's message
    with pytest.raises(ValueError, match="finite and positive"):
        PhysicalConstants(**{key: value})


def test_alpha0_just_below_one_is_accepted():
    assert PhysicalConstants(alpha0=math.nextafter(1.0, 0.0)).alpha0 < 1.0


def test_resolve_constants_env_var(tmp_path, monkeypatch):
    path = tmp_path / "env.txt"
    path.write_text("alpha0 = 7.25e-3\nmec2_eV = 510000.0\nhbar_eVs = 6.58e-16\n")
    monkeypatch.setenv("LAMBSHIFT_CONSTANTS", str(path))
    assert resolve_constants().alpha0 == 7.25e-3
    monkeypatch.delenv("LAMBSHIFT_CONSTANTS")
    assert resolve_constants() == default_constants()


def test_units_are_pure_functions_of_inputs():
    c = PhysicalConstants(alpha0=7.0e-3, mec2_eV=5.0e5, hbar_eVs=6.6e-16)
    assert c.energy_unit_eV(2) == 5.0e5 * (2 * 7.0e-3) ** 2
    assert c.rate_unit_per_s(1) == 5.0e5 * 7.0e-3 * 7.0e-3**4 / 6.6e-16
    assert math.isclose(c.eV_to_MHz(2.0 * math.pi * 6.6e-16 * 1e6), 1.0)
