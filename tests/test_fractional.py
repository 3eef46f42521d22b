import numpy as np
import pytest
from dataclasses import replace

from gsqg.basis import SpectralField, build_rectangle_basis
from gsqg.fractional import (
    apply_lambda_power,
    default_heat_rule,
    heat_semigroup,
    lambda_neg_power_heat,
    lambda_pos_power_heat,
    project,
    sobolev_norm,
)


@pytest.fixture
def basis():
    return build_rectangle_basis(6)


@pytest.fixture
def field(basis):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(basis.size)
    return SpectralField(basis, c / np.linalg.norm(c))


def test_lambda_power_diagonal(basis):
    f = SpectralField(basis, np.eye(basis.size)[0])
    # lowest mode has lambda = 2
    assert apply_lambda_power(f, 1.0).coeffs[0] == pytest.approx(np.sqrt(2.0))
    assert apply_lambda_power(f, -2.0).coeffs[0] == pytest.approx(0.5)


def test_lambda_power_group_property(field):
    a = apply_lambda_power(apply_lambda_power(field, 0.3), 0.7)
    b = apply_lambda_power(field, 1.0)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-14


def test_sobolev_norm_parseval(field):
    assert sobolev_norm(field, 0.0) == pytest.approx(np.linalg.norm(field.coeffs))
    # D(Lambda^s) norm carries lambda^s on squared coefficients
    lam = field.basis.eigenvalues
    expected = np.sqrt(np.sum(lam**2 * field.coeffs**2))
    assert sobolev_norm(field, 2.0) == pytest.approx(expected)
    # consistent with applying Lambda^s first
    assert sobolev_norm(field, 1.0) == pytest.approx(
        np.linalg.norm(apply_lambda_power(field, 1.0).coeffs)
    )


def test_project_prefix(field):
    p = project(field, 10)
    assert np.array_equal(p.coeffs[:10], field.coeffs[:10])
    assert np.all(p.coeffs[10:] == 0)


def test_project_cuts_the_space_a_run_at_m_keeps():
    # on a K = 8 field the first 16 modes hold (1, 5); V_16 holds (4, 4) instead
    basis = build_rectangle_basis(8)
    f = SpectralField(basis, np.arange(1.0, basis.size + 1))
    p = project(f, 16)
    kept = {(md.j, md.k) for md, c in zip(basis.modes, p.coeffs) if c != 0}
    assert kept == {(j, k) for j in range(1, 5) for k in range(1, 5)}
    assert np.array_equal(p.coeffs[p.coeffs != 0], f.coeffs[p.coeffs != 0])


def test_heat_semigroup_decay(basis):
    f = SpectralField(basis, np.eye(basis.size)[0])
    g = heat_semigroup(f, 1.0)
    assert g.coeffs[0] == pytest.approx(np.exp(-2.0))
    # semigroup property
    rng = np.random.default_rng(1)
    h = SpectralField(basis, rng.standard_normal(basis.size))
    one = heat_semigroup(h, 0.7)
    two = heat_semigroup(heat_semigroup(h, 0.3), 0.4)
    assert np.abs(one.coeffs - two.coeffs).max() < 1e-14


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5])
def test_neg_power_heat_oracle(field, s):
    exact = apply_lambda_power(field, -s)
    got = lambda_neg_power_heat(field, s)
    rel = np.linalg.norm(got.coeffs - exact.coeffs) / np.linalg.norm(exact.coeffs)
    assert rel < 1e-6


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_pos_power_heat_oracle(field, s):
    exact = apply_lambda_power(field, s)
    got = lambda_pos_power_heat(field, s)
    rel = np.linalg.norm(got.coeffs - exact.coeffs) / np.linalg.norm(exact.coeffs)
    assert rel < 1e-6


def test_heat_quadrature_monotone_in_nodes(field):
    s = 0.5
    exact = apply_lambda_power(field, -s)
    errs = []
    for n_nodes in (65, 129, 257, 513):
        rule = replace(default_heat_rule(field.basis), n_nodes=n_nodes)
        got = lambda_neg_power_heat(field, s, rule)
        errs.append(np.linalg.norm(got.coeffs - exact.coeffs))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_pos_power_rejects_out_of_range(field):
    with pytest.raises(ValueError):
        lambda_pos_power_heat(field, 2.5)
    with pytest.raises(ValueError):
        lambda_neg_power_heat(field, -0.5)
