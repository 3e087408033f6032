import numpy as np
import pytest

from hpbec.testfunctions import gaussian_test_function
from references import gaussian_norm_sq


def test_zero_mode_closed_form_vs_grid():
    f = gaussian_test_function(3, center=[0.2, 0.0, -0.1], width=0.8, amplitude=1.5 - 0.5j)
    ax = np.linspace(-6, 6, 161)
    kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([kx, ky, kz], axis=-1)
    integral = f.values(pts).sum() * (ax[1] - ax[0]) ** 3
    assert abs(f.zero_mode - integral * (2 * np.pi) ** -1.5) < 1e-8


def test_norm_sq_closed_form_vs_grid():
    f = gaussian_test_function(2, center=[0.4, -0.3], width=1.1, amplitude=0.7j)
    ax = np.linspace(-8, 8, 801)
    kx, ky = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([kx, ky], axis=-1)
    val = (np.abs(f.values(pts)) ** 2).sum() * (ax[1] - ax[0]) ** 2
    assert gaussian_norm_sq(f) == pytest.approx(val, rel=1e-10)


def test_scaled_preserves_shape():
    f = gaussian_test_function(3, width=1.0, amplitude=1.0)
    g = f.scaled(2j)
    assert g.zero_mode == pytest.approx(2j * f.zero_mode)
    assert g.width == f.width


def test_invalid_parameters():
    with pytest.raises(ValueError):
        gaussian_test_function(3, width=0.0)
    f = gaussian_test_function(3)
    with pytest.raises(ValueError):
        f.values(np.zeros((4, 2)))


def test_axis_factors_multiply_to_the_squared_modulus():
    f = gaussian_test_function(3, center=[0.2, 0.0, -0.1], width=0.8, amplitude=1.5 - 0.5j)
    ax = np.linspace(-2.0, 2.0, 9)
    rows = f.axis_factors(ax)
    assert rows.shape == (3, 9)
    idx = np.stack(np.meshgrid(*[np.arange(9)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    product = rows[0, idx[:, 0]] * rows[1, idx[:, 1]] * rows[2, idx[:, 2]]
    expected = np.abs(f.values(ax[idx])) ** 2 / abs(f.amplitude) ** 2
    assert np.allclose(product, expected, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        f.axis_factors(ax[:, None])


def test_equal_gaussians_compare_and_hash_equal():
    center = np.array([0.3, -0.1, 0.2])
    f = gaussian_test_function(3, center=center, width=0.8, amplitude=0.5 - 0.2j)
    g = gaussian_test_function(3, center=[0.3, -0.1, 0.2], width=0.8, amplitude=0.5 - 0.2j)
    assert f is not g
    assert f == g and hash(f) == hash(g)
    assert f.scaled(1j) != f
    assert gaussian_test_function(3, center=[0.3, -0.1, 0.25], width=0.8, amplitude=0.5 - 0.2j) != f
    assert gaussian_test_function(3, center=center, width=0.9, amplitude=0.5 - 0.2j) != f
    assert f != (3, center, 0.8, 0.5 - 0.2j)


def test_center_is_a_read_only_copy():
    center = np.array([0.3, -0.1, 0.2])
    f = gaussian_test_function(3, center=center)
    with pytest.raises(ValueError):
        f.center[0] = 1.0
    center[0] = 1.0  # the caller's array stays writable and does not move f
    assert f.center[0] == 0.3
