import time
import tracemalloc

import numpy as np
import pytest

from hpbec import cli, lattice
from hpbec.dispersion import quadratic_dispersion, tabulated_dispersion
from hpbec.errors import BracketError
from hpbec.lattice import build_lattice_modes

DISP = quadratic_dispersion()


def test_contains_zero_mode():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    assert modes.zero_mask().sum() == 1
    assert np.all(modes.coords[modes.zero_mask()] == 0)


def test_closed_under_sign_flips():
    modes = build_lattice_modes(6.0, DISP, 1.0)
    coord_set = {tuple(c) for c in modes.coords}
    for c in modes.coords[:500]:
        for axis in range(3):
            flipped = list(c)
            flipped[axis] = -flipped[axis]
            assert tuple(flipped) in coord_set


def test_truncation_tail_bound_invariant():
    for L in (5.0, 10.0, 20.0):
        modes = build_lattice_modes(L, DISP, 1.0)
        assert modes.tail_bound <= 1e-12 * modes.included_weight


def test_masks_partition_modes():
    modes = build_lattice_modes(7.0, DISP, 1.0)
    z = modes.zero_mask()
    interior = modes.all_nonzero_mask()
    boundary = modes.boundary_mask()
    assert not np.any(z & interior)
    assert not np.any(z & boundary)
    assert not np.any(interior & boundary)
    assert np.all(z | interior | boundary)


def test_one_dimensional_has_no_boundary_modes():
    disp1 = quadratic_dispersion(dimension=1)
    modes = build_lattice_modes(20.0, disp1, 1.0)
    assert modes.boundary_mask().sum() == 0
    assert modes.all_nonzero_mask().sum() == modes.num_modes - 1


def test_spacing_and_cell_volume():
    modes = build_lattice_modes(10.0, DISP, 1.0)
    assert modes.spacing == pytest.approx(2.0 * np.pi / 10.0)
    assert modes.cell_volume() == pytest.approx((2.0 * np.pi / 10.0) ** 3)


def test_momenta_consistent_with_coords():
    modes = build_lattice_modes(9.0, DISP, 1.0)
    assert np.allclose(modes.momenta, modes.coords * modes.spacing)


def test_mode_count_grows_like_volume():
    small = build_lattice_modes(10.0, DISP, 1.0)
    large = build_lattice_modes(20.0, DISP, 1.0)
    ratio = large.num_modes / small.num_modes
    assert 6.0 < ratio < 10.0  # ~ 2^3 with boundary effects


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_lattice_modes(0.0, DISP, 1.0)
    with pytest.raises(ValueError):
        build_lattice_modes(5.0, DISP, 1.0, num_internal=0)


def _tabulated(dimension):
    ks = np.linspace(0.0, 8.0, 81)
    return tabulated_dispersion(ks, 1.0 + ks**2 * (1.0 + 0.2 * ks), dimension=dimension)


def _cube(modes):
    """Every mode of the cube that the per-mode cut |k| <= cut_radius keeps, in cube order."""
    d = modes.dimension
    n_axis = int(np.ceil(modes.cut_radius / modes.spacing))
    axes = [np.arange(-n_axis, n_axis + 1)] * d
    coords = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    keep = np.linalg.norm(coords.astype(float), axis=1) * modes.spacing <= modes.cut_radius
    return coords[keep]


SHELL_CASES = [
    (40.0, quadratic_dispersion(dimension=1)),
    (16.0, quadratic_dispersion(dimension=2)),
    (5.0, DISP),
    (30.0, _tabulated(1)),
    (12.0, _tabulated(2)),
    (4.0, _tabulated(3)),
]


@pytest.mark.parametrize("box_size,disp", SHELL_CASES)
def test_shell_counts_match_cube_enumeration(box_size, disp):
    modes = build_lattice_modes(box_size, disp, 1.0)
    cube = _cube(modes)
    m = np.square(cube).sum(axis=1)
    z = np.count_nonzero(cube == 0, axis=1)
    brute = np.zeros((m.max() + 1, modes.dimension + 1), dtype=np.int64)
    np.add.at(brute, (m, z), 1)
    occupied = np.flatnonzero(brute.any(axis=1))
    assert np.array_equal(modes.shells, occupied)
    assert np.array_equal(modes.counts, brute[occupied])
    assert modes.num_modes == len(cube)


@pytest.mark.parametrize("box_size,disp", SHELL_CASES)
def test_lazy_coords_use_the_shell_cut(box_size, disp):
    modes = build_lattice_modes(box_size, disp, 1.0)
    assert modes.coords.shape == (modes.num_modes, modes.dimension)
    assert np.array_equal(modes.coords, _cube(modes))


def test_shell_build_reaches_large_boxes_without_a_cube():
    """L = 640 holds ~1e9 modes; the shells take O(L^2) memory and well under 5 s."""
    tracemalloc.start()
    t0 = time.perf_counter()
    modes = build_lattice_modes(640.0, DISP, 1.0)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert modes.num_modes > 9e8
    assert seconds < 5.0
    assert peak < 100 * 2**20  # the cube's coordinates alone would take ~25 GB
    assert "coords" not in vars(modes)


def test_non_converging_truncation_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(lattice, "_tail_bound", lambda *args: np.inf)
    with pytest.raises(BracketError):
        build_lattice_modes(5.0, DISP, 1.0)
    code = cli.main(["--command", "condense", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_DIVERGENCE
