import math
import time
import tracemalloc

import numpy as np
import pytest

from hpbec import cli, lattice
from hpbec.dispersion import quadratic_dispersion, tabulated_dispersion
from hpbec.errors import BracketError
from hpbec.lattice import build_lattice_modes
from lattice_ball import ball

DISP = quadratic_dispersion()


def shell_norms(modes):
    """|k| on each shell: sqrt(m) times the spacing."""
    return np.sqrt(modes.shells) * modes.spacing


def _zero_mask(coords):
    return np.all(coords == 0, axis=1)


def _all_nonzero_mask(coords):
    """Modes with every coordinate nonzero (interior modes)."""
    return np.all(coords != 0, axis=1)


def _boundary_mask(coords):
    """Nonzero modes with at least one vanishing coordinate."""
    return ~_zero_mask(coords) & ~_all_nonzero_mask(coords)


def test_contains_zero_mode():
    modes = build_lattice_modes(8.0, DISP, 1.0)
    coords = ball(modes)
    assert _zero_mask(coords).sum() == 1
    assert np.all(coords[_zero_mask(coords)] == 0)
    assert modes.shells[0] == 0 and modes.counts[0, modes.dimension] == 1


def test_closed_under_sign_flips():
    modes = build_lattice_modes(6.0, DISP, 1.0)
    coords = ball(modes)
    coord_set = {tuple(c) for c in coords}
    for c in coords[:500]:
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
    coords = ball(modes)
    z = _zero_mask(coords)
    interior = _all_nonzero_mask(coords)
    boundary = _boundary_mask(coords)
    assert not np.any(z & interior)
    assert not np.any(z & boundary)
    assert not np.any(interior & boundary)
    assert np.all(z | interior | boundary)
    assert interior.sum() == modes.counts[:, 0].sum()
    assert boundary.sum() == modes.counts[:, 1 : modes.dimension].sum()


def test_one_dimensional_has_no_boundary_modes():
    disp1 = quadratic_dispersion(dimension=1)
    modes = build_lattice_modes(20.0, disp1, 1.0)
    coords = ball(modes)
    assert _boundary_mask(coords).sum() == 0
    assert _all_nonzero_mask(coords).sum() == modes.num_modes - 1
    assert modes.counts[:, 1 : modes.dimension].sum() == 0


def test_spacing_and_cell_volume():
    modes = build_lattice_modes(10.0, DISP, 1.0)
    assert modes.spacing == pytest.approx(2.0 * np.pi / 10.0)
    assert modes.cell_volume() == pytest.approx((2.0 * np.pi / 10.0) ** 3)


def test_momenta_consistent_with_coords():
    """The axis grid of the shell sums and the shell norms are the coordinates times the spacing."""
    modes = build_lattice_modes(9.0, DISP, 1.0)
    coords = ball(modes)
    n_axis = np.abs(coords).max()
    grids = []

    def unit_weights(k):
        grids.append(k)
        return np.ones((modes.dimension, k.size))

    modes.shell_sums(unit_weights)
    assert np.allclose(grids[0], np.arange(-n_axis, n_axis + 1) * modes.spacing)
    norms = np.linalg.norm(coords * modes.spacing, axis=1)
    shell_of = np.searchsorted(modes.shells, np.square(coords).sum(axis=1))
    assert np.allclose(norms, shell_norms(modes)[shell_of])


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
    cube = ball(modes)
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
    """Coordinates enumerated from the shell cut |n|^2 <= m_max are the per-mode cut's ball."""
    modes = build_lattice_modes(box_size, disp, 1.0)
    n_axis = math.isqrt(int(modes.shells[-1]))
    grids = np.meshgrid(*[np.arange(-n_axis, n_axis + 1)] * modes.dimension, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    coords = coords[np.square(coords).sum(axis=1) <= modes.shells[-1]]
    assert coords.shape == (modes.num_modes, modes.dimension)
    assert np.array_equal(coords, ball(modes))


@pytest.mark.parametrize("box_size,disp", SHELL_CASES)
def test_shell_sums_of_unit_weights_are_the_shell_counts(box_size, disp):
    modes = build_lattice_modes(box_size, disp, 1.0)
    d = modes.dimension
    assert np.array_equal(modes.shell_sums(lambda k: np.ones((d, k.size))), modes.counts.sum(axis=1))
    with pytest.raises(ValueError):
        modes.shell_sums(lambda k: np.ones((d, k.size - 1)))


@pytest.mark.parametrize("box_size,disp", SHELL_CASES)
def test_build_keeps_each_shells_bose_factors_read_only(box_size, disp):
    """w = exp(-beta F) and a = -expm1(-beta F) on every shell, 1 and 0 on shell 0,
    and the nonzero modes the Bose sums weigh them by."""
    beta = 0.8
    modes = build_lattice_modes(box_size, disp, beta)
    exponents = -beta * np.asarray(disp.gap(shell_norms(modes)), dtype=float)
    assert np.array_equal(modes.weights, np.exp(exponents))
    assert np.array_equal(modes.deficits, -np.expm1(exponents))
    assert (modes.weights[0], modes.deficits[0]) == (1.0, 0.0)
    assert modes.included_weight == float(modes.counts.sum(axis=1) @ modes.weights)
    assert np.array_equal(modes.nonzero_modes, modes.counts[:, 0] + modes.counts[:, 1 : modes.dimension].sum(axis=1))
    assert modes.nonzero_modes[0] == 0.0
    for array in (modes.weights, modes.deficits, modes.nonzero_modes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5


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
    assert not hasattr(modes, "coords")


def test_non_converging_truncation_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(lattice, "_tail_bound", lambda *args: np.inf)
    with pytest.raises(BracketError):
        build_lattice_modes(5.0, DISP, 1.0)
    lattice.lattice_modes.cache_clear()
    code = cli.main(["--command", "condense", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_DIVERGENCE
