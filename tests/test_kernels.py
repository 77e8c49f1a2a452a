"""The numpy kernels against direct references: each field kernel against an
unfactored sum over every SLM pixel, on random points and on a lattice whose
points share column and row factors, the segment distances against a loop
over every (point, segment) pair, and the spot renderer against a per-pixel
Gaussian sum with the same 4-sigma window, and a spot wholly outside the
image adds nothing."""

import numpy as np
import pytest

from tweezer_forge import kernels


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(12)
    ny = nx = 128
    field = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
    xs = (np.arange(nx) - (nx - 1) / 2) * 20.0
    ys = (np.arange(ny) - (ny - 1) / 2) * 20.0
    traps = rng.uniform(-20, 20, (9, 3))
    return field, xs, ys, traps, 7.392e-4, 3.696e-8


def shared_traps():
    """A 3x3 lattice on two z planes, plus one point that shares a lattice x
    but no z, in shuffled order: 7 distinct (x, z) and 7 distinct (y, z)
    pairs among 19 points."""
    lattice = [(x, y, z) for z in (-6.0, 11.0) for y in (-8.0, 0.5, 9.0) for x in (-7.5, 2.0, 12.0)]
    traps = np.array(lattice + [(2.0, 4.0, 3.0)])
    return traps[np.random.default_rng(4).permutation(len(traps))]


def _pixel_phase(xs, ys, point, a, g):
    """Transfer phase from every pixel (ny, nx) to one point (X, Y, Z)."""
    xx, yy = np.meshgrid(xs, ys)
    x, y, z = point
    return a * (xx * x + yy * y) + g * z * (xx**2 + yy**2)


def _direct_intensity(field, xs, ys, vx, vy, vz, a, g):
    """|unfactored sum over every pixel|^2 at each voxel, as (nz, ny, nx)."""
    out = np.empty((vz.size, vy.size, vx.size))
    for k, z in enumerate(vz):
        for j, y in enumerate(vy):
            for i, x in enumerate(vx):
                s = (field * np.exp(1j * _pixel_phase(xs, ys, (x, y, z), a, g))).sum()
                out[k, j, i] = abs(s) ** 2
    return out


def test_point_factors_one_column_per_distinct_pair(problem):
    _, xs, ys, _, a, g = problem
    traps = shared_traps()
    ux, ix, uy, iy = kernels.point_factors(xs, ys, traps, a, g)
    assert ux.shape == (xs.size, 7) and uy.shape == (ys.size, 7)
    for m, (x, y, z) in enumerate(traps):
        # each point's columns are the ones built for it alone
        np.testing.assert_array_equal(ux[:, ix[m]], kernels._axis_factors(xs, [x], [z], a, g)[:, 0])
        np.testing.assert_array_equal(uy[:, iy[m]], kernels._axis_factors(ys, [y], [z], a, g)[:, 0])
        assert np.all((ix == ix[m]) == ((traps[:, 0] == x) & (traps[:, 2] == z)))
        assert np.all((iy == iy[m]) == ((traps[:, 1] == y) & (traps[:, 2] == z)))


def _check_trap_fields(field, xs, ys, traps, a, g):
    # direct unfactored sum over every pixel
    expected = np.array([
        (field * np.exp(1j * _pixel_phase(xs, ys, t, a, g))).sum() for t in traps
    ])
    got = kernels.trap_fields(field, *kernels.point_factors(xs, ys, traps, a, g))
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-9


def _check_back_field(xs, ys, traps, a, g):
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(len(traps)) + 1j * rng.standard_normal(len(traps))
    # every pixel gets sum_m coeff_m * conj(exp(i * phase_m))
    expected = sum(
        c * np.conj(np.exp(1j * _pixel_phase(xs, ys, t, a, g)))
        for c, t in zip(coeff, traps)
    )
    got = kernels.back_field(coeff, *kernels.point_factors(xs, ys, traps, a, g))
    assert got.shape == (ys.size, xs.size)
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-9


def test_trap_fields_match_brute_force(problem):
    _check_trap_fields(*problem)


def test_back_field_matches_direct_sum(problem):
    _, xs, ys, traps, a, g = problem
    _check_back_field(xs, ys, traps, a, g)


def test_trap_fields_match_brute_force_on_shared_columns(problem):
    field, xs, ys, _, a, g = problem
    _check_trap_fields(field, xs, ys, shared_traps(), a, g)


def test_back_field_matches_direct_sum_on_shared_columns(problem):
    _, xs, ys, _, a, g = problem
    _check_back_field(xs, ys, shared_traps(), a, g)


def test_intensity_slices_match_direct_sum(problem):
    field, xs, ys, _, a, g = problem
    vx = np.linspace(-4, 4, 9)
    vy = np.linspace(-4, 4, 7)
    vz = np.linspace(-6, 6, 5)
    expected = _direct_intensity(field, xs, ys, vx, vy, vz, a, g)
    got = kernels.intensity_slices(field, xs, ys, vx, vy, vz, a, g)
    assert np.max(np.abs(got - expected)) / expected.max() < 1e-9


def test_intensity_slices_match_direct_sum_off_square():
    # nx != ny, distinct pixel grids, distinct voxel counts, and z = 0: a
    # kernel that swapped the x and y chirps or factors would fail here
    rng = np.random.default_rng(13)
    ny, nx = 96, 128
    field = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
    xs = (np.arange(nx) - (nx - 1) / 2) * 20.0
    ys = (np.arange(ny) - (ny - 1) / 2) * 17.0 + 40.0
    a, g = 7.392e-4, 3.696e-8
    vx = np.linspace(-5, 3, 6)
    vy = np.linspace(-2, 4, 11)
    vz = np.array([-7.0, 0.0, 9.0])
    expected = _direct_intensity(field, xs, ys, vx, vy, vz, a, g)
    got = kernels.intensity_slices(field, xs, ys, vx, vy, vz, a, g)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) / expected.max() < 1e-9


def test_segment_distances_match_pair_loop():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-20, 20, (40, 2))
    a = rng.uniform(-20, 20, (15, 2))
    b = rng.uniform(-20, 20, (15, 2))
    b[3] = a[3]  # one zero-length segment
    expected = np.empty((len(pts), len(a)))
    for i, p in enumerate(pts):
        for j in range(len(a)):
            d = b[j] - a[j]
            dd = float(d @ d)
            t = 0.0 if dd == 0.0 else min(1.0, max(0.0, float((p - a[j]) @ d) / dd))
            expected[i, j] = np.linalg.norm(p - (a[j] + t * d))
    got = kernels.segment_point_distances(pts, a, b)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_segment_distances_hand_cases():
    pts = np.array([[0.0, 1.0], [2.0, 0.0], [-1.0, 0.0], [0.5, -2.0]])
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    d = kernels.segment_point_distances(pts, a, b)
    np.testing.assert_allclose(d[:, 0], [1.0, 1.0, 1.0, 2.0])
    # degenerate zero-length segment falls back to point distance
    d0 = kernels.segment_point_distances(pts, a, a)
    np.testing.assert_allclose(d0[:, 0], [1.0, 2.0, 1.0, np.hypot(0.5, 2.0)])


def test_render_spots_match_per_pixel_sum():
    rng = np.random.default_rng(6)
    h, w = 64, 80
    # spots inside the image, plus two whose window is clipped by an edge
    px = np.append(rng.uniform(4, 76, 6), [1.3, 78.6])
    py = np.append(rng.uniform(4, 60, 6), [30.2, 62.7])
    amps = rng.uniform(10, 300, px.size)
    sig = rng.uniform(0.8, 4.0, px.size)
    cutoff = 4.0
    xx, yy = np.meshgrid(np.arange(w), np.arange(h))
    expected = np.full((h, w), 5.0)
    for x0, y0, amp, s in zip(px, py, amps, sig):
        r = cutoff * s
        inside = ((xx >= np.floor(x0 - r)) & (xx <= np.floor(x0 + r))
                  & (yy >= np.floor(y0 - r)) & (yy <= np.floor(y0 + r)))
        gauss = amp * np.exp(-((xx - x0) ** 2 + (yy - y0) ** 2) / (2.0 * s * s))
        expected += np.where(inside, gauss, 0.0)
    image = np.full((h, w), 5.0)
    got = kernels.render_spots(image, px, py, amps, sig)
    assert got is image  # accumulates in place
    assert np.max(np.abs(got - expected)) / expected.max() < 1e-9


def test_render_spots_add_nothing_for_a_spot_outside_the_image():
    h, w = 20, 30
    sig = np.ones(4)
    # each 4-sigma window ends one pixel short of an edge: left, right, top,
    # bottom; the Gaussian tail there is exp(-12.5), not zero
    px = np.array([-4.5, w + 4.0, 10.0, 12.0])
    py = np.array([8.0, 9.0, -4.5, h + 4.0])
    gy, gx = kernels.spot_factors(px, py, sig, h, w)
    assert not np.any(np.einsum("mh,mw->mhw", gy, gx))
    image = np.full((h, w), 5.0)
    kernels.render_spots(image, px, py, np.full(4, 100.0), sig)
    np.testing.assert_array_equal(image, 5.0)
