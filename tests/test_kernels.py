"""The numpy kernels against direct references: each field kernel against an
unfactored sum over every SLM pixel, the segment distances against a loop
over every (point, segment) pair, and the spot renderer against a per-pixel
Gaussian sum with the same 4-sigma window."""

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


def _pixel_phase(xs, ys, point, a, g):
    """Transfer phase from every pixel (ny, nx) to one point (X, Y, Z)."""
    xx, yy = np.meshgrid(xs, ys)
    x, y, z = point
    return a * (xx * x + yy * y) + g * z * (xx**2 + yy**2)


def test_trap_fields_match_brute_force(problem):
    field, xs, ys, traps, a, g = problem
    # direct unfactored sum over every pixel
    expected = np.array([
        (field * np.exp(1j * _pixel_phase(xs, ys, t, a, g))).sum() for t in traps
    ])
    got = kernels.trap_fields(field, xs, ys, traps, a, g)
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-9


def test_back_field_matches_direct_sum(problem):
    _, xs, ys, traps, a, g = problem
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(len(traps)) + 1j * rng.standard_normal(len(traps))
    # every pixel gets sum_m coeff_m * conj(exp(i * phase_m))
    expected = sum(
        c * np.conj(np.exp(1j * _pixel_phase(xs, ys, t, a, g)))
        for c, t in zip(coeff, traps)
    )
    got = kernels.back_field(coeff, xs, ys, traps, a, g)
    assert got.shape == (ys.size, xs.size)
    assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-9


def test_intensity_slices_match_direct_sum(problem):
    field, xs, ys, _, a, g = problem
    vx = np.linspace(-4, 4, 9)
    vy = np.linspace(-4, 4, 7)
    vz = np.linspace(-6, 6, 5)
    expected = np.empty((vz.size, vy.size, vx.size))
    for k, z in enumerate(vz):
        for j, y in enumerate(vy):
            for i, x in enumerate(vx):
                s = (field * np.exp(1j * _pixel_phase(xs, ys, (x, y, z), a, g))).sum()
                expected[k, j, i] = abs(s) ** 2
    got = kernels.intensity_slices(field, xs, ys, vx, vy, vz, a, g)
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
