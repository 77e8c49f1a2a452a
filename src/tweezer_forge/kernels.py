"""Hot numeric kernels, in numpy.

All lengths are micrometres and all phases are radians.  The trap/voxel
transfer phase for a pixel at (x, y) and a point at (X, Y, Z) is

    alpha * (x * X + y * Y) + gamma * Z * (x**2 + y**2)

with ``alpha = 2*pi / (wavelength * focal)`` and
``gamma = pi / (wavelength * focal**2)``.
"""

from __future__ import annotations

import numpy as np


def _axis_factors(coords, points_lat, points_z, alpha, gamma):
    """exp(i*(alpha*c*P + gamma*Z*c^2)) as an (n_coords, n_points) matrix."""
    phase = alpha * np.outer(coords, points_lat)
    phase += gamma * np.outer(coords * coords, points_z)
    return np.exp(1j * phase)


def trap_fields(field, xs, ys, traps, alpha, gamma):
    """Complex field at each trap point for an SLM field ``field`` (ny, nx)."""
    ux = _axis_factors(xs, traps[:, 0], traps[:, 2], alpha, gamma)
    uy = _axis_factors(ys, traps[:, 1], traps[:, 2], alpha, gamma)
    t = field @ ux
    return np.einsum("ym,ym->m", uy, t)


def back_field(coeff, xs, ys, traps, alpha, gamma):
    """Superpose conjugate point waves on the pixel grid: (ny, nx) complex."""
    ux = _axis_factors(xs, traps[:, 0], traps[:, 2], alpha, gamma)
    uy = _axis_factors(ys, traps[:, 1], traps[:, 2], alpha, gamma)
    return (uy.conj() * coeff) @ ux.conj().T


def intensity_slices(field, xs, ys, vx, vy, vz, alpha, gamma):
    """|field propagated to voxel centres|^2 as a (nz, ny, nx) volume."""
    out = np.empty((vz.size, vy.size, vx.size))
    for k, z in enumerate(vz):
        ux = _axis_factors(xs, vx, np.full(vx.size, z), alpha, gamma)
        uy = _axis_factors(ys, vy, np.full(vy.size, z), alpha, gamma)
        s = uy.T @ (field @ ux)
        out[k] = np.abs(s) ** 2
    return out


def segment_point_distances(points, seg_a, seg_b):
    """Distance from each 2D point to each segment, shape (n_points, n_segs)."""
    points = np.asarray(points, dtype=np.float64)
    seg_a = np.asarray(seg_a, dtype=np.float64)
    seg_b = np.asarray(seg_b, dtype=np.float64)
    d = seg_b - seg_a  # (S, 2)
    rel = points[:, None, :] - seg_a[None, :, :]  # (P, S, 2)
    dd = np.einsum("sk,sk->s", d, d)
    t = np.einsum("psk,sk->ps", rel, d) / np.where(dd > 0.0, dd, 1.0)
    t = np.clip(t, 0.0, 1.0)
    closest = rel - t[:, :, None] * d[None, :, :]
    return np.sqrt(np.einsum("psk,psk->ps", closest, closest))


def _spot_window(c, r, size):
    lo = max(0, int(np.floor(c - r)))
    hi = min(size - 1, int(np.floor(c + r))) + 1
    return lo, hi


def render_spots(image, px, py, amps, sigmas, cutoff=4.0):
    """Accumulate 2D Gaussians (in pixel units) onto ``image`` in place."""
    h, w = image.shape
    for m in range(px.size):
        s = sigmas[m]
        r = cutoff * s
        x0, x1 = _spot_window(px[m], r, w)
        y0, y1 = _spot_window(py[m], r, h)
        if x0 >= x1 or y0 >= y1:
            continue
        gx = np.exp(-((np.arange(x0, x1) - px[m]) ** 2) / (2.0 * s * s))
        gy = np.exp(-((np.arange(y0, y1) - py[m]) ** 2) / (2.0 * s * s))
        image[y0:y1, x0:x1] += amps[m] * np.outer(gy, gx)
    return image
