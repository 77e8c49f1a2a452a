"""Hot numeric kernels, in numpy.

All lengths are micrometres and all phases are radians.  The trap/voxel
transfer phase for a pixel at (x, y) and a point at (X, Y, Z) is

    alpha * (x * X + y * Y) + gamma * Z * (x**2 + y**2)

with ``alpha = 2*pi / (wavelength * focal)`` and
``gamma = pi / (wavelength * focal**2)``.  The phase separates into a
pixel-column and a pixel-row factor.  A column factor depends on a point's
(X, Z) alone and a row factor on its (Y, Z), and the points of a lattice
share them, so ``point_factors(xs, ys, points, alpha, gamma) -> (ux, ix, uy,
iy)`` builds one column of ``ux`` per distinct (X, Z) pair and one of ``uy``
per distinct (Y, Z) pair; point m uses column ``ix[m]`` of ``ux`` and
``iy[m]`` of ``uy``.  ``trap_fields(field, ux, ix, uy, iy)`` and
``back_field(coeff, ux, ix, uy, iy)`` take them built, so a WGS solve builds
them once for its layout, and the products with the (ny, nx) field cost in
the number of distinct pairs, not of points.

``intensity_slices`` splits the same phase the other way: the lateral
factors ``exp(i*alpha*outer(xs, vx))`` and ``exp(i*alpha*outer(ys, vy))``
are built once per volume, and each z scales their rows by the chirps
``exp(i*gamma*z*xs**2)`` and ``exp(i*gamma*z*ys**2)``.  The caller builds
the SLM field once per call and keeps nothing past it, so a volume leaves
no cache behind to raise the memory peak of the work that follows.

A fluorescence spot is separable too: ``spot_factors`` gives each spot's
windowed row and column Gaussians, and an image is the background plus
``(gy * amps[:, None]).T @ gx``, which ``render_spots`` accumulates.
"""

from __future__ import annotations

import numpy as np


def _axis_factors(coords, points_lat, points_z, alpha, gamma):
    """exp(i*(alpha*c*P + gamma*Z*c^2)) as an (n_coords, n_points) matrix."""
    phase = alpha * np.outer(coords, points_lat)
    phase += gamma * np.outer(coords * coords, points_z)
    return np.exp(1j * phase)


def point_factors(xs, ys, traps, alpha, gamma):
    """Transfer factors (ux, ix, uy, iy) of the points ``traps`` (n, 3): ux
    is (nx, kx) over the pixel columns ``xs``, one column per distinct (X, Z)
    pair, and uy is (ny, ky) over the rows ``ys``, one per distinct (Y, Z)
    pair; point m's factors are ``ux[:, ix[m]]`` and ``uy[:, iy[m]]``.  Pairs
    are merged on exact equality, so a merged column is the one each of its
    points would have had.  They depend on the layout alone, so a solve
    builds them once."""
    xz, ix = np.unique(traps[:, [0, 2]], axis=0, return_inverse=True)
    yz, iy = np.unique(traps[:, [1, 2]], axis=0, return_inverse=True)
    ux = _axis_factors(xs, xz[:, 0], xz[:, 1], alpha, gamma)
    uy = _axis_factors(ys, yz[:, 0], yz[:, 1], alpha, gamma)
    return ux, ix.ravel(), uy, iy.ravel()  # 1-D whatever numpy's inverse shape


def trap_fields(field, ux, ix, uy, iy):
    """Complex field at each point for an SLM field ``field`` (ny, nx): one
    (ny, nx) @ (nx, kx) product, then each point's row factor against its
    column of it."""
    t = field @ ux
    return np.einsum("ym,ym->m", uy[:, iy], t[:, ix])


def back_field(coeff, ux, ix, uy, iy):
    """Superpose conjugate point waves on the pixel grid: (ny, nx) complex.
    The row waves of the points that share a column factor are summed
    first, so the product with ``ux`` is one (ny, kx) @ (kx, nx)."""
    order = np.argsort(ix, kind="stable")
    counts = np.bincount(ix)
    starts = np.cumsum(counts) - counts  # column c's points: order[starts[c]:][:counts[c]]
    # add each column's j-th point wave to its sum, one rank j at a time: a
    # pass per point of the largest group, where a reduceat pays per group.
    # The waves are summed unconjugated and the sums conjugated once, which
    # is exact: conj(uy) * c == conj(uy * conj(c)).
    c = coeff.conj()
    first = order[starts]
    rows = uy[:, iy[first]]
    rows *= c[first]
    for j in range(1, counts.max()):
        m = order[starts[counts > j] + j]
        rows[:, ix[m]] += uy[:, iy[m]] * c[m]
    return np.conjugate(rows, out=rows) @ ux.conj().T


def _lateral_factors(coords, points_lat, alpha):
    """exp(i*alpha*c*P) as an (n_coords, n_points) matrix."""
    return np.exp(1j * alpha * np.outer(coords, points_lat))


def intensity_slices(field, xs, ys, vx, vy, vz, alpha, gamma):
    """|field propagated to voxel centres|^2 as a (nz, ny, nx) volume; the
    lateral factors are built once and each z applies its chirps."""
    lat_x = _lateral_factors(xs, vx, alpha)
    lat_y = _lateral_factors(ys, vy, alpha)
    x2, y2 = xs * xs, ys * ys
    out = np.empty((vz.size, vy.size, vx.size))
    for k, z in enumerate(vz):
        ux = lat_x * np.exp(1j * gamma * z * x2)[:, None]
        uy = lat_y * np.exp(1j * gamma * z * y2)[:, None]
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


SPOT_CUTOFF_SIGMAS = 4.0


def spot_factors(px, py, sigmas, h, w):
    """Row and column factors of 2D Gaussians (in pixel units) on an (h, w)
    grid: gy (n, h) and gx (n, w), with spot m equal to
    ``outer(gy[m], gx[m])``.  Each factor is zero outside the pixels
    ``floor(c - k*sigma) .. floor(c + k*sigma)`` of its centre c, with
    k = ``SPOT_CUTOFF_SIGMAS``, so a spot wholly outside the image has zero
    factors."""
    px, py, sigmas = (np.asarray(a, dtype=np.float64)[:, None] for a in (px, py, sigmas))
    r = SPOT_CUTOFF_SIGMAS * sigmas
    two_s2 = 2.0 * sigmas * sigmas

    def axis(c, size):
        j = np.arange(size)
        inside = (j >= np.floor(c - r)) & (j <= np.floor(c + r))
        return np.where(inside, np.exp(-((j - c) ** 2) / two_s2), 0.0)

    return axis(py, h), axis(px, w)


def render_spots(image, px, py, amps, sigmas):
    """Accumulate 2D Gaussians (in pixel units) onto ``image`` in place."""
    gy, gx = spot_factors(px, py, sigmas, *image.shape)
    image += (gy * amps[:, None]).T @ gx
    return image
