"""Output checks written apart from the code they check.

Each checker returns a list of error strings; an empty list means the output
passed.  None of them calls ``tweezer_forge.kernels``, ``apply_plan_lossless``
or ``analytic_fill_estimate``: plans are replayed here, trap and voxel
intensities are summed here pixel by pixel, and the crosstalk-free fill is
evaluated here from its closed form.
"""

from __future__ import annotations

import math

import numpy as np

POS_TOL_UM = 1e-9  # path points are copies of site coordinates
INTENSITY_TOL = 1e-9  # direct sum vs the program, in units of the mean or peak


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def check_plan(plan, occupancy, positions, is_target, plane_indices, plane_index,
               plane_z, clearance_um):
    """Replay one plane's MovePlan from ``occupancy``.

    Every move must lift from an occupied trap of the plane and drop onto an
    empty one, keep its path at the plane's z, start on its source, end on its
    destination (transfers) or on its exit (ejections) at least
    ``clearance_um`` from every trap of the plane.  After the last move every
    target of the plane is filled and no non-target site of the plane holds
    an atom.
    """
    errors = []
    if plan.plane_index != plane_index:
        errors.append(f"plan is for plane {plan.plane_index}, not {plane_index}")
    if abs(plan.mt_z_um - plane_z) > POS_TOL_UM:
        errors.append(f"plan MT z {plan.mt_z_um} is not the plane's z {plane_z}")
    members = set(int(i) for i in plane_indices)
    plane_xy = positions[list(members)][:, :2]
    occ = [bool(v) for v in occupancy]

    def at(point, xy):
        return abs(point.x - xy[0]) <= POS_TOL_UM and abs(point.y - xy[1]) <= POS_TOL_UM

    for k, move in enumerate(plan.moves):
        src = move.from_index
        if src not in members:
            errors.append(f"move {k} lifts from trap {src} outside the plane")
            continue
        if not occ[src]:
            errors.append(f"move {k} lifts from empty trap {src}")
        if len(move.path) < 2:
            errors.append(f"move {k} has a path of {len(move.path)} points")
            continue
        if any(abs(p.z - plane_z) > POS_TOL_UM for p in move.path):
            errors.append(f"move {k} leaves the plane's z")
        if not at(move.path[0], positions[src]):
            errors.append(f"move {k} does not start on trap {src}")
        occ[src] = False
        if move.kind == "transfer":
            dst = move.to_index
            if dst is None or dst not in members:
                errors.append(f"move {k} drops onto trap {dst} outside the plane")
                continue
            if occ[dst]:
                errors.append(f"move {k} drops onto occupied trap {dst}")
            if not at(move.path[-1], positions[dst]):
                errors.append(f"move {k} does not end on its destination {dst}")
            occ[dst] = True
        elif move.kind == "eject":
            if move.exit_um is None:
                errors.append(f"ejection {k} has no exit")
                continue
            exit_xy = np.asarray(move.exit_um, dtype=float)
            if not at(move.path[-1], exit_xy):
                errors.append(f"ejection {k} does not end at its exit")
            gap = float(np.hypot(*(plane_xy - exit_xy).T).min())
            if gap < clearance_um:
                errors.append(f"ejection {k} exit is {gap:.3f} um from a trap of the plane")
        else:
            errors.append(f"move {k} has unknown kind {move.kind!r}")
    for i in sorted(members):
        if is_target[i] and not occ[i]:
            errors.append(f"target {i} is empty after the plan")
        elif not is_target[i] and occ[i]:
            errors.append(f"non-target site {i} still holds an atom")
    return errors


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def check_detection(detected, drawn):
    detected = np.asarray(detected, dtype=bool)
    drawn = np.asarray(drawn, dtype=bool)
    if detected.shape != drawn.shape:
        return [f"detected {detected.shape} flags for {drawn.shape} traps"]
    wrong = np.nonzero(detected != drawn)[0]
    return [f"trap {int(i)} misread" for i in wrong]


# ---------------------------------------------------------------------------
# holograms: direct sums over SLM pixels
# ---------------------------------------------------------------------------

class DirectSum:
    """Complex field of a phase mask at arbitrary points, summed pixel by
    pixel from the SLM parameters.

    The field at (X, Y, Z) is the sum over pixels (x, y) of
    ``A(x, y) exp(i (phi(x, y) + a (x X + y Y) + g Z (x^2 + y^2)))`` with the
    Gaussian illumination ``A``, ``a = 2 pi / (lambda f)`` and
    ``g = pi / (lambda f^2)``; each pixel's factor is formed as the product
    of its column and row factors and the full 2D array is summed.
    """

    def __init__(self, slm, phases):
        f_um = slm.focal_length_mm * 1e3
        self.a = 2.0 * math.pi / (slm.wavelength_um * f_um)
        self.g = math.pi / (slm.wavelength_um * f_um * f_um)
        self.x = (np.arange(slm.nx) - (slm.nx - 1) / 2.0) * slm.pixel_pitch_um
        self.y = (np.arange(slm.ny) - (slm.ny - 1) / 2.0) * slm.pixel_pitch_um
        w_um = slm.input_beam_waist_mm * 1e3
        amp = np.outer(np.exp(-(self.y / w_um) ** 2), np.exp(-(self.x / w_um) ** 2))
        self.weighted = amp * np.exp(1j * np.asarray(phases, dtype=float))
        self.norm = float(amp.sum())

    def field(self, point) -> complex:
        px, py, pz = (float(v) for v in point)
        col = np.exp(1j * (self.a * self.x * px + self.g * pz * self.x**2))
        row = np.exp(1j * (self.a * self.y * py + self.g * pz * self.y**2))
        return complex((self.weighted * np.outer(row, col)).sum() / self.norm)

    def intensities(self, points) -> np.ndarray:
        return np.array([abs(self.field(p)) ** 2 for p in points])


def check_mask(mask, report, positions, slm, target_rms):
    """Recompute every trap's intensity and the uniformity rms of a mask."""
    phases = np.asarray(mask.phases)
    errors = []
    if phases.shape != (slm.ny, slm.nx):
        return [f"mask shape {phases.shape} is not the SLM's {(slm.ny, slm.nx)}"]
    if phases.min() < 0.0 or phases.max() >= 2.0 * math.pi:
        errors.append("mask phases leave [0, 2 pi)")
    intensity = DirectSum(slm, phases).intensities(positions)
    rel = intensity / intensity.mean()
    rms = float(rel.std())
    if not rms < target_rms:
        errors.append(f"direct-sum rms {rms:.4g} is not below {target_rms}")
    if abs(rms - report.rms_deviation) > INTENSITY_TOL:
        errors.append(f"direct-sum rms {rms!r} differs from the report's "
                      f"{report.rms_deviation!r}")
    reported = np.asarray(report.per_trap_intensity, dtype=float)
    if reported.shape != rel.shape:
        errors.append(f"report holds {reported.size} intensities for {rel.size} traps")
    elif np.max(np.abs(reported - rel)) > INTENSITY_TOL:
        errors.append("per-trap intensities differ from the direct sum")
    if not report.converged:
        errors.append("report says the solve did not converge")
    return errors


def voxel_centres(region, resolution):
    """Voxel-centre coordinates (vx, vy, vz) of a box sampled at
    ``resolution`` = (nx, ny, nz), half a voxel in from each face."""
    nx, ny, nz = resolution
    lo = (region.x_min, region.y_min, region.z_min)
    hi = (region.x_max, region.y_max, region.z_max)
    return tuple(l + (np.arange(n) + 0.5) * (h - l) / n for l, h, n in zip(lo, hi, (nx, ny, nz)))


def check_volume(volume, phases, slm, region, resolution, sample):
    """Peak-normalised volume against the direct sum at ``sample`` voxels,
    given as (iz, iy, ix) triples; the volume's own peak is the reference."""
    data = np.asarray(volume.data)
    nx, ny, nz = resolution
    if data.shape != (nz, ny, nx):
        return [f"volume shape {data.shape} is not {(nz, ny, nx)}"]
    errors = []
    if abs(float(data.max()) - 1.0) > INTENSITY_TOL:
        errors.append(f"volume peak is {float(data.max())!r}, not 1")
    vx, vy, vz = voxel_centres(region, resolution)
    peak = np.unravel_index(int(np.argmax(data)), data.shape)
    voxels = [peak] + [tuple(int(c) for c in v) for v in sample]
    points = [(vx[ix], vy[iy], vz[iz]) for iz, iy, ix in voxels]
    direct = DirectSum(slm, phases).intensities(points)
    ratios = direct / direct[0]
    for (iz, iy, ix), want in zip(voxels, ratios.tolist()):
        got = float(data[iz, iy, ix])
        if abs(got - want) > INTENSITY_TOL:
            errors.append(f"voxel {(iz, iy, ix)} reads {got!r}, direct sum gives {want!r}")
    return errors


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

def crosstalk_free_fill(config) -> float:
    """Closed-form expected fill of a config with crosstalk switched off.

    Per plane of n traps and t targets, loading is Binomial(n, p) conditioned
    on at least t atoms.  With k the conditional mean atom count, the plane
    starts k / n full, needs t (1 - k / n) transfers and k - t ejections, and
    a target survives eta^(1 - k / n) of transfer infidelity times the vacuum
    survival over its hold, which runs from the freeze through every plane's
    sort to the plane's final image.
    """
    layout, decomp = config.layout, config.decomposition
    timing, loss, p = config.timing, config.loss, config.p_load
    n_planes = len(decomp.planes)
    planes = []
    for plane in decomp.planes:
        n = len(plane.indices)
        t = sum(1 for i in plane.indices if layout.traps[i].is_target)
        if t == 0:
            planes.append(None)
            continue
        pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(t, n + 1)]
        mean_k = sum(k * w for k, w in zip(range(t, n + 1), pmf)) / sum(pmf)
        prefill = mean_k / n
        planes.append((t, prefill, t * (1.0 - prefill) + (mean_k - t)))
    sort_ms = sum(timing.sort_per_plane_ms + timing.per_move_ms * moves
                  for (_, _, moves) in filter(None, planes))
    filled = 0.0
    for index, entry in enumerate(planes):
        if entry is None:
            continue
        t, prefill, _ = entry
        held_ms = (n_planes + index + 1) * timing.image_per_plane_ms + sort_ms
        survive = loss.move_fidelity_eta ** (1.0 - prefill)
        if not math.isinf(loss.lifetime_tau_s):
            survive *= math.exp(-held_ms / (loss.lifetime_tau_s * 1000.0))
        filled += t * survive
    return filled / sum(e[0] for e in planes if e is not None)


def pool_statistics(stats_list):
    """(triggered, mean_fill, std_fill, mean_cycle_ms) over several
    Statistics, as if from one run."""
    shots = sum(s.shots for s in stats_list)
    trig = sum(s.triggered for s in stats_list)
    mean = sum(s.triggered * s.mean_fill for s in stats_list) / trig
    second = sum(s.triggered * (s.std_fill**2 + s.mean_fill**2) for s in stats_list) / trig
    cycle = sum(s.shots * s.mean_cycle_ms for s in stats_list) / shots
    return trig, mean, math.sqrt(max(second - mean * mean, 0.0)), cycle


def check_shots(stats, all_triggered=True):
    """Every shot of one run_experiment call was planned and, unless
    ``all_triggered`` is false, triggered."""
    errors = []
    if all_triggered and stats.triggered != stats.shots:
        errors.append(f"{stats.shots - stats.triggered} of {stats.shots} shots never triggered")
    if stats.planner_failures:
        errors.append(f"{stats.planner_failures} planner failures in {stats.shots} shots")
    return errors


def check_pooled(stats_list, oracle_fill=None, fill_band=None, rate_band_hz=None):
    """The pooled mean fill is no higher than ``oracle_fill``, the
    crosstalk-free closed form, plus 3 standard errors, and meets the paper
    figures: fill within ``fill_band`` = (centre, half width) and repetition
    rate within ``rate_band_hz`` = (low, high).  Each check is optional."""
    errors = []
    trig, mean, std, cycle_ms = pool_statistics(stats_list)
    se = std / math.sqrt(trig)
    if oracle_fill is not None and mean > oracle_fill + 3.0 * se:
        errors.append(f"mean fill {mean:.5f} exceeds the crosstalk-free "
                      f"{oracle_fill:.5f} by {(mean - oracle_fill) / se:.1f} standard errors")
    if fill_band is not None and abs(mean - fill_band[0]) > fill_band[1]:
        errors.append(f"mean fill {mean:.4f} is outside {fill_band[0]} +- {fill_band[1]}")
    if rate_band_hz is not None:
        rate = 1000.0 / cycle_ms
        if not rate_band_hz[0] <= rate <= rate_band_hz[1]:
            errors.append(f"repetition rate {rate:.3f} Hz is outside {rate_band_hz}")
    return errors
