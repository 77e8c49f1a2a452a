"""SLM phase-mask synthesis for point-trap arrays.

The mask is computed with a weighted Gerchberg-Saxton iteration specialised
to point targets: the field at each trap is a weighted sum over SLM pixels
with the paraxial transfer phase (lateral Fourier term plus an axial
Fresnel-lens term), per-trap weights equalise the trap amplitudes, and each
pixel phase is set to the argument of the back-propagated trap sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .geometry import TrapLayout, Vec3

PARAXIAL_LATERAL_UM = 50.0
PARAXIAL_AXIAL_UM = 100.0
VOLUME_VOXEL_BUDGET = 100_000_000


class ParaxialRangeError(ValueError):
    """A requested point lies outside the paraxial validity region."""


@dataclass(frozen=True)
class SlmConfig:
    nx: int = 512
    ny: int = 512
    pixel_pitch_um: float = 20.0
    wavelength_um: float = 0.85
    focal_length_mm: float = 10.0
    # calibrated so the focal waist matches the measured 1.1 um spot
    input_beam_waist_mm: float = 2.46

    def __post_init__(self):
        if min(self.nx, self.ny) < 1 or self.nx * self.ny > 2**22:
            raise ValueError("pixel count must be >= 1 and nx*ny <= 2^22")
        for name in ("pixel_pitch_um", "wavelength_um", "focal_length_mm", "input_beam_waist_mm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        xs = (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.pixel_pitch_um
        ys = (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.pixel_pitch_um
        return xs, ys

    @property
    def alpha(self) -> float:
        """Lateral transfer coefficient 2*pi / (lambda * f), rad/um^2."""
        return 2.0 * math.pi / (self.wavelength_um * self.focal_length_mm * 1e3)

    @property
    def gamma(self) -> float:
        """Axial lens coefficient pi / (lambda * f^2), rad/um^3."""
        f_um = self.focal_length_mm * 1e3
        return math.pi / (self.wavelength_um * f_um * f_um)

    def input_amplitude(self) -> tuple[np.ndarray, np.ndarray]:
        """Separable Gaussian illumination amplitude (gy, gx)."""
        xs, ys = self.pixel_coords()
        w_um = self.input_beam_waist_mm * 1e3
        return np.exp(-(ys / w_um) ** 2), np.exp(-(xs / w_um) ** 2)


@dataclass(frozen=True)
class WgsConfig:
    max_iters: int = 100
    target_rms: float = 0.05
    weight_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.target_rms < 1.0):
            raise ValueError("target_rms must be in (0, 1)")


@dataclass(frozen=True)
class PhaseMask:
    phases: np.ndarray  # (ny, nx), radians in [0, 2*pi)

    def __post_init__(self):
        p = self.phases
        if p.ndim != 2:
            raise ValueError("phases must be a 2D array")
        if np.any(p < 0.0) or np.any(p >= 2.0 * math.pi):
            raise ValueError("phases must lie in [0, 2*pi)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.phases.shape


@dataclass(frozen=True)
class UniformityReport:
    per_trap_intensity: tuple[float, ...]  # normalised to unit mean
    rms_deviation: float
    iterations_used: int
    converged: bool
    rms_history: tuple[float, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "rms": self.rms_deviation,
            "iterations": self.iterations_used,
            "converged": self.converged,
            "per_trap": list(self.per_trap_intensity),
        }


@dataclass(frozen=True)
class Box:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min <= self.z_max):
            raise ValueError("box bounds must be ordered")


@dataclass(frozen=True)
class IntensityVolume:
    origin: Vec3  # centre of voxel (0, 0, 0)
    voxel_size_um: tuple[float, float, float]  # (dx, dy, dz)
    data: np.ndarray  # (nz, ny, nx), peak-normalised

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class Image2D:
    pixels: np.ndarray  # (height, width), nonnegative

    def __post_init__(self):
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be 2D")
        if np.any(self.pixels < 0):
            raise ValueError("pixel values must be nonnegative")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _check_paraxial(points: np.ndarray) -> None:
    if points.size == 0:
        raise ValueError("at least one point is required")
    if np.max(np.abs(points[:, :2])) > PARAXIAL_LATERAL_UM or np.max(np.abs(points[:, 2])) > PARAXIAL_AXIAL_UM:
        raise ParaxialRangeError(
            f"points must satisfy |x|,|y| <= {PARAXIAL_LATERAL_UM} um and |z| <= {PARAXIAL_AXIAL_UM} um"
        )


def _slm_field(slm: SlmConfig, phases: np.ndarray) -> np.ndarray:
    """Input amplitude times exp(1j * phases), built in one complex array
    with no full-size temporary."""
    gy, gx = slm.input_amplitude()
    w = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=w.real)
    np.sin(phases, out=w.imag)
    w *= gx
    w *= gy[:, None]
    return w


def _input_norm(slm: SlmConfig) -> float:
    gy, gx = slm.input_amplitude()
    return float(gy.sum() * gx.sum())


def uniformity_rms(intensities) -> float:
    """Population std / mean of a set of nonnegative intensities."""
    vals = np.asarray(intensities, dtype=float)
    if vals.size == 0:
        raise ValueError("need at least one intensity")
    if np.any(vals < 0):
        raise ValueError("intensities must be nonnegative")
    mean = vals.mean()
    if mean <= 0:
        raise ValueError("mean intensity must be positive")
    return float(vals.std() / mean)


def trap_amplitudes(mask: PhaseMask, layout: TrapLayout, slm: SlmConfig) -> np.ndarray:
    """Normalised complex field at every trap position: sum over pixels of the
    input amplitude times exp(i(phase + transfer)) divided by the total
    input amplitude."""
    if mask.shape != (slm.ny, slm.nx):
        raise ValueError(f"mask shape {mask.shape} does not match SLM {(slm.ny, slm.nx)}")
    traps = layout.positions()
    _check_paraxial(traps)
    xs, ys = slm.pixel_coords()
    factors = kernels.point_factors(xs, ys, traps, slm.alpha, slm.gamma)
    v = kernels.trap_fields(_slm_field(slm, mask.phases), *factors)
    return v / _input_norm(slm)


def _unit_phasor(b: np.ndarray) -> np.ndarray:
    """b / |b| in place, which is exp(1j * angle(b)); a zero pixel gets 1,
    as angle(0) == 0."""
    mag = np.abs(b)
    zero = mag == 0.0
    mag[zero] = 1.0
    np.reciprocal(mag, out=mag)
    b *= mag
    b[zero] = 1.0
    return b


def _wrapped_phase(u: np.ndarray) -> np.ndarray:
    """angle(u) in [0, 2*pi): a negative angle gets 2*pi added, and one so
    close to 0 that the sum rounds to 2*pi becomes 0."""
    p = np.angle(u)
    np.add(p, 2.0 * math.pi, out=p, where=p < 0.0)
    p[p == 2.0 * math.pi] = 0.0
    return p


def _run_wgs(
    traps: np.ndarray,
    slm: SlmConfig,
    wgs: WgsConfig,
    target_amps: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, UniformityReport]:
    """Weighted GS iteration; returns (best phases, report).

    The SLM field is kept as the unit phasor u = exp(1j * phases) of the
    back-propagated trap sum, so an iteration is two products with the
    layout's transfer factors and one normalisation; the phases are taken
    once, from the best u.  The separable illumination gy x gx is folded
    into the forward factors once per solve, so the forward product takes
    u itself.  The factors hold one column per distinct (x, z) and (y, z)
    pair of the layout, so a lattice's solve costs in its distinct rows and
    columns, not in its traps."""
    n_traps = traps.shape[0]
    xs, ys = slm.pixel_coords()
    gy, gx = slm.input_amplitude()
    norm = _input_norm(slm)
    ux, ix, uy, iy = kernels.point_factors(xs, ys, traps, slm.alpha, slm.gamma)
    lit_x, lit_y = gx[:, None] * ux, gy[:, None] * uy

    if target_amps is None:
        targets = np.ones(n_traps)
    else:
        targets = np.asarray(target_amps, dtype=float)
        targets = targets / targets.mean()

    rng = np.random.default_rng(wgs.seed)
    trap_phases = rng.uniform(0.0, 2.0 * math.pi, n_traps)
    weights = np.ones(n_traps)
    coeff = weights * targets * np.exp(1j * trap_phases)
    u = _unit_phasor(kernels.back_field(coeff, ux, ix, uy, iy))

    best_rms = math.inf
    best_u = u
    best_intensity = np.ones(n_traps)
    history = []
    converged = False
    iterations = 0
    for _ in range(wgs.max_iters):
        iterations += 1
        v = kernels.trap_fields(u, lit_x, ix, lit_y, iy) / norm
        mag = np.abs(v)
        rel = np.maximum(mag, 1e-300) / targets
        rms = float(np.std(rel**2) / np.mean(rel**2))
        history.append(rms)
        if rms < best_rms:
            best_rms = rms
            best_u = u
            best_intensity = mag**2
        if rms <= wgs.target_rms:
            converged = True
            break
        weights = weights * (np.mean(rel) / rel) ** wgs.weight_gain
        weights = weights / weights.mean()
        coeff = weights * targets * v / np.maximum(mag, 1e-300)
        u = _unit_phasor(kernels.back_field(coeff, ux, ix, uy, iy))

    report = UniformityReport(
        per_trap_intensity=tuple(best_intensity / best_intensity.mean()),
        rms_deviation=best_rms,
        iterations_used=iterations,
        converged=converged,
        rms_history=tuple(history),
    )
    return _wrapped_phase(best_u), report


def compute_phase_mask(
    layout: TrapLayout,
    slm: SlmConfig = SlmConfig(),
    wgs: WgsConfig = WgsConfig(),
) -> tuple[PhaseMask, UniformityReport]:
    """Solve for an SLM phase mask producing one uniform spot per trap.

    Returns the best mask seen across iterations (lowest model rms) together
    with its uniformity report; ``converged`` is False when the rms target was
    not reached within ``max_iters``.
    """
    traps = layout.positions()
    _check_paraxial(traps)
    phases, report = _run_wgs(traps, slm, wgs)
    return PhaseMask(phases), report


def closed_loop_refine(
    mask: PhaseMask,
    layout: TrapLayout,
    slm: SlmConfig,
    wgs: WgsConfig,
    measured_intensities,
) -> tuple[PhaseMask, UniformityReport]:
    """One camera-feedback round: re-target the WGS solve so the measured
    intensity pattern flattens.

    The per-trap systematic gain implied by ``measured_intensities`` is assumed
    to persist; the refined mask is kept only if its predicted measured rms
    does not exceed the input rms, otherwise the input mask is returned.
    """
    measured = np.asarray(measured_intensities, dtype=float)
    if measured.size != len(layout.traps):
        raise ValueError("one measured intensity per trap is required")
    if np.any(measured <= 0):
        raise ValueError("measured intensities must be positive")

    rms_in = uniformity_rms(measured)
    report_in = UniformityReport(
        per_trap_intensity=tuple(measured / measured.mean()),
        rms_deviation=rms_in,
        iterations_used=0,
        converged=rms_in <= wgs.target_rms,
    )
    if measured.size == 1 or rms_in < 1e-12:
        return mask, report_in

    model_in = np.abs(trap_amplitudes(mask, layout, slm)) ** 2
    gain = (measured / measured.mean()) / (model_in / model_in.mean())
    # amplitude targets from the intensity imbalance
    target_amps = (measured.mean() / measured) ** (wgs.weight_gain / 2.0)

    traps = layout.positions()
    phases, rep = _run_wgs(traps, slm, wgs, target_amps=target_amps)
    refined = PhaseMask(phases)
    model_out = np.abs(trap_amplitudes(refined, layout, slm)) ** 2
    predicted = model_out * gain
    rms_out = uniformity_rms(predicted)
    if rms_out > rms_in:
        return mask, report_in
    report = UniformityReport(
        per_trap_intensity=tuple(predicted / predicted.mean()),
        rms_deviation=rms_out,
        iterations_used=rep.iterations_used,
        converged=rms_out <= wgs.target_rms,
        rms_history=rep.rms_history,
    )
    return refined, report


def sample_intensity_volume(
    mask: PhaseMask,
    slm: SlmConfig,
    region: Box,
    resolution: tuple[int, int, int],
) -> IntensityVolume:
    """Propagate the masked field to a voxel grid and return |E|^2,
    peak-normalised.  Voxel centres are offset half a voxel from the box
    edges; the voxel count is capped by ``VOLUME_VOXEL_BUDGET``."""
    nx, ny, nz = resolution
    if min(nx, ny, nz) < 1:
        raise ValueError("resolution must be >= 1 voxel per axis")
    if nx * ny * nz > VOLUME_VOXEL_BUDGET:
        raise ValueError(f"voxel count {nx * ny * nz} exceeds the {VOLUME_VOXEL_BUDGET} budget")
    corners = np.array(
        [
            [region.x_min, region.y_min, region.z_min],
            [region.x_max, region.y_max, region.z_max],
        ]
    )
    _check_paraxial(corners)
    dx = (region.x_max - region.x_min) / nx
    dy = (region.y_max - region.y_min) / ny
    dz = (region.z_max - region.z_min) / nz
    vx = region.x_min + (np.arange(nx) + 0.5) * dx
    vy = region.y_min + (np.arange(ny) + 0.5) * dy
    if nz == 1:
        vz = np.array([(region.z_min + region.z_max) / 2.0])
        dz = max(region.z_max - region.z_min, 0.0)
    else:
        vz = region.z_min + (np.arange(nz) + 0.5) * dz
    xs, ys = slm.pixel_coords()
    w = _slm_field(slm, mask.phases)
    data = kernels.intensity_slices(w, xs, ys, vx, vy, vz, slm.alpha, slm.gamma)
    peak = data.max()
    if peak > 0:
        data /= peak
    return IntensityVolume(
        origin=Vec3(float(vx[0]), float(vy[0]), float(vz[0])),
        voxel_size_um=(float(dx), float(dy), float(dz)),
        data=data,
    )


def max_intensity_projection(stack: Sequence[Image2D]) -> Image2D:
    """Per-pixel maximum over a stack of equally sized images."""
    if len(stack) == 0:
        raise ValueError("stack must contain at least one image")
    shape = stack[0].pixels.shape
    for img in stack[1:]:
        if img.pixels.shape != shape:
            raise ValueError("stack images must share dimensions")
    out = stack[0].pixels.copy()
    for img in stack[1:]:
        np.maximum(out, img.pixels, out=out)
    return Image2D(out)


def phase_to_bytes(mask: PhaseMask) -> np.ndarray:
    """Quantise phases to 8 bits: round(phi / (2*pi) * 255), half away from zero."""
    return np.floor(mask.phases / (2.0 * math.pi) * 255.0 + 0.5).astype(np.uint8)


def export_phase_pgm(mask: PhaseMask, path) -> None:
    """Write the mask as a binary PGM (P5, maxval 255), top row first."""
    from .formats import write_pgm8

    write_pgm8(path, phase_to_bytes(mask))


def read_phase_pgm(path) -> PhaseMask:
    from .formats import read_pgm

    data, maxval = read_pgm(path)
    if maxval != 255:
        raise ValueError("phase masks use 8-bit PGM")
    return PhaseMask(data.astype(float) / 255.0 * 2.0 * math.pi % (2.0 * math.pi))
