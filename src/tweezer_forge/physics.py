"""Trap and moving-tweezers physics: depth/power scaling, trap frequencies,
axial crosstalk loss and vacuum-lifetime survival.

Units: lengths in um, powers in mW, depths in mK, times in s, frequencies
in kHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
RB87_MASS_KG = 1.443e-25
DEFAULT_WAVELENGTH_UM = 0.85

# Depth calibration anchor: 3.5 mW per trap makes a 1 mK trap.
ANCHOR_POWER_MW = 3.5
ANCHOR_DEPTH_MK = 1.0

# Axial distances at which a moving-tweezers pass leaves atoms undisturbed
# (1% loss): full power and reduced power.
FULL_POWER_SAFE_DZ_UM = 17.0
REDUCED_POWER_SAFE_DZ_UM = 14.0

_EXTRACT_LOSS = 0.99  # loss for a direct pass (dz = dr = 0) at full power
_SAFE_LOSS = 0.01  # residual loss at the safe axial distance


class CalibrationError(RuntimeError):
    """Crosstalk calibration could not satisfy its anchor constraints."""


def rayleigh_length(w0_um: float, wavelength_um: float = DEFAULT_WAVELENGTH_UM) -> float:
    """pi * w0^2 / lambda."""
    if w0_um <= 0 or wavelength_um <= 0:
        raise ValueError("waist and wavelength must be positive")
    return math.pi * w0_um * w0_um / wavelength_um


@dataclass(frozen=True)
class MtParams:
    """Moving-tweezers beam and its perturbation-to-loss response.

    ``loss_threshold_theta``/``loss_steepness`` parametrise the logistic loss
    curve; leave them None and run :func:`calibrate_crosstalk` (or use
    :func:`default_mt_params`) to pin them to the recapture anchors.
    """

    waist_um: float = 1.3
    power_ratio: float = 3.0
    rayleigh_um: float = rayleigh_length(1.3)
    loss_threshold_theta: Optional[float] = None
    loss_steepness: Optional[float] = None

    def __post_init__(self):
        if self.waist_um <= 0 or self.power_ratio <= 0 or self.rayleigh_um <= 0:
            raise ValueError("MtParams fields must be positive")

    @property
    def calibrated(self) -> bool:
        return self.loss_threshold_theta is not None and self.loss_steepness is not None


def reduced_power_ratio(mt: MtParams) -> float:
    """Power scale of the reduced-power MT mode.

    Derived from the Gaussian axial-intensity model so that the perturbation
    at 14 um and reduced power equals the one at 17 um and full power
    (numerically about 0.72).
    """
    zr2 = mt.rayleigh_um * mt.rayleigh_um
    return (1.0 + REDUCED_POWER_SAFE_DZ_UM**2 / zr2) / (1.0 + FULL_POWER_SAFE_DZ_UM**2 / zr2)


def trap_depth(power_mw: float) -> float:
    """Trap depth in mK; linear in power through the calibration anchor."""
    if power_mw < 0:
        raise ValueError("power must be >= 0")
    return power_mw * ANCHOR_DEPTH_MK / ANCHOR_POWER_MW


def trap_frequencies(
    depth_mk: float,
    w0_um: float,
    z_r_um: float,
    atom_mass_kg: float = RB87_MASS_KG,
) -> tuple[float, float]:
    """(radial, axial) trap frequencies in kHz for a Gaussian-focus harmonic
    expansion: omega_r = sqrt(4 U0 / (m w0^2)), omega_z = sqrt(2 U0 / (m zR^2))."""
    if depth_mk <= 0 or w0_um <= 0 or z_r_um <= 0:
        raise ValueError("inputs must be positive")
    u0 = BOLTZMANN_J_PER_K * depth_mk * 1e-3
    w0_m = w0_um * 1e-6
    zr_m = z_r_um * 1e-6
    omega_r = math.sqrt(4.0 * u0 / (atom_mass_kg * w0_m * w0_m))
    omega_z = math.sqrt(2.0 * u0 / (atom_mass_kg * zr_m * zr_m))
    return omega_r / (2.0 * math.pi) * 1e-3, omega_z / (2.0 * math.pi) * 1e-3


def perturbation_ratio(dz_um, dr_um, mt: MtParams, power_scale: float = 1.0):
    """MT peak intensity seen by an atom, relative to its trap's peak."""
    axial = 1.0 + (np.asarray(dz_um, dtype=float) / mt.rayleigh_um) ** 2
    w2 = mt.waist_um * mt.waist_um * axial
    radial = np.exp(-2.0 * np.asarray(dr_um, dtype=float) ** 2 / w2)
    return power_scale * mt.power_ratio / axial * radial


def _loss_curve(s, theta: float, steepness: float):
    """Baseline-rescaled logistic: exactly 0 at s = 0, saturating to 1.

    The raw logistic has a nonzero floor at s = 0; rescaling restores the
    vanishing-perturbation limit (loss -> 0 as dz -> infinity).
    """
    raw = 1.0 / (1.0 + np.exp(-(np.asarray(s, dtype=float) - theta) * steepness))
    floor = 1.0 / (1.0 + math.exp(theta * steepness))
    return np.clip((raw - floor) / (1.0 - floor), 0.0, 1.0)


def mt_pass_loss(
    dz_um,
    dr_um,
    mt: MtParams,
    depth_mk: float = 1.0,
    power_scale: float = 1.0,
):
    """Probability that one MT pass at axial offset dz and lateral offset dr
    ejects an atom from a trap of the given depth.

    Scalar in, scalar out; arrays broadcast elementwise.
    """
    if not mt.calibrated:
        mt = calibrate_crosstalk(mt)
    if depth_mk <= 0:
        raise ValueError("depth must be positive")
    s = perturbation_ratio(dz_um, dr_um, mt, power_scale) / depth_mk
    out = _loss_curve(s, mt.loss_threshold_theta, mt.loss_steepness)
    if np.isscalar(dz_um) and np.isscalar(dr_um):
        return float(out)
    return out


def calibrate_crosstalk(mt: MtParams) -> MtParams:
    """Pin (theta, steepness) to the recapture anchors.

    Constraints: a direct full-power pass extracts the atom
    (loss(dz=0) = 0.99) and a full-power pass at 17 um is negligible
    (loss = 0.01); the reduced-power mode then satisfies the 14 um anchor
    through the axial-intensity model shared by both thresholds.
    """
    # deferred: scipy.optimize takes longer to import than the whole package
    from scipy.optimize import root

    s_extract = float(perturbation_ratio(0.0, 0.0, mt))
    s_safe = float(perturbation_ratio(FULL_POWER_SAFE_DZ_UM, 0.0, mt))
    if not (s_extract > s_safe > 0.0):
        raise CalibrationError("perturbation model is degenerate; check MtParams")

    logit = math.log(_SAFE_LOSS / (1.0 - _SAFE_LOSS))
    theta0 = 0.5 * (s_extract + s_safe)
    k0 = -2.0 * logit / (s_extract - s_safe)

    def residual(x):
        theta, steep = x
        return [
            float(_loss_curve(s_extract, theta, steep)) - _EXTRACT_LOSS,
            float(_loss_curve(s_safe, theta, steep)) - _SAFE_LOSS,
        ]

    sol = root(residual, x0=[theta0, k0], method="hybr", tol=1e-12)
    theta, steep = float(sol.x[0]), float(sol.x[1])
    if not sol.success or theta <= 0 or steep <= 0:
        raise CalibrationError(f"calibration failed: {sol.message}")
    res = residual([theta, steep])
    if max(abs(r) for r in res) > 1e-6:
        raise CalibrationError(f"calibration residual too large: {res}")
    return replace(mt, loss_threshold_theta=theta, loss_steepness=steep)


@lru_cache(maxsize=8)
def _default_mt_cached(waist: float, ratio: float, rayleigh: float) -> MtParams:
    return calibrate_crosstalk(
        MtParams(waist_um=waist, power_ratio=ratio, rayleigh_um=rayleigh)
    )


def default_mt_params(power_ratio: float = 3.0) -> MtParams:
    """Calibrated MT parameters for the default beam geometry."""
    base = MtParams(power_ratio=power_ratio)
    return _default_mt_cached(base.waist_um, base.power_ratio, base.rayleigh_um)


def survival(t_s: float, tau_s: float) -> float:
    """exp(-t / tau); tau may be math.inf for a lossless trap."""
    if t_s < 0:
        raise ValueError("t must be >= 0")
    if tau_s <= 0:
        raise ValueError("tau must be positive")
    if math.isinf(tau_s):
        return 1.0
    return math.exp(-t_s / tau_s)


@dataclass(frozen=True)
class LossModel:
    """Per-transfer fidelity, vacuum lifetime and (optional) MT crosstalk."""

    move_fidelity_eta: float = 0.993
    lifetime_tau_s: float = 10.0
    crosstalk: Optional[MtParams] = None

    def __post_init__(self):
        if not (0.0 < self.move_fidelity_eta <= 1.0):
            raise ValueError("move_fidelity_eta must be in (0, 1]")
        if self.lifetime_tau_s <= 0:
            raise ValueError("lifetime_tau_s must be positive")

    @property
    def crosstalk_enabled(self) -> bool:
        return self.crosstalk is not None


def default_loss_model() -> LossModel:
    return LossModel(crosstalk=default_mt_params())


def lossless_model() -> LossModel:
    return LossModel(move_fidelity_eta=1.0, lifetime_tau_s=math.inf, crosstalk=None)
