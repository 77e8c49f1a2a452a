"""Monte Carlo engine for the plane-by-plane assembly sequence.

One shot runs: stochastic loading until every plane holds enough atoms (or a
timeout), freeze + initial z-stack, per-plane planning and move execution
with transfer/crosstalk losses, final z-stack, and vacuum-lifetime survival
over each atom's held time.  Shots are seeded individually from
``(seed, shot_index)`` so runs are reproducible and shot-parallelisable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import assembler, kernels
from .geometry import PlaneDecomposition, TrapLayout, decompose_planes, validate_mt_safety
from .hologram import Image2D
from .physics import LossModel, default_loss_model, mt_pass_loss


@dataclass(frozen=True)
class TimingModel:
    image_per_plane_ms: float = 60.0
    sort_per_plane_ms: float = 50.0
    per_move_ms: float = 1.0
    mot_dispersal_ms: float = 100.0

    def __post_init__(self):
        for name in ("image_per_plane_ms", "sort_per_plane_ms", "per_move_ms",
                     "mot_dispersal_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CameraModel:
    """Fluorescence imaging model; defaults match a high-NA objective
    (sub-micron in-focus spot, few-um depth of focus) so neighbouring planes
    blur into the background rather than mimicking occupied sites."""

    pixel_scale_um: float = 1.0
    psf_sigma0_um: float = 0.8
    defocus_rayleigh_um: float = 3.0
    peak_counts: float = 200.0
    background_counts: float = 10.0
    noise: str = "none"  # or "poisson"

    def __post_init__(self):
        if self.pixel_scale_um <= 0 or self.psf_sigma0_um <= 0 or self.defocus_rayleigh_um <= 0:
            raise ValueError("camera scales must be positive")
        if self.noise not in ("none", "poisson"):
            raise ValueError("noise must be 'none' or 'poisson'")


@dataclass(frozen=True)
class SafetyParams:
    z_safe_um: float = 17.0
    r_safe_um: float = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    layout: TrapLayout
    decomposition: PlaneDecomposition
    p_load: float = 0.5
    loss: LossModel = field(default_factory=default_loss_model)
    timing: TimingModel = TimingModel()
    camera: CameraModel = CameraModel()
    safety: SafetyParams = SafetyParams()
    planner: assembler.PlannerPolicy = assembler.PlannerPolicy()
    trigger_timeout_s: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p_load <= 1.0):
            raise ValueError("p_load must be in (0, 1]")
        if self.trigger_timeout_s <= 0:
            raise ValueError("trigger_timeout_s must be positive")


def make_config(layout: TrapLayout, epsilon_z: float = 1.0, **kwargs) -> ExperimentConfig:
    """Build a config with the plane decomposition computed from the layout."""
    decomposition = decompose_planes(layout, epsilon_z)
    return ExperimentConfig(layout=layout, decomposition=decomposition, **kwargs)


@dataclass(frozen=True)
class ShotResult:
    shot_index: int
    triggered: bool
    planner_feasible: bool
    initial_occupancy: np.ndarray
    final_occupancy: np.ndarray
    per_plane_moves: tuple[int, ...]
    loading_ms: float
    imaging_ms: float
    sorting_ms: float
    n_targets_filled: int
    fill_fraction: float
    success: bool

    @property
    def duration_ms(self) -> float:
        return self.loading_ms + self.imaging_ms + self.sorting_ms

    @property
    def n_loaded(self) -> int:
        return int(self.initial_occupancy.sum())

    @property
    def total_moves(self) -> int:
        return int(sum(self.per_plane_moves))


@dataclass(frozen=True)
class Statistics:
    shots: int
    triggered: int
    planner_failures: int
    mean_fill: float
    std_fill: float
    per_plane_fill: tuple[float, ...]
    defect_free_prob: float
    mean_cycle_ms: float

    @property
    def rep_rate_hz(self) -> float:
        return 1000.0 / self.mean_cycle_ms if self.mean_cycle_ms > 0 else math.inf


@lru_cache(maxsize=64)
def _checked_safety(layout: TrapLayout, decomp: PlaneDecomposition,
                    z_safe: float, r_safe: float) -> bool:
    return validate_mt_safety(layout, decomp, z_safe, r_safe).passed


class _SimContext:
    """Per-config arrays shared by every shot."""

    def __init__(self, config: ExperimentConfig):
        if not _checked_safety(config.layout, config.decomposition,
                               config.safety.z_safe_um, config.safety.r_safe_um):
            raise ValueError(
                "layout fails moving-tweezers safety validation; rotate the "
                "pattern or increase the plane separation"
            )
        self.config = config
        layout = config.layout
        pos = layout.positions()
        self.xy = pos[:, :2]
        self.z = pos[:, 2]
        self.n = len(layout.traps)
        self.target_mask = np.zeros(self.n, dtype=bool)
        self.target_mask[layout.target_indices()] = True
        self.n_targets = int(self.target_mask.sum())
        decomp = config.decomposition
        self.plane_of = decomp.plane_of(self.n)
        self.n_planes = decomp.n_planes
        self.plane_targets = np.array(
            [sum(1 for i in pl.indices if layout.traps[i].is_target) for pl in decomp.planes]
        )
        self.mt_z = np.array([pl.z_center for pl in decomp.planes])
        self.sorted_planes = [p for p in range(self.n_planes) if self.plane_targets[p] > 0]

    def triggered(self, occ: np.ndarray) -> bool:
        counts = np.bincount(self.plane_of[occ], minlength=self.n_planes)
        return bool(np.all(counts >= self.plane_targets))


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, shot_index))


def simulate_initial_load(layout: TrapLayout, p_load: float, rng) -> np.ndarray:
    """Independent Bernoulli(p_load) occupancy draw, one flag per trap."""
    if not (0.0 <= p_load <= 1.0):
        raise ValueError("p_load must be in [0, 1]")
    return rng.random(len(layout.traps)) < p_load


def _run_plane(ctx: _SimContext, occ: np.ndarray, plane: int,
               plan: assembler.MovePlan, loss: LossModel, rng) -> None:
    """Execute one plane's moves on ``occ`` with crosstalk and transfer losses.

    Before each move, every atom outside the sorted plane is tested once
    against it.  Exposure is evaluated at the move's pick and drop points,
    where the MT dwells at full depth to grab or release; fast transits along
    the path are treated as harmless (the recapture thresholds are measured
    for a dwelling beam, and planned pick/drop sites are laterally offset
    between planes).  Moves stay in their plane, so during the plane those
    atoms can only be lost: their loss probabilities against every move are
    computed up front, and each move draws for the ones still present, in
    ascending trap index, before its transfer draw.
    """
    others = np.zeros(0, dtype=np.intp)
    if loss.crosstalk_enabled:
        others = np.nonzero(occ & (ctx.plane_of != plane))[0]
    if others.size:
        ends = np.array([(m.path[0].x, m.path[0].y, m.path[-1].x, m.path[-1].y)
                         for m in plan.moves]).reshape(-1, 2, 2)
        diff = ctx.xy[others][None, :, None, :] - ends[:, None, :, :]
        dr = np.sqrt(np.einsum("mcek,mcek->mce", diff, diff)).min(axis=2)
        dz = np.abs(ctx.z[others] - ctx.mt_z[plane])
        p_loss = mt_pass_loss(dz, dr, loss.crosstalk)  # move x other-plane atom
    for k, move in enumerate(plan.moves):
        if others.size:
            lost = rng.random(others.size) < p_loss[k]
            if lost.any():
                occ[others[lost]] = False
                others, p_loss = others[~lost], p_loss[:, ~lost]
        present = occ[move.from_index]
        if move.kind == "transfer":
            u = rng.random()
            if present:
                occ[move.from_index] = False
                if u < loss.move_fidelity_eta:
                    occ[move.to_index] = True
        else:  # eject
            occ[move.from_index] = False


def run_shot(config: ExperimentConfig, shot_index: int,
             _ctx: Optional[_SimContext] = None) -> ShotResult:
    """Simulate one full loading/assembly/imaging cycle."""
    ctx = _ctx if _ctx is not None else _SimContext(config)
    rng = shot_rng(config.seed, shot_index)
    timing = config.timing
    loss = config.loss

    # -- loading loop: redraw once per MOT monitoring cycle ------------------
    timeout_ms = config.trigger_timeout_s * 1000.0
    cycle = max(timing.mot_dispersal_ms, 1e-9)
    occ = simulate_initial_load(config.layout, config.p_load, rng)
    loading_ms = timing.mot_dispersal_ms
    while not ctx.triggered(occ):
        if loading_ms + cycle > timeout_ms:
            return ShotResult(
                shot_index=shot_index, triggered=False, planner_feasible=True,
                initial_occupancy=occ.copy(), final_occupancy=occ.copy(),
                per_plane_moves=(), loading_ms=timeout_ms, imaging_ms=0.0,
                sorting_ms=0.0,
                n_targets_filled=int(occ[ctx.target_mask].sum()),
                fill_fraction=float(occ[ctx.target_mask].sum() / max(ctx.n_targets, 1)),
                success=False,
            )
        occ = simulate_initial_load(config.layout, config.p_load, rng)
        loading_ms += timing.mot_dispersal_ms

    snapshot = occ.copy()  # frozen state revealed by the initial z-stack
    occ_true = occ.copy()
    imaging_ms = 2.0 * ctx.n_planes * timing.image_per_plane_ms
    sorting_ms = 0.0
    per_plane_moves = []
    feasible = True

    for plane in ctx.sorted_planes:
        try:
            plan = assembler.plan_plane(
                snapshot, config.layout, config.decomposition, plane, config.planner
            )
        except assembler.PlanInfeasibleError:
            feasible = False
            per_plane_moves.append(0)
            sorting_ms += timing.sort_per_plane_ms
            continue
        per_plane_moves.append(len(plan.moves))
        sorting_ms += timing.sort_per_plane_ms + timing.per_move_ms * len(plan.moves)
        _run_plane(ctx, occ_true, plane, plan, loss, rng)

    # -- lifetime over each atom's held time (freeze to its final image) -----
    if not math.isinf(loss.lifetime_tau_s):
        for plane in range(ctx.n_planes):
            members = np.nonzero(occ_true & (ctx.plane_of == plane))[0]
            if members.size == 0:
                continue
            t_held_ms = (
                ctx.n_planes * timing.image_per_plane_ms
                + sorting_ms
                + (plane + 1) * timing.image_per_plane_ms
            )
            p_survive = math.exp(-t_held_ms / (loss.lifetime_tau_s * 1000.0))
            died = rng.random(members.size) >= p_survive
            occ_true[members[died]] = False

    filled = int(occ_true[ctx.target_mask].sum())
    return ShotResult(
        shot_index=shot_index, triggered=True, planner_feasible=feasible,
        initial_occupancy=snapshot, final_occupancy=occ_true,
        per_plane_moves=tuple(per_plane_moves), loading_ms=loading_ms,
        imaging_ms=imaging_ms, sorting_ms=sorting_ms,
        n_targets_filled=filled,
        fill_fraction=filled / max(ctx.n_targets, 1),
        success=bool(filled == ctx.n_targets),
    )


def iter_shots(config: ExperimentConfig, n_shots: int):
    """Yield ShotResults for shots 0..n_shots-1 (shared per-config context)."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    ctx = _SimContext(config)
    for k in range(n_shots):
        yield run_shot(config, k, _ctx=ctx)


def summarize(config: ExperimentConfig, results: Sequence[ShotResult]) -> Statistics:
    ctx = _SimContext(config)
    fills = [r.fill_fraction for r in results if r.triggered]
    per_plane = []
    for p in range(ctx.n_planes):
        members = (ctx.plane_of == p) & ctx.target_mask
        if members.sum() == 0:
            per_plane.append(1.0)
            continue
        vals = [r.final_occupancy[members].mean() for r in results if r.triggered]
        per_plane.append(float(np.mean(vals)) if vals else 0.0)
    durations = [r.duration_ms for r in results]
    return Statistics(
        shots=len(results),
        triggered=sum(1 for r in results if r.triggered),
        planner_failures=sum(1 for r in results if not r.planner_feasible),
        mean_fill=float(np.mean(fills)) if fills else 0.0,
        std_fill=float(np.std(fills)) if fills else 0.0,
        per_plane_fill=tuple(per_plane),
        defect_free_prob=sum(1 for r in results if r.success) / len(results),
        mean_cycle_ms=float(np.mean(durations)) if durations else 0.0,
    )


def run_experiment(config: ExperimentConfig, n_shots: int) -> Statistics:
    """Run ``n_shots`` independent shots and aggregate; deterministic for a
    fixed config seed."""
    return summarize(config, list(iter_shots(config, n_shots)))


# ---------------------------------------------------------------------------
# analytic oracle (crosstalk disabled)
# ---------------------------------------------------------------------------

def analytic_fill_estimate(config: ExperimentConfig) -> float:
    """Closed-form expected fill fraction for the crosstalk-free loss model.

    Per plane: the conditional pre-fill fraction under the trigger condition,
    the expected move count (transfers plus ejections), the held time to the
    plane's final image, and the per-target success eta^m * exp(-t/tau),
    averaged over planes weighted by target count.
    """
    if config.loss.crosstalk_enabled:
        raise ValueError("analytic estimate requires crosstalk to be disabled")
    ctx = _SimContext(config)
    timing = config.timing
    n_p = ctx.n_planes
    prefill = np.zeros(n_p)
    exp_moves = np.zeros(n_p)
    for p, plane in enumerate(config.decomposition.planes):
        n_traps = len(plane.indices)
        n_t = int(ctx.plane_targets[p])
        if n_t == 0:
            continue
        ks = np.arange(n_traps + 1)
        q = config.p_load
        pmf = np.array([math.comb(n_traps, k) * q**k * (1.0 - q) ** (n_traps - k)
                        for k in range(n_traps + 1)])
        tail = pmf[n_t:]
        if tail.sum() <= 0:
            raise ValueError(f"plane {p} can never satisfy the trigger condition")
        e_k = float((ks[n_t:] * tail).sum() / tail.sum())
        prefill[p] = e_k / n_traps
        # transfers fill the targets not already occupied; surplus is ejected
        exp_moves[p] = n_t * (1.0 - prefill[p]) + (e_k - n_t)
    sort_total = sum(
        timing.sort_per_plane_ms + timing.per_move_ms * exp_moves[p]
        for p in range(n_p) if ctx.plane_targets[p] > 0
    )
    eta = config.loss.move_fidelity_eta
    tau_ms = config.loss.lifetime_tau_s * 1000.0
    total = 0.0
    for p in range(n_p):
        if ctx.plane_targets[p] == 0:
            continue
        t_held = (n_p + p + 1) * timing.image_per_plane_ms + sort_total
        m_bar = 1.0 - prefill[p]
        p_ok = eta**m_bar
        if not math.isinf(tau_ms):
            p_ok *= math.exp(-t_held / tau_ms)
        total += ctx.plane_targets[p] * p_ok
    return total / ctx.n_targets


# ---------------------------------------------------------------------------
# fluorescence synthesis and detection
# ---------------------------------------------------------------------------

def camera_grid(layout: TrapLayout, camera: CameraModel):
    """Deterministic image grid covering the layout with a margin.

    Returns (x0, y0, width, height): the centre of pixel (0, 0) and the image
    size in pixels.
    """
    xy = layout.positions()[:, :2]
    pad = max(5.0 * camera.psf_sigma0_um, 5.0)
    x0 = float(xy[:, 0].min() - pad)
    y0 = float(xy[:, 1].min() - pad)
    width = int(math.ceil((xy[:, 0].max() + pad - x0) / camera.pixel_scale_um)) + 1
    height = int(math.ceil((xy[:, 1].max() + pad - y0) / camera.pixel_scale_um)) + 1
    return x0, y0, width, height


def synthesize_fluorescence_stack(
    occupancy,
    layout: TrapLayout,
    camera: CameraModel,
    z_list: Sequence[float],
    rng=None,
) -> list[Image2D]:
    """Render one fluorescence image per requested focus z.

    Each occupied trap adds its spot from ``_spot_model``, wider and dimmer
    with defocus; Poisson noise is applied when the camera model asks for it
    (an rng is then required).
    """
    if len(z_list) == 0:
        raise ValueError("z_list must not be empty")
    occ = assembler.as_occupancy(occupancy, len(layout.traps))
    if camera.noise == "poisson" and rng is None:
        raise ValueError("poisson noise requires an rng")
    rows, cols = _spot_model(layout, camera, tuple(z_list))
    images = []
    for k in range(len(z_list)):
        img = camera.background_counts + rows[k, occ].T @ cols[k, occ]
        if camera.noise == "poisson":
            img = rng.poisson(img).astype(float)
        images.append(Image2D(img))
    return images


def plane_stack_z(decomp: PlaneDecomposition) -> list[float]:
    """One in-focus image per plane, ascending z."""
    return [pl.z_center for pl in decomp.planes]


@lru_cache(maxsize=16)
def _spot_model(layout: TrapLayout, camera: CameraModel, z_list: tuple[float, ...]):
    """Every trap's spot in each image of a z-stack: ``rows`` (K, n, h), the
    row factors scaled by each spot's peak counts, and ``cols`` (K, n, w),
    the column factors, so trap i's spot in image k is
    ``outer(rows[k, i], cols[k, i])``.  A spot ``dz`` um out of focus is
    d = ``1 + (dz / defocus_rayleigh_um)**2`` times dimmer, sqrt(d) wider."""
    pos = layout.positions()
    x0, y0, width, height = camera_grid(layout, camera)
    scale = camera.pixel_scale_um
    px, py = (pos[:, 0] - x0) / scale, (pos[:, 1] - y0) / scale
    rows, cols = [], []
    for z_img in z_list:
        defocus = 1.0 + ((pos[:, 2] - z_img) / camera.defocus_rayleigh_um) ** 2
        sigmas = camera.psf_sigma0_um * np.sqrt(defocus) / scale
        gy, gx = kernels.spot_factors(px, py, sigmas, height, width)
        rows.append(gy * (camera.peak_counts / defocus)[:, None])
        cols.append(gx)
    return np.stack(rows), np.stack(cols)


@lru_cache(maxsize=16)
def _fit_model(layout: TrapLayout, camera: CameraModel, z_list: tuple[float, ...]):
    """The least-squares model of a z-stack, one amplitude per trap.

    Image k is ``sum_i atoms_i * outer(rows[k, i], cols[k, i])`` with the
    arrays of ``_spot_model``, whose Gram matrix
    ``sum_k (rows_k rows_k^T) * (cols_k cols_k^T)`` is inverted here, so a
    read is one product per image and one mat-vec.  It is cached apart
    because the inverse can fail where rendering must not.
    """
    rows, cols = _spot_model(layout, camera, z_list)
    gram = np.einsum("kij,kij->ij", rows @ rows.transpose(0, 2, 1),
                     cols @ cols.transpose(0, 2, 1))
    return rows, cols, np.linalg.inv(gram)


def detect_occupancy(
    stack: Sequence[Image2D],
    layout: TrapLayout,
    decomp: PlaneDecomposition,
    camera: CameraModel,
) -> np.ndarray:
    """Decide per-trap occupancy from per-plane in-focus images.

    Every trap's amplitude is fitted, in atoms, from all the plane images
    at once: each image, less the background, is modelled as the sum of
    every trap's spot, in focus or defocused as
    ``synthesize_fluorescence_stack`` renders it, and the amplitudes are
    its unweighted least-squares solution.  A trap is occupied when its
    amplitude exceeds half an atom.  The model and its inverse Gram matrix depend only on
    (layout, camera, plane z list) and are cached.
    """
    if len(stack) != decomp.n_planes:
        raise ValueError(f"stack must hold one image per plane ({decomp.n_planes})")
    if camera.peak_counts <= camera.background_counts:
        raise ValueError("ambiguous calibration: background >= single-atom signal")
    rows, cols, gram_inv = _fit_model(layout, camera, tuple(plane_stack_z(decomp)))
    shape = (rows.shape[2], cols.shape[2])
    for img in stack:
        if img.pixels.shape != shape:
            raise ValueError(
                f"image is {img.pixels.shape} pixels; the camera grid is "
                f"(height, width) = {shape}"
            )
    resid = np.stack([img.pixels for img in stack]) - camera.background_counts
    rhs = np.einsum("knw,knw->n", rows @ resid, cols)
    return gram_inv @ rhs > 0.5
