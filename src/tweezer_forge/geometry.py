"""3D trap layouts: presets, JSON import/export, plane decomposition,
moving-tweezers safety checks and rigid rotations.

All coordinates are micrometres; the optical axis is z.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np


class LayoutError(ValueError):
    """A trap layout violates one of its invariants."""


class DecompositionError(ValueError):
    """Plane clustering produced a degenerate (smeared) plane."""


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise LayoutError(f"non-finite coordinate {self!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def distance_to(self, other: "Vec3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class TrapSite:
    position: Vec3
    is_target: bool = True


# field-of-view and density limits every layout must satisfy; larger
# lattices than MAX_TRAPS sites are out of scope
MAX_TRAPS = 200
MIN_PAIR_DISTANCE_UM = 3.0
MAX_LATERAL_UM = 50.0
MAX_AXIAL_UM = 100.0

RESERVOIR_FACTOR = 2.0  # sites per target in each plane after add_reservoir
RESERVOIR_GAP_UM = 5.0  # ring-to-pattern and ring-to-ring spacing
MAX_ROTATION_DEG = 45.0
ROTATION_STEP_DEG = 0.5


@dataclass(frozen=True)
class TrapLayout:
    traps: tuple[TrapSite, ...]
    name: str = "layout"

    def __post_init__(self):
        if len(self.traps) == 0:
            raise LayoutError("layout must contain at least one trap")

    def __hash__(self) -> int:
        # layouts key the planner caches on every planning call and hashing
        # the traps is recursive, so hash once per instance
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.traps, self.name))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # string hashes differ between processes: a copy rehashes
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __len__(self) -> int:
        return len(self.traps)

    def positions(self) -> np.ndarray:
        """All trap positions as an (N, 3) array."""
        return np.array([[t.position.x, t.position.y, t.position.z] for t in self.traps])

    def target_indices(self) -> np.ndarray:
        return np.array([i for i, t in enumerate(self.traps) if t.is_target], dtype=np.intp)

    @property
    def n_targets(self) -> int:
        return sum(1 for t in self.traps if t.is_target)


@dataclass(frozen=True)
class Plane:
    z_center: float
    indices: tuple[int, ...]


@dataclass(frozen=True)
class PlaneDecomposition:
    planes: tuple[Plane, ...]
    epsilon_z: float

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    def plane_of(self, n_traps: int) -> np.ndarray:
        """Trap index -> plane index lookup array."""
        out = np.full(n_traps, -1, dtype=np.intp)
        for p, plane in enumerate(self.planes):
            out[list(plane.indices)] = p
        return out


@dataclass(frozen=True)
class Conflict:
    trap_a: int
    trap_b: int
    lateral_um: float
    axial_um: float


@dataclass(frozen=True)
class SafetyReport:
    conflicts: tuple[Conflict, ...]

    @property
    def passed(self) -> bool:
        return len(self.conflicts) == 0


@dataclass(frozen=True)
class RotationFix:
    axis: str
    angle_deg: float


def validate_layout(layout: TrapLayout) -> TrapLayout:
    """Enforce the layout invariants, returning the layout unchanged."""
    n = len(layout.traps)
    if n > MAX_TRAPS:
        raise LayoutError(f"{n} traps exceeds the {MAX_TRAPS}-trap limit")
    pos = layout.positions()
    lat = np.max(np.abs(pos[:, :2]))
    ax = np.max(np.abs(pos[:, 2]))
    if lat > MAX_LATERAL_UM + 1e-9 or ax > MAX_AXIAL_UM + 1e-9:
        raise LayoutError(
            f"layout exceeds the field of view "
            f"(|x|,|y| <= {MAX_LATERAL_UM} um, |z| <= {MAX_AXIAL_UM} um)"
        )
    if n > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        iu = np.triu_indices(n, k=1)
        bad = dist[iu] < MIN_PAIR_DISTANCE_UM - 1e-9
        if np.any(bad):
            i = int(iu[0][np.argmax(bad)])
            j = int(iu[1][np.argmax(bad)])
            raise LayoutError(
                f"traps {i} and {j} are {dist[i, j]:.3f} um apart "
                f"(minimum {MIN_PAIR_DISTANCE_UM} um)"
            )
    return layout


def _centered(points: np.ndarray) -> np.ndarray:
    return points - points.mean(axis=0)


def _layout_from_points(points, name, is_target=None) -> TrapLayout:
    if is_target is None:
        is_target = [True] * len(points)
    traps = tuple(
        TrapSite(Vec3(float(p[0]), float(p[1]), float(p[2])), is_target=bool(t))
        for p, t in zip(points, is_target)
    )
    return validate_layout(TrapLayout(traps, name=name))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _preset_cubic(n=(5, 5, 5), spacing=(10.0, 10.0, 17.0)):
    nx, ny, nz = n
    ax, ay, az = spacing
    pts = [
        (i * ax, j * ay, k * az)
        for k in range(nz)
        for j in range(ny)
        for i in range(nx)
    ]
    return _centered(np.array(pts, dtype=float))


def _preset_bilayer_square_offset(n=(6, 6), spacing=4.0, dz=5.0):
    nx, ny = n
    a = float(spacing)
    layer = np.array([(i * a, j * a, 0.0) for j in range(ny) for i in range(nx)])
    top = layer + np.array([a / 2.0, a / 2.0, dz])
    return _centered(np.vstack([layer, top]))


def _preset_bilayer_graphene(n=(3, 2), bond=4.0, dz=17.0):
    # honeycomb patch of n1 x n2 unit cells, AB (Bernal) stacked
    n1, n2 = n
    a = float(bond)
    a1 = np.array([1.5 * a, math.sqrt(3.0) / 2.0 * a])
    a2 = np.array([1.5 * a, -math.sqrt(3.0) / 2.0 * a])
    basis = [np.array([0.0, 0.0]), np.array([a, 0.0])]
    layer = []
    for i in range(n1):
        for j in range(n2):
            origin = i * a1 + j * a2
            for b in basis:
                p = origin + b
                layer.append((p[0], p[1], 0.0))
    layer = np.array(layer)
    top = layer + np.array([a, 0.0, dz])
    return _centered(np.vstack([layer, top]))


def _preset_pyrochlore(n=(1, 1, 1), cell=16.0):
    a = float(cell)
    fcc = np.array([(0, 0, 0), (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)])
    basis = np.array([(0, 0, 0), (0.25, 0.25, 0), (0.25, 0, 0.25), (0, 0.25, 0.25)])
    pts = []
    for i in range(n[0]):
        for j in range(n[1]):
            for k in range(n[2]):
                cell_origin = np.array([i, j, k], dtype=float)
                for f in fcc:
                    for b in basis:
                        pts.append((cell_origin + f + b) * a)
    pts = np.unique(np.round(np.array(pts), 9), axis=0)
    return _centered(pts)


def _preset_ring_cylinder(sites=8, rings=3, radius=12.0, dz=17.0, twist_deg=None):
    if twist_deg is None:
        twist_deg = 180.0 / sites  # stagger rings so sites never stack axially
    pts = []
    for k in range(rings):
        phase = math.radians(twist_deg) * k
        for i in range(sites):
            t = 2.0 * math.pi * i / sites + phase
            pts.append((radius * math.cos(t), radius * math.sin(t), k * dz))
    return _centered(np.array(pts))


def _preset_trefoil_knot(sites=60, scale=20.0):
    t = np.linspace(0.0, 2.0 * np.pi, sites, endpoint=False)
    raw = np.stack(
        [np.sin(t) + 2.0 * np.sin(2.0 * t), np.cos(t) - 2.0 * np.cos(2.0 * t), -np.sin(3.0 * t)],
        axis=1,
    )
    # scale = rms lateral radius; the raw curve has r^2(t) = 5 - 4 cos(3t)
    return _centered(raw * (scale / math.sqrt(5.0)))


_PRESETS = {
    "cubic": _preset_cubic,
    "bilayer_square_offset": _preset_bilayer_square_offset,
    "bilayer_graphene": _preset_bilayer_graphene,
    "pyrochlore": _preset_pyrochlore,
    "ring_cylinder": _preset_ring_cylinder,
    "trefoil_knot": _preset_trefoil_knot,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def generate_preset(
    preset: str,
    *,
    reservoir: bool = False,
    epsilon_z: float = 1.0,
    **params,
) -> TrapLayout:
    """Build one of the named deterministic layouts, centred on the origin.

    With ``reservoir=True``, ``add_reservoir`` adds peripheral sites
    (``is_target=False``) to the planes ``epsilon_z`` clusters.
    """
    if preset not in _PRESETS:
        raise LayoutError(f"unknown preset {preset!r} (choose from {', '.join(PRESET_NAMES)})")
    for key, value in params.items():
        if key in ("spacing", "bond", "cell", "radius", "dz", "scale", "twist_deg"):
            vals = value if isinstance(value, (tuple, list)) else (value,)
            if any(v is not None and v <= 0 for v in vals if not isinstance(v, bool)):
                raise LayoutError(f"preset parameter {key!r} must be positive")
        if key in ("n", "sites", "rings"):
            vals = value if isinstance(value, (tuple, list)) else (value,)
            if any(int(v) < 1 for v in vals):
                raise LayoutError(f"preset parameter {key!r} must be >= 1")
    points = _PRESETS[preset](**params)
    layout = _layout_from_points(points, name=preset)
    if reservoir:
        layout = add_reservoir(layout, epsilon_z)
    return layout


def add_reservoir(layout: TrapLayout, epsilon_z: float = 1.0) -> TrapLayout:
    """Add peripheral reservoir sites so each plane holds at least
    ``RESERVOIR_FACTOR`` x its targets.

    Each plane's reservoir sits on a ring in that plane, concentric around the
    layout's lateral centroid.  Ring radii step outward by
    ``RESERVOIR_GAP_UM`` per plane and ring sites keep a ``RESERVOIR_GAP_UM``
    chord spacing, so every reservoir site stays at least that far laterally
    from all pattern sites and the corridors between ring sites stay wide
    enough for the moving tweezers.
    """
    decomp = decompose_planes(layout, epsilon_z)
    pos = layout.positions()
    center = pos[:, :2].mean(axis=0)
    r_all = float(np.max(np.hypot(*(pos[:, :2] - center).T)))
    needed = []
    for plane in decomp.planes:
        idx = list(plane.indices)
        n_targets = sum(1 for i in idx if layout.traps[i].is_target)
        needed.append(max(0, math.ceil(RESERVOIR_FACTOR * n_targets) - len(idx)))
    base = r_all + RESERVOIR_GAP_UM
    if any(needed):
        # chord spacing (not arc) so inter-site corridors keep full width
        base = max(base, RESERVOIR_GAP_UM / (2.0 * math.sin(math.pi / max(needed))))
    new_sites: list[TrapSite] = list(layout.traps)
    for p, plane in enumerate(decomp.planes):
        if needed[p] == 0:
            continue
        radius = base + p * RESERVOIR_GAP_UM
        offset = 0.37 * p  # angular stagger between planes, radians
        for i in range(needed[p]):
            t = 2.0 * math.pi * i / needed[p] + offset
            new_sites.append(
                TrapSite(
                    Vec3(
                        center[0] + radius * math.cos(t),
                        center[1] + radius * math.sin(t),
                        plane.z_center,
                    ),
                    is_target=False,
                )
            )
    return validate_layout(TrapLayout(tuple(new_sites), name=layout.name))


# ---------------------------------------------------------------------------
# JSON import/export
# ---------------------------------------------------------------------------

_TRAP_KEYS = {"x_um", "y_um", "z_um", "is_target"}


def load_layout(path) -> TrapLayout:
    """Read a layout JSON file; plane indices are never read from disk."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise LayoutError(f"cannot parse {path}: {exc}") from exc
    return layout_from_dict(doc)


def layout_from_dict(doc: dict) -> TrapLayout:
    if not isinstance(doc, dict) or set(doc) != {"name", "traps"}:
        raise LayoutError('layout document must have exactly the keys "name" and "traps"')
    if not isinstance(doc["traps"], list):
        raise LayoutError('layout "traps" must be a list')
    traps = []
    for i, entry in enumerate(doc["traps"]):
        if not isinstance(entry, dict) or set(entry) != _TRAP_KEYS:
            raise LayoutError(f"trap {i} must have exactly the keys {sorted(_TRAP_KEYS)}")
        try:
            x, y, z = (float(entry[k]) for k in ("x_um", "y_um", "z_um"))
        except (TypeError, ValueError) as exc:
            raise LayoutError(f"trap {i} coordinates must be numbers ({exc})") from exc
        traps.append(TrapSite(Vec3(x, y, z), is_target=bool(entry["is_target"])))
    return validate_layout(TrapLayout(tuple(traps), name=str(doc["name"])))


def layout_to_dict(layout: TrapLayout) -> dict:
    return {
        "name": layout.name,
        "traps": [
            {
                "x_um": t.position.x,
                "y_um": t.position.y,
                "z_um": t.position.z,
                "is_target": t.is_target,
            }
            for t in layout.traps
        ],
    }


def save_layout(layout: TrapLayout, path) -> None:
    Path(path).write_text(json.dumps(layout_to_dict(layout), indent=2) + "\n")


# ---------------------------------------------------------------------------
# plane decomposition and MT safety
# ---------------------------------------------------------------------------

def decompose_planes(layout: TrapLayout, epsilon_z: float = 1.0) -> PlaneDecomposition:
    """Cluster traps into z-planes by single linkage: traps share a plane iff
    they are connected through z-gaps <= epsilon_z."""
    if epsilon_z < 0:
        raise ValueError("epsilon_z must be >= 0")
    z = layout.positions()[:, 2]
    order = np.argsort(z, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if z[cur] - z[prev] <= epsilon_z:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    planes = []
    for members in groups:
        zs = z[members]
        spread = float(zs.max() - zs.min())
        if spread > 2.0 * epsilon_z:
            raise DecompositionError(
                f"plane spanning z=[{zs.min():.2f}, {zs.max():.2f}] um has spread "
                f"{spread:.2f} um > 2*epsilon_z = {2 * epsilon_z:.2f} um"
            )
        planes.append(Plane(z_center=float((zs.max() + zs.min()) / 2.0), indices=tuple(sorted(members))))
    return PlaneDecomposition(planes=tuple(planes), epsilon_z=float(epsilon_z))


def validate_mt_safety(
    layout: TrapLayout,
    decomp: PlaneDecomposition,
    z_safe: float = 17.0,
    r_safe: float = 3.0,
) -> SafetyReport:
    """Flag trap pairs in different planes that are both laterally and axially
    too close for undisturbed moving-tweezers operation.

    A pair conflicts iff lateral distance < r_safe AND axial distance < z_safe;
    membership comes from ``decomp``, distances from the trap positions.
    """
    if z_safe <= 0 or r_safe <= 0:
        raise ValueError("z_safe and r_safe must be positive")
    pos = layout.positions()
    plane_of = decomp.plane_of(len(layout.traps))
    lateral = np.hypot(
        pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1]
    )
    axial = np.abs(pos[:, None, 2] - pos[None, :, 2])
    bad = (
        (lateral < r_safe)
        & (axial < z_safe)
        & (plane_of[:, None] != plane_of[None, :])
        & (np.arange(len(layout.traps))[:, None] < np.arange(len(layout.traps))[None, :])
    )
    conflicts = tuple(
        Conflict(int(i), int(j), float(lateral[i, j]), float(axial[i, j]))
        for i, j in zip(*np.nonzero(bad))
    )
    return SafetyReport(conflicts=conflicts)


def rotate_layout(layout: TrapLayout, axis: str, angle_deg: float) -> TrapLayout:
    """Rigidly rotate the layout about the x or y axis through its centroid."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if abs(angle_deg) > MAX_ROTATION_DEG:
        raise ValueError("|angle| must be <= 45 degrees")
    pos = layout.positions()
    centroid = pos.mean(axis=0)
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    if axis == "x":
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
    else:
        rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)
    new_pos = (pos - centroid) @ rot.T + centroid
    traps = tuple(
        TrapSite(
            Vec3(float(p[0]), float(p[1]), float(p[2])),
            is_target=t.is_target,
        )
        for p, t in zip(new_pos, layout.traps)
    )
    return validate_layout(TrapLayout(traps, name=layout.name))


def suggest_rotation(
    layout: TrapLayout,
    z_safe: float = 17.0,
    r_safe: float = 3.0,
    decomposition: Optional[PlaneDecomposition] = None,
) -> Optional[RotationFix]:
    """Smallest-magnitude global rotation that clears all MT safety conflicts.

    Plane membership (``decomposition``, by default 1 um clustering) is held
    fixed while candidate rotations are scanned in ``ROTATION_STEP_DEG``
    increments (x before y, positive before negative at each magnitude).
    Returns None when no angle within ``MAX_ROTATION_DEG`` passes.
    """
    if decomposition is None:
        decomposition = decompose_planes(layout)
    n_steps = int(round(MAX_ROTATION_DEG / ROTATION_STEP_DEG))
    for k in range(n_steps + 1):
        magnitude = k * ROTATION_STEP_DEG
        signs = (1.0,) if k == 0 else (1.0, -1.0)
        for axis in ("x", "y"):
            for sign in signs:
                angle = sign * magnitude
                try:
                    candidate = rotate_layout(layout, axis, angle)
                except LayoutError:
                    continue
                if validate_mt_safety(candidate, decomposition, z_safe, r_safe).passed:
                    return RotationFix(axis=axis, angle_deg=angle)
            if k == 0:
                break  # 0 degrees is axis-independent
    return None
