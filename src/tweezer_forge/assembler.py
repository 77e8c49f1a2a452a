"""Deterministic move planning: minimum-cost assignment, collision-aware
ordering, surplus ejection and whole-array plane-by-plane plans.

Plans are geometric and deterministic; stochastic execution lives in the
simulator.  All moves stay within their plane (inter-plane transfers are out
of scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .geometry import PlaneDecomposition, TrapLayout, Vec3


class PlanInfeasibleError(RuntimeError):
    """A plane holds fewer atoms than it has targets."""


class ExecutabilityError(RuntimeError):
    """A plan replay lifted from an empty trap or dropped onto a full one."""

    def __init__(self, message: str, move_index: int):
        super().__init__(message)
        self.move_index = move_index


@dataclass(frozen=True)
class PlannerPolicy:
    collision_radius_um: float = 2.0
    # other-plane trap sites nearer than this to the MT plane are corridor
    # junctions (always free); occupancy in other planes never affects paths
    z_clearance_um: float = 17.0
    cost_metric: str = "euclidean"  # or "squared_euclidean"
    eject_margin_um: float = 20.0
    fov_lateral_um: float = 50.0

    def __post_init__(self):
        if self.cost_metric not in ("euclidean", "squared_euclidean"):
            raise ValueError("cost_metric must be 'euclidean' or 'squared_euclidean'")


@dataclass(frozen=True)
class Move:
    kind: str  # "transfer" | "eject"
    from_index: int
    to_index: Optional[int]  # None for ejections
    exit_um: Optional[tuple[float, float]]  # set for ejections
    path: tuple[Vec3, ...]

    def path_length_um(self) -> float:
        pts = self.path
        return sum(pts[i].distance_to(pts[i + 1]) for i in range(len(pts) - 1))


@dataclass(frozen=True)
class MovePlan:
    plane_index: int
    mt_z_um: float
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class AssemblyPlan:
    plans: tuple[MovePlan, ...]

    @property
    def total_moves(self) -> int:
        return sum(len(p.moves) for p in self.plans)

    @property
    def total_path_um(self) -> float:
        return sum(m.path_length_um() for p in self.plans for m in p.moves)


def as_occupancy(values, n_traps: int) -> np.ndarray:
    occ = np.asarray(values, dtype=bool)
    if occ.shape != (n_traps,):
        raise ValueError(f"occupancy must have one flag per trap ({n_traps})")
    return occ


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost matching on a rectangular cost matrix.

    Rows are targets, columns are sources (n_cols >= n_rows); returns the
    chosen column for each row.
    """
    # deferred: scipy.optimize takes longer to import than the whole package
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[1] < cost.shape[0]:
        raise ValueError("cost matrix needs at least as many sources as targets")
    rows, cols = linear_sum_assignment(cost)
    out = np.empty(cost.shape[0], dtype=np.intp)
    out[rows] = cols
    return out


def _as_points(points) -> np.ndarray:
    if len(points) and isinstance(points[0], Vec3):
        return np.array([[p.x, p.y, p.z] for p in points])
    return np.asarray(points, dtype=float)


def assignment_min_cost(sources, targets, metric: str = "euclidean") -> np.ndarray:
    """Match each target to a distinct source, minimising total path length.

    Sources sitting exactly on a target are matched to themselves first (zero
    cost); the rest is solved exactly.  Returns source indices, one per target.
    """
    src = _as_points(sources)
    tgt = _as_points(targets)
    if src.shape[0] < tgt.shape[0]:
        raise ValueError(f"need >= {tgt.shape[0]} sources, got {src.shape[0]}")
    diff = tgt[:, None, :] - src[None, :, :]
    cost = np.sqrt(np.einsum("tsk,tsk->ts", diff, diff))

    result = np.full(tgt.shape[0], -1, dtype=np.intp)
    taken = np.zeros(src.shape[0], dtype=bool)
    for t, s in zip(*np.nonzero(cost < 1e-12)):
        if result[t] < 0 and not taken[s]:
            result[t] = s
            taken[s] = True
    free_tgt = np.nonzero(result < 0)[0]
    free_src = np.nonzero(~taken)[0]
    if free_tgt.size:
        sub = cost[np.ix_(free_tgt, free_src)]
        if metric == "squared_euclidean":
            sub = sub**2
        cols = solve_assignment(sub)
        result[free_tgt] = free_src[cols]
    return result


# ---------------------------------------------------------------------------
# static plane table (cached per layout/plane/policy)
# ---------------------------------------------------------------------------

_GRAPH_REACH_UM = 8.0  # covers one lattice step or diagonal
# entries per memo, keyed by route endpoints: a plane of n traps has at most
# about 2 n^2 endpoint pairs (10k for a bilayer72 plane)
_MEMO_LIMIT = 16_384


class _PlaneTable:
    """Planner geometry of one plane, fixed by (layout, plane, policy).

    Nodes are the in-plane ("hard") trap sites followed by the other-plane
    junction sites within the axial clearance; a node's position in that
    order indexes every table below.  The in-plane nodes are the only
    possible blockers: the simulator charges other-plane atoms at a move's
    pick and drop points, never along its path.  Every segment the
    scheduler tests joins fixed points (trap sites, eject exits and the
    detour waypoints of a pair), so which in-plane traps can block it is
    computed once here; a planning call only applies the occupancy.

    The corridor graph joins nodes within ``_GRAPH_REACH_UM``.  Trap sites
    sit in the middle of lattice corridors, so hopping across empty sites
    follows the corridors exactly; other-plane sites are junctions that are
    always free, whatever their occupancy.  An edge is unusable while an
    in-plane trap it passes (other than its ends) is occupied.  The
    breadth-first corridor search visits each level's nodes in trap order
    (``by_trap``), so its ties break on trap index.
    """

    def __init__(self, layout: TrapLayout, hard_key: tuple, mt_z: float,
                 policy: PlannerPolicy):
        pos = layout.positions()
        n = len(layout.traps)
        self.mt_z = mt_z
        self.policy = policy
        self.radius = policy.collision_radius_um
        self.xy = pos[:, :2]
        self.is_target = np.array([t.is_target for t in layout.traps])
        hard = np.zeros(n, dtype=bool)
        hard[list(hard_key)] = True
        junction = (np.abs(pos[:, 2] - mt_z) < policy.z_clearance_um) & ~hard
        self.nodes = np.concatenate([np.nonzero(hard)[0], np.nonzero(junction)[0]])
        self.node_ids = self.nodes.tolist()
        self.n_hard = int(hard.sum())
        self.node_of = np.full(n, -1, dtype=np.intp)
        self.node_of[self.nodes] = np.arange(self.nodes.size)
        self.node_xy = self.xy[self.nodes]

        pts = self.node_xy
        d2 = np.einsum("ijk,ijk->ij", pts[:, None] - pts[None, :], pts[:, None] - pts[None, :])
        self.edge_i, self.edge_j = np.nonzero(np.triu(d2 <= _GRAPH_REACH_UM**2, k=1))
        close = self._blockers(pts[self.edge_i], pts[self.edge_j])
        for ends in (self.edge_i, self.edge_j):  # an edge's own ends
            own = ends < self.n_hard
            close[ends[own], np.nonzero(own)[0]] = False
        self.edge_hard = close.T.astype(float)  # edge x in-plane trap
        self.by_trap = np.argsort(self.nodes)  # node positions in trap order
        self._legs: dict = {}
        self._straights: dict = {}
        self._detours: dict = {}

    @staticmethod
    def _memo(store: dict, key, build):
        value = store.get(key)
        if value is None:
            if len(store) >= _MEMO_LIMIT:
                store.clear()
            value = store[key] = build()
        return value

    def _blockers(self, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
        """In-plane node x segment: True where the node lies within the
        collision radius of the segment."""
        hard_xy = self.node_xy[:self.n_hard]
        return kernels.segment_point_distances(hard_xy, seg_a, seg_b) < self.radius

    def legs(self, point: np.ndarray, outbound: bool) -> np.ndarray:
        """In-plane blockers (in-plane node x node) of the legs point -> node
        (``outbound``) or node -> point."""
        def build():
            ends = np.repeat(point[None, :], self.node_xy.shape[0], 0)
            seg_a, seg_b = (ends, self.node_xy) if outbound else (self.node_xy, ends)
            return self._blockers(seg_a, seg_b)
        return self._memo(self._legs, (point.tobytes(), outbound), build)

    def straight(self, a_xy: np.ndarray, b_xy: np.ndarray) -> np.ndarray:
        """In-plane blockers (one flag per in-plane node) of the straight
        leg a -> b."""
        def build():
            return self._blockers(a_xy[None, :], b_xy[None, :])[:, 0]
        return self._memo(self._straights, (a_xy.tobytes(), b_xy.tobytes()), build)

    def detour(self, a_xy: np.ndarray, b_xy: np.ndarray):
        """Single-waypoint detour candidates of a pair and what blocks them.

        Returns (cands, rows, blocked): the waypoints inside the field of
        view, and for each in-plane node ``rows`` within the collision radius
        of the leg a -> cand or cand -> b of some candidate, which candidates
        it blocks (m columns).
        """
        def build():
            seg = b_xy - a_xy
            seg_len = float(np.hypot(*seg))
            if seg_len < 1e-12:
                cands = np.zeros((0, 2))
            else:
                perp = np.array([-seg[1], seg[0]]) / seg_len
                offs = np.array([1.0, 1.5, 2.2, 3.0, 4.5]) * self.radius
                fracs = np.array([0.5, 0.3, 0.7])
                anchors = a_xy[None, :] + fracs[:, None] * seg[None, :]
                cands = (anchors[None, :, None, :]
                         + (offs[:, None, None, None] * np.array([1.0, -1.0])[None, None, :, None])
                         * perp[None, None, None, :]).reshape(-1, 2)
                cands = cands[np.abs(cands).max(axis=1) <= self.policy.fov_lateral_um]
            m = cands.shape[0]
            close = self._blockers(np.concatenate([np.repeat(a_xy[None, :], m, 0), cands]),
                                   np.concatenate([cands, np.repeat(b_xy[None, :], m, 0)]))
            blocked = close[:, :m] | close[:, m:]
            rows = np.nonzero(blocked.any(axis=1))[0]
            return cands, rows, blocked[rows]
        return self._memo(self._detours, (a_xy.tobytes(), b_xy.tobytes()), build)

    @cached_property
    def exits(self) -> np.ndarray:
        """Eject exit of each in-plane node (rows in node order): the nearest
        point ``eject_margin_um`` outside the convex hull of the plane's
        traps, clamped into the field of view."""
        plane_xy = self.node_xy[:self.n_hard]
        margin, fov = self.policy.eject_margin_um, self.policy.fov_lateral_um
        hull = _convex_hull(plane_xy)
        if hull.shape[0] == 1:
            return np.clip(plane_xy + np.array([margin, 0.0]), -fov, fov)
        edges = [(hull[i], hull[(i + 1) % hull.shape[0]]) for i in range(hull.shape[0])]
        if hull.shape[0] == 2:
            edges = edges[:1]
        centroid = hull.mean(axis=0)
        return np.array([_exit_point(p, edges, centroid, margin, fov) for p in plane_xy])


@lru_cache(maxsize=32)
def _plane_table(layout: TrapLayout, hard_key: tuple, mt_z: float,
                 policy: PlannerPolicy) -> _PlaneTable:
    return _PlaneTable(layout, hard_key, mt_z, policy)


# ---------------------------------------------------------------------------
# eject exit geometry
# ---------------------------------------------------------------------------

def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices counter-clockwise.

    Collinear inputs yield the two extreme points; a single point yields
    itself.
    """
    pts = np.unique(np.round(points, 12), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # collinear
        return np.array([pts[0], pts[-1]])
    return np.array(hull)


def _exit_point(p: np.ndarray, edges, centroid: np.ndarray, margin: float,
                fov: float) -> np.ndarray:
    """Nearest point ``margin`` um outside the hull with these edges,
    clamped into the field of view."""
    best = None
    for a, b in edges:
        d = b - a
        dd = float(d @ d)
        t = float(np.clip((p - a) @ d / dd, 0.0, 1.0)) if dd > 0 else 0.0
        q = a + t * d
        dist = float(np.hypot(*(q - p)))
        if best is None or dist < best[0]:
            best = (dist, q, d)
    dist, q, d = best
    if dist > 1e-9:
        normal = (q - p) / dist  # p is inside the hull: outward direction
    else:
        normal = np.array([d[1], -d[0]])  # boundary point: edge normal
        norm = float(np.hypot(*normal))
        normal = normal / norm if norm > 0 else np.array([1.0, 0.0])
        if normal @ (q - centroid) < 0:
            normal = -normal
    return np.clip(q + margin * normal, -fov, fov)


# ---------------------------------------------------------------------------
# collision-aware scheduling
# ---------------------------------------------------------------------------

class _Pending(NamedTuple):
    """A move waiting to run.  An ejection has no ``dst``; its ``end`` is its
    exit.  ``near_hard`` are the in-plane traps, other than ``exclude``,
    close enough to ever block the straight leg; occupancy is applied at
    scheduling time."""
    src: int
    dst: Optional[int]
    end: np.ndarray
    exclude: tuple[int, ...]
    near_hard: list[int]


class _Scheduler:
    """Orders a plane's moves and keeps the MT clear of occupied bystander
    traps in the plane being sorted.

    In-plane occupied traps are collision constraints: a blocked move is
    deferred when the blocker will be vacated by a pending move, otherwise the
    path is routed around it (single waypoint, then a corridor search through
    empty trap sites and other-plane junctions).  Atoms in other planes are
    no obstacle: the simulator charges them at a move's pick and drop
    points, which the matching fixes, and never along its path.
    """

    def __init__(self, table: _PlaneTable, occupancy: np.ndarray):
        self.table = table
        self.xy = table.xy
        self.occ = occupancy.copy()
        self.occ_hard = self.occ[table.nodes[:table.n_hard]]  # in-plane nodes
        self.out: list[Move] = []

    # -- moves ---------------------------------------------------------------

    def _pending(self, src: int, dst: Optional[int], end: np.ndarray) -> _Pending:
        exclude = (src,) if dst is None else (src, dst)
        t = self.table
        near = t.nodes[:t.n_hard][t.straight(self.xy[src], end)].tolist()
        return _Pending(src, dst, end, exclude, [c for c in near if c not in exclude])

    def transfer(self, src: int, dst: int) -> _Pending:
        return self._pending(src, dst, self.xy[dst])

    def eject(self, src: int) -> _Pending:
        return self._pending(src, None, self.table.exits[self.table.node_of[src]])

    # -- routing -------------------------------------------------------------

    def _corridor_route(self, a_xy, b_xy, live, free):
        """Fewest-hop route a -> (free nodes) -> b along corridor edges.

        A leg or edge is usable unless an occupied in-plane trap (``live``
        for the legs, any for the edges) blocks it.  Free nodes are the
        empty in-plane sites outside the move and every other-plane
        junction.  The caller tries the direct a -> b leg first, so the
        route has at least one node.  The search is breadth-first, one
        level of nodes at a time in trap order: the first node of a level
        with a usable leg to b is the last hop, and a node's predecessor
        is the first node of the previous level that reaches it.  Returns
        None when the in-plane atoms disconnect a from b.
        """
        t = self.table
        seen = free & ~t.legs(a_xy, outbound=True)[live].any(axis=0)
        to_b = ~t.legs(b_xy, outbound=False)[live].any(axis=0)
        ok = free[t.edge_i] & free[t.edge_j] & (t.edge_hard @ self.occ_hard == 0)
        adj = np.zeros((free.size, free.size), dtype=bool)
        adj[t.edge_i[ok], t.edge_j[ok]] = True
        adj |= adj.T
        prev = np.full(free.size, -1)
        level = t.by_trap[seen[t.by_trap]]
        while level.size:
            last = level[to_b[level]]
            if last.size:
                hops = [int(last[0])]
                while prev[hops[-1]] >= 0:
                    hops.append(int(prev[hops[-1]]))
                return [a_xy] + [t.node_xy[p] for p in reversed(hops)] + [b_xy]
            reach = adj[level] & ~seen
            new = reach.any(axis=0)
            prev[new] = level[reach[:, new].argmax(axis=0)]
            seen |= new
            level = t.by_trap[new[t.by_trap]]
        return None

    def _route(self, m: _Pending) -> list:
        """Path of ``m`` honouring the in-plane collision rule.

        The first that applies: the straight leg when no occupied in-plane
        trap is near it; the first single-waypoint detour clear of every
        occupied in-plane trap; the corridor search; the straight leg anyway
        (least-bad: the close pass is accepted).
        """
        t = self.table
        a_xy, b_xy = self.xy[m.src], m.end
        if not any(self.occ[c] for c in m.near_hard):
            return [a_xy, b_xy]
        excluded = np.zeros(t.n_hard, dtype=bool)
        pos = t.node_of[list(m.exclude)]
        excluded[pos[(pos >= 0) & (pos < t.n_hard)]] = True
        live = self.occ_hard & ~excluded

        cands, rows, blocked = t.detour(a_xy, b_xy)
        clear = ~blocked[live[rows]].any(axis=0)
        if clear.any():
            return [a_xy, cands[int(np.argmax(clear))], b_xy]
        free = np.ones(len(t.node_ids), dtype=bool)
        free[:t.n_hard] = ~self.occ_hard & ~excluded
        path = self._corridor_route(a_xy, b_xy, live, free)
        return [a_xy, b_xy] if path is None else path

    # -- emission ------------------------------------------------------------

    def _set_occ(self, trap: int, value: bool) -> None:
        self.occ[trap] = value
        node = self.table.node_of[trap]
        if 0 <= node < self.table.n_hard:
            self.occ_hard[node] = value

    def _emit(self, m: _Pending) -> None:
        path = tuple(Vec3(float(w[0]), float(w[1]), self.table.mt_z) for w in self._route(m))
        if m.dst is None:
            self.out.append(Move(kind="eject", from_index=m.src, to_index=None,
                                 exit_um=(float(m.end[0]), float(m.end[1])), path=path))
        else:
            self.out.append(Move(kind="transfer", from_index=m.src, to_index=m.dst,
                                 exit_um=None, path=path))
            self._set_occ(m.dst, True)
        self._set_occ(m.src, False)

    # -- main loop -----------------------------------------------------------

    def schedule(self, moves: Sequence[_Pending]) -> None:
        """Emit ``moves``: each pass the first whose straight leg passes no
        pending move's source, or the first if every one is blocked so."""
        # every pending source is loaded and every destination is an empty
        # target (plan_plane's matching), so each move is executable as it
        # stands and a pending source is an occupied trap
        pending = list(moves)
        while pending:
            srcs = {m.src for m in pending}
            i = next((i for i, m in enumerate(pending) if srcs.isdisjoint(m.near_hard)), 0)
            self._emit(pending.pop(i))


# ---------------------------------------------------------------------------
# plane-level planning
# ---------------------------------------------------------------------------

def plan_plane(
    occupancy,
    layout: TrapLayout,
    decomposition: PlaneDecomposition,
    plane_index: int,
    policy: PlannerPolicy = PlannerPolicy(),
) -> MovePlan:
    """Assignment, ordered transfers, then surplus ejections for one plane."""
    occ = as_occupancy(occupancy, len(layout.traps))
    plane = decomposition.planes[plane_index]
    idx = list(plane.indices)
    table = _plane_table(layout, plane.indices, plane.z_center, policy)
    xy = table.xy

    loaded = [i for i in idx if occ[i]]
    targets = [i for i in idx if table.is_target[i]]
    if len(loaded) < len(targets):
        raise PlanInfeasibleError(
            f"plane {plane_index} holds {len(loaded)} atoms for {len(targets)} targets"
        )

    empty_targets = [t for t in targets if not occ[t]]
    free_sources = [s for s in loaded if not table.is_target[s]]
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    if empty_targets:
        match = assignment_min_cost(
            xy[free_sources], xy[empty_targets], metric=policy.cost_metric
        )
        for row, tgt in enumerate(empty_targets):
            src = free_sources[match[row]]
            pairs.append((src, tgt))
            used.add(src)
    surplus = [s for s in free_sources if s not in used]

    sched = _Scheduler(table, occ)
    sched.schedule([sched.transfer(src, dst) for src, dst in pairs])
    sched.schedule([sched.eject(src) for src in surplus])
    return MovePlan(plane_index=plane_index, mt_z_um=plane.z_center, moves=tuple(sched.out))


def plan_assembly(
    occupancy,
    layout: TrapLayout,
    decomposition: PlaneDecomposition,
    policy: PlannerPolicy = PlannerPolicy(),
) -> AssemblyPlan:
    """Per-plane plans in ascending z order, one per plane with >= 1 target."""
    occ = as_occupancy(occupancy, len(layout.traps))
    plans = []
    for p, plane in enumerate(decomposition.planes):
        if not any(layout.traps[i].is_target for i in plane.indices):
            continue
        plans.append(plan_plane(occ, layout, decomposition, p, policy))
    return AssemblyPlan(plans=tuple(plans))


def apply_plan_lossless(occupancy, plan) -> np.ndarray:
    """Replay a MovePlan or AssemblyPlan with no losses, validating
    executability; returns the resulting occupancy."""
    moves: list[Move] = []
    if isinstance(plan, AssemblyPlan):
        for sub in plan.plans:
            moves.extend(sub.moves)
    else:
        moves = list(plan.moves)
    occ = np.array(occupancy, dtype=bool).copy()
    for k, move in enumerate(moves):
        if not occ[move.from_index]:
            raise ExecutabilityError(f"move {k} lifts from empty trap {move.from_index}", k)
        if move.kind == "transfer":
            if occ[move.to_index]:
                raise ExecutabilityError(f"move {k} drops onto occupied trap {move.to_index}", k)
            occ[move.from_index] = False
            occ[move.to_index] = True
        elif move.kind == "eject":
            occ[move.from_index] = False
        else:
            raise ValueError(f"unknown move kind {move.kind!r}")
    return occ


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def plan_to_dict(plan: AssemblyPlan) -> dict:
    return {
        "planes": [
            {
                "plane": p.plane_index,
                "mt_z_um": p.mt_z_um,
                "moves": [
                    {
                        "kind": m.kind,
                        "from": m.from_index,
                        "to": m.to_index,
                        "exit_um": list(m.exit_um) if m.exit_um is not None else None,
                        "path_um": [[pt.x, pt.y] for pt in m.path],
                    }
                    for m in p.moves
                ],
            }
            for p in plan.plans
        ]
    }
