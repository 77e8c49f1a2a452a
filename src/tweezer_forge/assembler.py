"""Deterministic move planning: minimum-cost assignment, collision-aware
ordering, surplus ejection and whole-array plane-by-plane plans.

Plans are geometric and deterministic; stochastic execution lives in the
simulator.  All moves stay within their plane (inter-plane transfers are out
of scope).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .geometry import PlaneDecomposition, TrapLayout, Vec3


class PlanInfeasibleError(RuntimeError):
    """No executable move ordering exists (e.g. no free staging site)."""


class ExecutabilityError(RuntimeError):
    """A plan replay lifted from an empty trap or dropped onto a full one."""

    def __init__(self, message: str, move_index: int):
        super().__init__(message)
        self.move_index = move_index


@dataclass(frozen=True)
class PlannerPolicy:
    collision_radius_um: float = 2.0
    # occupied traps further than this from the MT plane never affect paths
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
_PENALTY_UNIT = 1000.0  # soft penalties are 1, 2 or 4 units
# entries per memo, keyed by route endpoints: a plane of n traps has at most
# about 2 n^2 endpoint pairs (10k for a bilayer72 plane)
_MEMO_LIMIT = 16_384


def _penalty_units(d: np.ndarray, reach: float) -> np.ndarray:
    """Graded cost, in units of ``_PENALTY_UNIT``, of passing ``d`` um from an
    occupied other-plane atom: 4 below 1 um, 2 below 1.5 um, 1 below
    ``reach`` and 0 beyond."""
    units = np.select([d < 1.0, d < 1.5], [4, 2], 1)
    return np.where(d < reach, units, 0).astype(np.int8)


class _PlaneTable:
    """Planner geometry of one plane, fixed by (layout, plane, policy).

    Nodes are the in-plane ("hard") trap sites followed by the other-plane
    ("soft") sites within the axial clearance; a node's position in that
    order indexes every table below.  Every segment the scheduler tests
    joins fixed points (trap sites, eject exits and the detour waypoints of
    a pair), so which traps can block it, and how badly, is computed once
    here; a planning call only applies the occupancy.

    The corridor graph joins nodes within ``_GRAPH_REACH_UM``.  Trap sites
    sit in the middle of lattice corridors, so hopping across empty sites
    follows the corridors exactly; other-plane sites double as junction
    waypoints (passing over an empty trap is harmless).  An edge is unusable
    while an in-plane trap it passes (other than its ends) is occupied, and
    each occupied other-plane trap it passes adds a graded penalty.
    """

    def __init__(self, layout: TrapLayout, hard_key: tuple, mt_z: float,
                 policy: PlannerPolicy):
        pos = layout.positions()
        n = len(layout.traps)
        self.layout = layout
        self.mt_z = mt_z
        self.policy = policy
        self.radius = policy.collision_radius_um
        self.xy = pos[:, :2]
        self.is_target = np.array([t.is_target for t in layout.traps])
        hard = np.zeros(n, dtype=bool)
        hard[list(hard_key)] = True
        # other-plane traps near enough in z for the MT column to disturb them
        soft = (np.abs(pos[:, 2] - mt_z) < policy.z_clearance_um) & ~hard
        self.nodes = np.concatenate([np.nonzero(hard)[0], np.nonzero(soft)[0]])
        self.node_ids = self.nodes.tolist()
        self.n_hard = int(hard.sum())
        self.node_of = np.full(n, -1, dtype=np.intp)
        self.node_of[self.nodes] = np.arange(self.nodes.size)
        self.node_xy = self.xy[self.nodes]

        pts = self.node_xy
        d2 = np.einsum("ijk,ijk->ij", pts[:, None] - pts[None, :], pts[:, None] - pts[None, :])
        self.edge_i, self.edge_j = np.nonzero(np.triu(d2 <= _GRAPH_REACH_UM**2, k=1))
        n_edges = self.edge_i.size
        dist = kernels.segment_point_distances(pts, pts[self.edge_i], pts[self.edge_j])
        close = dist < self.radius
        close[self.edge_i, np.arange(n_edges)] = False  # an edge's own ends
        close[self.edge_j, np.arange(n_edges)] = False
        nh = self.n_hard
        self.edge_hard = close[:nh].T.astype(float)  # edge x in-plane trap
        self.edge_soft = _PENALTY_UNIT * np.where(  # edge x other-plane trap
            close[nh:], _penalty_units(dist[nh:], self.radius), 0).T
        # search graph of a route: the nodes, then its start and its end.
        # Arcs are (head, weight slot); the slots are the edges, then the
        # legs start -> node, node -> end and start -> end, weighted per
        # route.  Each node lists its end leg first, then its incident edges
        # in edge order.
        n_nodes = len(self.node_ids)
        self.start, self.end = n_nodes, n_nodes + 1
        self.heap_key = self.node_ids + [-1, -2]  # heap ties break on trap index
        self.arcs: list[list[tuple[int, int]]] = [
            [(self.end, n_edges + n_nodes + p)] for p in range(n_nodes)
        ]
        for e, (i, j) in enumerate(zip(self.edge_i.tolist(), self.edge_j.tolist())):
            self.arcs[i].append((j, e))
            self.arcs[j].append((i, e))
        self.arcs.append([(p, n_edges + p) for p in range(n_nodes)]
                         + [(self.end, n_edges + 2 * n_nodes)])
        self.arcs.append([])
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

    def _leg_codes(self, dist: np.ndarray) -> np.ndarray:
        """Per node row: 1 where an in-plane trap blocks the leg, the soft
        penalty units where an other-plane trap is passed."""
        codes = _penalty_units(dist, self.radius)
        codes[:self.n_hard] = dist[:self.n_hard] < self.radius
        return codes

    def legs(self, point: np.ndarray, outbound: bool) -> np.ndarray:
        """Leg codes (node x node) of the legs point -> node (``outbound``)
        or node -> point."""
        def build():
            ends = np.repeat(point[None, :], self.node_xy.shape[0], 0)
            seg_a, seg_b = (ends, self.node_xy) if outbound else (self.node_xy, ends)
            return self._leg_codes(kernels.segment_point_distances(self.node_xy, seg_a, seg_b))
        return self._memo(self._legs, (point.tobytes(), outbound), build)

    def straight(self, a_xy: np.ndarray, b_xy: np.ndarray):
        """(close, codes) of the straight leg a -> b: the nodes within the
        collision radius, and the leg codes per node."""
        def build():
            d = kernels.segment_point_distances(self.node_xy, a_xy[None, :], b_xy[None, :])
            return d[:, 0] < self.radius, self._leg_codes(d[:, 0])
        return self._memo(self._straights, (a_xy.tobytes(), b_xy.tobytes()), build)

    def detour(self, a_xy: np.ndarray, b_xy: np.ndarray):
        """Single-waypoint detour candidates of a pair and what blocks them.

        Returns (cands, seg_a, seg_b, rows, blocked): the waypoints inside the
        field of view, the 2m legs a -> cand then cand -> b, and for each node
        ``rows`` that comes within the collision radius of some candidate,
        which candidates it blocks (m columns).
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
            seg_a = np.concatenate([np.repeat(a_xy[None, :], m, 0), cands])
            seg_b = np.concatenate([cands, np.repeat(b_xy[None, :], m, 0)])
            close = kernels.segment_point_distances(self.node_xy, seg_a, seg_b) < self.radius
            blocked = close[:, :m] | close[:, m:]
            rows = np.nonzero(blocked.any(axis=1))[0]
            return cands, seg_a, seg_b, rows, blocked[rows]
        return self._memo(self._detours, (a_xy.tobytes(), b_xy.tobytes()), build)


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


@lru_cache(maxsize=128)
def _eject_exits(layout: TrapLayout, idx_key: tuple, margin: float, fov: float) -> dict:
    """Exit point for every trap of a plane, cached per layout/plane."""
    xy = layout.positions()[:, :2]
    plane_xy = xy[list(idx_key)]
    return {
        i: tuple(_eject_exit_point(plane_xy, xy[i], margin, fov))
        for i in idx_key
    }


def _eject_exit_point(plane_xy: np.ndarray, p: np.ndarray, margin: float, fov: float) -> np.ndarray:
    """Nearest point ``margin`` um outside the convex hull of the plane's
    traps, clamped into the field of view."""
    hull = _convex_hull(plane_xy)
    if hull.shape[0] == 1:
        return np.clip(p + np.array([margin, 0.0]), -fov, fov)
    edges = [(hull[i], hull[(i + 1) % hull.shape[0]]) for i in range(hull.shape[0])]
    if hull.shape[0] == 2:
        edges = edges[:1]
    centroid = hull.mean(axis=0)
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

class _Scheduler:
    """Orders moves so replay never lifts from an empty trap, never drops onto
    an occupied one, and keeps the MT clear of occupied bystander traps in
    the plane being sorted.

    In-plane occupied traps are collision constraints: a blocked move is
    deferred when the blocker will be vacated by a pending move, otherwise the
    path is routed around it (single waypoint, then a corridor search through
    empty trap sites).  Occupied traps in *other* planes within the axial
    clearance are avoided on a best-effort basis only: crossing them costs
    crosstalk, not a collision, so they never make a plan infeasible.
    Occupied destinations (swap cycles) are broken by staging through the
    nearest free non-target site.
    """

    def __init__(self, table: _PlaneTable, occupancy: np.ndarray,
                 stage_candidates: Sequence[int]):
        self.table = table
        self.xy = table.xy
        self.is_target = table.is_target
        self.mt_z = table.mt_z
        self.occ = occupancy.copy()
        self.occ_nodes = self.occ[table.nodes]  # occupancy in node order
        self.stage_candidates = list(stage_candidates)
        self.out: list[Move] = []

    # -- geometry helpers ---------------------------------------------------

    def _near(self, a_xy, b_xy, exclude):
        """Traps close enough to ever block the straight leg a -> b, split
        into (in-plane, other-plane) lists; occupancy is applied at
        scheduling time."""
        close, _ = self.table.straight(a_xy, b_xy)
        ids = self.table.nodes[close].tolist()
        k = int(np.count_nonzero(close[:self.table.n_hard]))
        return ([c for c in ids[:k] if c not in exclude],
                [c for c in ids[k:] if c not in exclude])

    def _excluded(self, exclude) -> np.ndarray:
        mask = np.zeros(self.occ_nodes.size, dtype=bool)
        pos = self.table.node_of[list(exclude)]
        mask[pos[pos >= 0]] = True
        return mask

    def _detour(self, a_xy, b_xy, exclude, prefer_soft_clearance: bool = False):
        """Single-waypoint path clearing every occupied in-plane blocker, or
        None.

        By default the first candidate also clearing the other-plane atoms
        wins; with ``prefer_soft_clearance`` the hard-clear candidate whose
        worst approach to an other-plane atom is largest wins instead.
        """
        t = self.table
        live = self.occ_nodes & ~self._excluded(exclude)
        if not live.any():
            return [a_xy, b_xy]
        cands, seg_a, seg_b, rows, blocked = t.detour(a_xy, b_xy)
        if not cands.size:
            return None
        on = live[rows]
        in_plane = rows < t.n_hard
        ok = ~blocked[on & in_plane].any(axis=0)
        if not ok.any():
            return None
        if prefer_soft_clearance:
            soft_xy = t.node_xy[t.n_hard:][live[t.n_hard:]]
            if soft_xy.size:
                soft_min = kernels.segment_point_distances(soft_xy, seg_a, seg_b).min(axis=0)
            else:
                soft_min = np.full(seg_a.shape[0], np.inf)
            n = cands.shape[0]
            path_soft_min = np.minimum(soft_min[:n], soft_min[n:])
            best = int(np.nonzero(ok)[0][np.argmax(path_soft_min[ok])])
            return [a_xy, cands[best], b_xy]
        fully = ok & ~blocked[on & ~in_plane].any(axis=0)
        if fully.any():
            return [a_xy, cands[int(np.argmax(fully))], b_xy]
        return None

    def _corridor_route(self, a_xy, b_xy, exclude):
        """Cheapest route a -> (empty trap sites) -> b along corridor edges.

        Edges blocked by in-plane atoms are unusable; edges crossing near an
        occupied other-plane atom carry a graded penalty, so the route makes
        as few and as distant crossings as possible.  The direct a -> b leg
        competes on the same footing.  Returns None only when the in-plane
        constraints alone disconnect a from b.  Deterministic (heap ties
        break on trap index).
        """
        t = self.table
        nh = t.n_hard
        excluded = self._excluded(exclude)
        free = ~self.occ_nodes & ~excluded
        live = self.occ_nodes & ~excluded
        hard_rows = np.nonzero(live[:nh])[0]
        soft_rows = nh + np.nonzero(live[nh:])[0]

        def weights(codes):
            # a leg is unusable when an occupied in-plane trap blocks it;
            # occupied other-plane traps add their graded penalty
            usable = ~codes[hard_rows].any(axis=0)
            penalty = _PENALTY_UNIT * codes[soft_rows].sum(axis=0)
            return np.where(usable, 1.0 + penalty, math.inf)

        occ = self.occ_nodes.astype(float)
        edge_ok = free[t.edge_i] & free[t.edge_j] & (t.edge_hard @ occ[:nh] == 0)
        w = np.concatenate([
            np.where(edge_ok, 1.0 + t.edge_soft @ occ[nh:], math.inf),
            np.where(free, weights(t.legs(a_xy, outbound=True)), math.inf),
            weights(t.legs(b_xy, outbound=False)),
            weights(t.straight(a_xy, b_xy)[1][:, None]),
        ]).tolist()

        inf = math.inf
        dist = [inf] * len(t.arcs)
        prev = [-1] * len(t.arcs)
        settled = [False] * len(t.arcs)
        dist[t.start] = 0.0
        heap = [(0.0, -1, t.start)]  # (distance, trap index, node)
        while heap:
            d, _, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == t.end:
                break
            for v, slot in t.arcs[u]:
                nd = d + w[slot]
                if nd < dist[v] - 1e-9:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, t.heap_key[v], v))
        if not settled[t.end]:
            return None
        hops = []
        v = prev[t.end]
        while v != t.start:
            hops.append(v)
            v = prev[v]
        return [a_xy] + [t.node_xy[p] for p in reversed(hops)] + [b_xy]

    def _route(self, a_xy, b_xy, exclude, live_hard=None, live_soft=None):
        """Best path honouring the in-plane collision rule and crossing as
        few (and as distant) other-plane atoms as possible.

        Never returns None: when no conforming route exists the straight
        segment is accepted (a close pass costs crosstalk in the simulator,
        not a planning failure).
        """
        if live_hard is None or live_soft is None:
            hard, soft = self._near(a_xy, b_xy, exclude)
            live_hard = [c for c in hard if self.occ[c]]
            live_soft = [c for c in soft if self.occ[c]]
        if not live_hard and not live_soft:
            return [a_xy, b_xy]
        path = self._detour(a_xy, b_xy, exclude)
        if path is not None:
            return path
        path = self._corridor_route(a_xy, b_xy, exclude)
        if path is not None:
            return path
        if not live_hard:
            return [a_xy, b_xy]
        path = self._detour(a_xy, b_xy, exclude, prefer_soft_clearance=True)
        if path is not None:
            return path
        return [a_xy, b_xy]  # least-bad: accept the close pass

    # -- move emission ------------------------------------------------------

    def _set_occ(self, trap: int, value: bool) -> None:
        self.occ[trap] = value
        node = self.table.node_of[trap]
        if node >= 0:
            self.occ_nodes[node] = value

    def _vec_path(self, waypoints) -> tuple[Vec3, ...]:
        return tuple(Vec3(float(w[0]), float(w[1]), self.mt_z) for w in waypoints)

    def _emit_transfer(self, src: int, dst: int, waypoints) -> None:
        self.out.append(
            Move(kind="transfer", from_index=src, to_index=dst, exit_um=None,
                 path=self._vec_path(waypoints))
        )
        self._set_occ(src, False)
        self._set_occ(dst, True)

    def _emit_eject(self, src: int, exit_xy: np.ndarray, waypoints) -> None:
        self.out.append(
            Move(kind="eject", from_index=src, to_index=None,
                 exit_um=(float(exit_xy[0]), float(exit_xy[1])),
                 path=self._vec_path(waypoints))
        )
        self._set_occ(src, False)

    # -- main loops ----------------------------------------------------------

    def schedule_transfers(self, pairs: Sequence[tuple[int, int]]) -> None:
        pending: list[tuple[int, int]] = list(pairs)
        srcs = {s for s, _ in pending}
        for _, dst in pending:
            if self.occ[dst] and dst not in srcs:
                raise PlanInfeasibleError(
                    f"destination trap {dst} is occupied and never vacated"
                )
        geom = [self._near(self.xy[s], self.xy[d], {s, d}) for s, d in pending]
        while pending:
            pending_srcs = {s for s, _ in pending}
            progressed = False

            # matching order; defer moves whose blockers will be vacated
            for i, (src, dst) in enumerate(pending):
                if not self.occ[src] or self.occ[dst]:
                    continue
                live_hard = [b for b in geom[i][0] if self.occ[b]]
                if any(b in pending_srcs for b in live_hard):
                    continue  # wait for the blocker to move out of the way
                live_soft = [b for b in geom[i][1] if self.occ[b]]
                path = self._route(self.xy[src], self.xy[dst], {src, dst},
                                   live_hard, live_soft)
                self._emit_transfer(src, dst, path)
                pending.pop(i)
                geom.pop(i)
                progressed = True
                break
            if progressed:
                continue

            # swap/cycle: every executable move drops onto a pending source
            staged = False
            for i, (src, dst) in enumerate(pending):
                if not self.occ[src] or not self.occ[dst]:
                    continue
                stage = self._staging_site(src, pending)
                if stage is None:
                    raise PlanInfeasibleError("no free staging site available")
                path = self._route(self.xy[src], self.xy[stage], {src, stage})
                self._emit_transfer(src, stage, path)
                pending[i] = (stage, dst)
                geom[i] = self._near(self.xy[stage], self.xy[dst], {stage, dst})
                staged = True
                break
            if staged:
                continue

            # deferral deadlock: force the first executable move through
            forced = False
            for i, (src, dst) in enumerate(pending):
                if not self.occ[src] or self.occ[dst]:
                    continue
                path = self._route(self.xy[src], self.xy[dst], {src, dst})
                self._emit_transfer(src, dst, path)
                pending.pop(i)
                geom.pop(i)
                forced = True
                break
            if not forced:
                raise PlanInfeasibleError("no executable move ordering exists")

    def schedule_ejections(self, sources: Sequence[int], margin: float,
                           plane_indices: Sequence[int]) -> None:
        exits = _eject_exits(self.table.layout, tuple(plane_indices), margin,
                             self.table.policy.fov_lateral_um)
        pending = [(src, np.asarray(exits[src])) for src in sources]
        geom = [self._near(self.xy[s], e, {s}) for s, e in pending]
        while pending:
            pending_srcs = {s for s, _ in pending}
            progressed = False
            for i, (src, exit_xy) in enumerate(pending):
                if not self.occ[src]:
                    pending.pop(i)  # atom already gone; nothing to eject
                    geom.pop(i)
                    progressed = True
                    break
                live_hard = [b for b in geom[i][0] if self.occ[b]]
                if any(b in pending_srcs for b in live_hard):
                    continue
                live_soft = [b for b in geom[i][1] if self.occ[b]]
                path = self._route(self.xy[src], exit_xy, {src}, live_hard, live_soft)
                self._emit_eject(src, exit_xy, path)
                pending.pop(i)
                geom.pop(i)
                progressed = True
                break
            if progressed:
                continue
            # mutual blocking: force the first pending ejection through
            src, exit_xy = pending[0]
            path = self._route(self.xy[src], exit_xy, {src})
            self._emit_eject(src, exit_xy, path)
            pending.pop(0)
            geom.pop(0)

    def _staging_site(self, src: int, pending: Sequence[tuple[int, int]]) -> Optional[int]:
        reserved = {d for _, d in pending}
        best = None
        for cand in self.stage_candidates:
            if self.occ[cand] or self.is_target[cand] or cand in reserved or cand == src:
                continue
            dist = float(np.hypot(*(self.xy[cand] - self.xy[src])))
            if best is None or dist < best[0] - 1e-12:
                best = (dist, cand)
        return None if best is None else best[1]


def order_moves(
    matching: Sequence[tuple[int, int]],
    occupancy,
    layout: TrapLayout,
    policy: PlannerPolicy = PlannerPolicy(),
    mt_z: Optional[float] = None,
    stage_candidates: Optional[Sequence[int]] = None,
    hard_indices: Optional[Sequence[int]] = None,
) -> tuple[Move, ...]:
    """Order (source trap, destination trap) transfers into an executable,
    collision-aware sequence.

    ``hard_indices`` names the traps treated as collision obstacles (defaults
    to the traps within 1 um of the MT plane, i.e. the plane being sorted).
    """
    occ = as_occupancy(occupancy, len(layout.traps))
    for src, dst in matching:
        if src == dst:
            raise ValueError("transfers need distinct source and destination")
        if not occ[src]:
            raise ValueError(f"source trap {src} is empty")
    if mt_z is None:
        involved = {i for pair in matching for i in pair}
        mt_z = float(np.mean([layout.traps[i].position.z for i in involved])) if involved else 0.0
    if stage_candidates is None:
        stage_candidates = range(len(layout.traps))
    if hard_indices is None:
        z = layout.positions()[:, 2]
        hard_indices = [int(i) for i in np.nonzero(np.abs(z - mt_z) <= 1.0)[0]]
    table = _plane_table(layout, tuple(int(i) for i in hard_indices), mt_z, policy)
    sched = _Scheduler(table, occ, stage_candidates)
    sched.schedule_transfers(matching)
    return tuple(sched.out)


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

    sched = _Scheduler(table, occ, stage_candidates=idx)
    sched.schedule_transfers(pairs)
    sched.schedule_ejections(surplus, policy.eject_margin_um, idx)
    return MovePlan(plane_index=plane_index, mt_z_um=plane.z_center, moves=tuple(sched.out))


def plan_remove_all(
    occupancy,
    layout: TrapLayout,
    decomposition: PlaneDecomposition,
    plane_index: int,
    policy: PlannerPolicy = PlannerPolicy(),
) -> MovePlan:
    """One ejection per loaded trap in the plane."""
    occ = as_occupancy(occupancy, len(layout.traps))
    plane = decomposition.planes[plane_index]
    idx = list(plane.indices)
    loaded = [i for i in idx if occ[i]]
    sched = _Scheduler(_plane_table(layout, plane.indices, plane.z_center, policy),
                       occ, stage_candidates=idx)
    sched.schedule_ejections(loaded, policy.eject_margin_um, idx)
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
