"""Deterministic move planning: minimum-cost assignment, collision-aware
ordering, surplus ejection and whole-array plane-by-plane plans.

Plans are geometric and deterministic; stochastic execution lives in the
simulator.  All moves stay within their plane (inter-plane transfers are out
of scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .geometry import MAX_LATERAL_UM, PlaneDecomposition, TrapLayout, Vec3


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
    eject_margin_um: float = 20.0


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


def assignment_min_cost(sources, targets) -> np.ndarray:
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
        cols = solve_assignment(cost[np.ix_(free_tgt, free_src)])
        result[free_tgt] = free_src[cols]
    return result


# ---------------------------------------------------------------------------
# static plane table (cached per layout/plane/policy)
# ---------------------------------------------------------------------------

_GRAPH_REACH_UM = 8.0  # covers one lattice step or diagonal


class _PlaneTable:
    """Planner geometry of one plane, fixed by (layout, plane, policy).

    Every point a route can touch is an integer id.  The nodes come first:
    the in-plane ("hard") trap sites, then the other-plane junction sites
    within the axial clearance; then the eject exit of each in-plane node
    (node k's exit is point ``n_nodes + k``).  ``point_xy`` holds each
    point's position and ``points`` its ``Vec3`` at the MT height, built
    once and shared by every path.  The in-plane nodes are the only
    possible blockers: the simulator charges other-plane atoms at a move's
    pick and drop points, never along its path.  Every segment the
    scheduler tests joins a point to a node or passes a pair's detour
    waypoint, so which in-plane traps can block it is memoised by point
    ids, and a planning call only applies the occupancy.  A move runs from
    an in-plane source a (never a target) to a target or to a's exit b.
    ``legs`` holds the legs from a and the legs into b, a move's straight
    leg among them (a is a node), so for s sources and t targets it holds
    at most 2 s + t entries, and ``detour``, keyed (a, b), at most
    s (t + 1) (10,100 on a 200-trap plane): they need no bound.

    The corridor graph joins nodes within ``_GRAPH_REACH_UM``.  Trap sites
    sit in the middle of lattice corridors, so hopping across empty sites
    follows the corridors exactly; other-plane sites are junctions that are
    always free, whatever their occupancy.  ``adj`` holds it with the nodes
    in trap order (row r is node ``by_trap[r]``), so the corridor search
    visits each level's nodes in trap order and its ties break on trap
    index.  An edge is unusable while an in-plane trap it passes (other
    than its ends) is occupied: ``cut_by`` lists those blockers and
    ``cut_at`` the flat ``adj`` position of each (edge, blocker) pair, once
    per direction.
    """

    def __init__(self, layout: TrapLayout, hard_key: tuple, mt_z: float,
                 policy: PlannerPolicy):
        pos = layout.positions()
        n = len(layout.traps)
        self.mt_z = mt_z
        self.radius = policy.collision_radius_um
        self.xy = pos[:, :2]
        self.is_target = np.array([t.is_target for t in layout.traps])
        hard = np.zeros(n, dtype=bool)
        hard[list(hard_key)] = True
        junction = (np.abs(pos[:, 2] - mt_z) < policy.z_clearance_um) & ~hard
        self.nodes = np.concatenate([np.nonzero(hard)[0], np.nonzero(junction)[0]])
        self.n_nodes = self.nodes.size
        self.n_hard = int(hard.sum())
        self.node_of = np.full(n, -1, dtype=np.intp)
        self.node_of[self.nodes] = np.arange(self.n_nodes)
        node_xy = self.xy[self.nodes]
        self.point_xy = np.concatenate(
            [node_xy, _exits(node_xy[:self.n_hard], policy.eject_margin_um)])
        self.points = [Vec3(float(x), float(y), mt_z) for x, y in self.point_xy]

        d2 = np.einsum("ijk,ijk->ij", node_xy[:, None] - node_xy[None, :],
                       node_xy[:, None] - node_xy[None, :])
        edge_i, edge_j = np.nonzero(np.triu(d2 <= _GRAPH_REACH_UM**2, k=1))
        close = self._blockers(node_xy[edge_i], node_xy[edge_j])
        for ends in (edge_i, edge_j):  # an edge's own ends
            own = ends < self.n_hard
            close[ends[own], np.nonzero(own)[0]] = False
        self.by_trap = np.argsort(self.nodes)  # node ids in trap order
        self.rank = np.argsort(self.by_trap)  # each node's place in it
        ri, rj = self.rank[edge_i], self.rank[edge_j]
        self.adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        self.adj[ri, rj] = self.adj[rj, ri] = True
        by, e = np.nonzero(close)
        self.cut_by = np.concatenate([by, by])
        self.cut_at = np.concatenate([ri[e] * self.n_nodes + rj[e],
                                      rj[e] * self.n_nodes + ri[e]])
        self._legs: dict = {}
        self._detours: dict = {}

    @staticmethod
    def _memo(store: dict, key, build):
        value = store.get(key)
        if value is None:
            value = store[key] = build()
        return value

    def _blockers(self, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
        """In-plane node x segment: True where the node lies within the
        collision radius of the segment."""
        hard_xy = self.point_xy[:self.n_hard]
        return kernels.segment_point_distances(hard_xy, seg_a, seg_b) < self.radius

    def legs(self, point: int, outbound: bool) -> np.ndarray:
        """In-plane blockers (in-plane node x node, the nodes in trap order)
        of the legs point -> node (``outbound``) or node -> point."""
        def build():
            node_xy = self.point_xy[:self.n_nodes]
            ends = np.repeat(self.point_xy[point][None, :], self.n_nodes, 0)
            seg_a, seg_b = (ends, node_xy) if outbound else (node_xy, ends)
            return self._blockers(seg_a, seg_b)[:, self.by_trap]
        return self._memo(self._legs, (point, outbound), build)

    def detour(self, a: int, b: int):
        """Single-waypoint detour candidates of a pair and what blocks them.

        Returns (cands, rows, blocked): the waypoints inside the field of
        view, and for each in-plane node ``rows`` within the collision radius
        of the leg a -> cand or cand -> b of some candidate, which candidates
        it blocks (m columns).
        """
        def build():
            a_xy, b_xy = self.point_xy[a], self.point_xy[b]
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
                cands = cands[np.abs(cands).max(axis=1) <= MAX_LATERAL_UM]
            m = cands.shape[0]
            close = self._blockers(np.concatenate([np.repeat(a_xy[None, :], m, 0), cands]),
                                   np.concatenate([cands, np.repeat(b_xy[None, :], m, 0)]))
            blocked = close[:, :m] | close[:, m:]
            rows = np.nonzero(blocked.any(axis=1))[0]
            return cands, rows, blocked[rows]
        return self._memo(self._detours, (a, b), build)


@lru_cache(maxsize=32)
def _plane_table(layout: TrapLayout, hard_key: tuple, mt_z: float,
                 policy: PlannerPolicy) -> _PlaneTable:
    return _PlaneTable(layout, hard_key, mt_z, policy)


# ---------------------------------------------------------------------------
# eject exit geometry
# ---------------------------------------------------------------------------

def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (..., 2) arrays, by the same matmul kernel
    as a 1-d ``x @ y``, so it rounds alike."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _exits(plane_xy: np.ndarray, margin: float) -> np.ndarray:
    """Eject exit of each of the plane's traps: the nearest point ``margin``
    um outside the convex hull of the traps, clamped into the layout's
    lateral field of view (``MAX_LATERAL_UM``).  The nearest hull point of
    a trap is on the first hull edge (in hull order) at the least
    distance."""
    fov = MAX_LATERAL_UM
    hull = _convex_hull(plane_xy)
    if hull.shape[0] == 1:
        return np.clip(plane_xy + np.array([margin, 0.0]), -fov, fov)
    a = hull if hull.shape[0] > 2 else hull[:1]  # collinear: one edge
    d = np.roll(hull, -1, axis=0)[:a.shape[0]] - a
    dd = _dot(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd > 0, np.clip(_dot(plane_xy[:, None] - a, d) / dd, 0.0, 1.0), 0.0)
    q = a + t[..., None] * d  # trap x edge
    qp = q - plane_xy[:, None]
    dist = np.hypot(qp[..., 0], qp[..., 1])
    rows, k = np.arange(plane_xy.shape[0]), np.argmin(dist, axis=1)
    dist, q, d, qp = dist[rows, k], q[rows, k], d[k], qp[rows, k]
    inside = dist > 1e-9  # the trap is inside the hull: outward direction
    normal = np.stack([d[:, 1], -d[:, 0]], axis=1)  # boundary trap: edge normal
    norm = np.hypot(normal[:, 0], normal[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = np.where(norm[:, None] > 0, normal / norm[:, None], [1.0, 0.0])
    normal[_dot(normal, q - hull.mean(axis=0)) < 0] *= -1
    normal[inside] = qp[inside] / dist[inside, None]
    return np.clip(q + margin * normal, -fov, fov)


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


# ---------------------------------------------------------------------------
# collision-aware scheduling
# ---------------------------------------------------------------------------

class _Pending(NamedTuple):
    """A move waiting to run, from point ``a`` (the source trap's node) to
    point ``b`` (the destination's node, or for an ejection, which has no
    ``dst``, the source's exit).  ``near_hard`` are the in-plane traps,
    other than the move's own, close enough to ever block the straight
    leg; occupancy is applied at scheduling time."""
    src: int
    dst: Optional[int]
    a: int
    b: int
    near_hard: list[int]


class _Scheduler:
    """Orders a plane's moves and keeps the MT clear of occupied bystander
    traps in the plane being sorted.

    In-plane occupied traps are collision constraints: a blocked move is
    deferred when the blocker will be vacated by a pending move, otherwise
    one breadth-first search routes it around them: the straight leg, then
    a detour waypoint or a free node, then corridor hops through empty trap
    sites and other-plane junctions.  Atoms in other planes are no
    obstacle: the simulator charges them at a move's pick and drop points,
    which the matching fixes, and never along its path.  Routes run on the
    table's point ids, and a path is made of the table's shared ``Vec3``
    points; only a detour waypoint is built per move.
    """

    def __init__(self, table: _PlaneTable, occupancy: np.ndarray):
        self.table = table
        self.occ = occupancy.copy()
        self.occ_hard = self.occ[table.nodes[:table.n_hard]]  # in-plane nodes
        self.out: list[Move] = []

    # -- moves ---------------------------------------------------------------

    def _pending(self, src: int, dst: Optional[int], a: int, b: int) -> _Pending:
        t = self.table
        near = t.nodes[:t.n_hard][t.legs(b, outbound=False)[:, t.rank[a]]].tolist()
        return _Pending(src, dst, a, b, [c for c in near if c != src and c != dst])

    def transfer(self, src: int, dst: int) -> _Pending:
        node_of = self.table.node_of
        return self._pending(src, dst, int(node_of[src]), int(node_of[dst]))

    def eject(self, src: int) -> _Pending:
        a = int(self.table.node_of[src])
        return self._pending(src, None, a, self.table.n_nodes + a)

    # -- routing -------------------------------------------------------------

    def _route(self, m: _Pending) -> tuple[Vec3, ...]:
        """Fewest-hop path of ``m`` that no occupied in-plane trap blocks,
        found breadth-first, one level at a time; the first point of a level
        with a clear leg to b ends the search.

        - Level 0 is the straight leg a -> b, clear unless a trap of
          ``near_hard`` is occupied.
        - Level 1 is the pair's detour waypoints, then the free nodes in
          trap order, each reached when its leg from a is clear.  A waypoint
          has no corridor edges, so it ends the search or drops out.
        - Each later level is the free nodes, in trap order, that a corridor
          edge no occupied trap cuts joins to the level before.

        Free nodes are the empty in-plane sites other than the destination
        and every other-plane junction.  Each hop before the last is the
        first node of its level joined to the next.  When the atoms
        disconnect a from b the search fails and the straight leg is taken
        anyway (least-bad: the close pass is accepted).
        """
        t = self.table
        start, end = t.points[m.a], t.points[m.b]
        if not any(self.occ[c] for c in m.near_hard):
            return start, end
        # the source is the move's only occupied trap (the destination is
        # an empty target), so it alone leaves the blockers
        live = self.occ_hard.copy()
        live[m.a] = False
        # level 1: the waypoints, then the free nodes
        cands, rows, blocked = t.detour(m.a, m.b)
        clear = ~blocked[live[rows]].any(axis=0)
        if clear.any():
            x, y = cands[int(np.argmax(clear))]
            return start, Vec3(float(x), float(y), t.mt_z), end
        free = np.ones(t.n_nodes, dtype=bool)  # in trap order, as are the legs
        free[t.rank[:t.n_hard]] = ~self.occ_hard
        if m.b < t.n_hard:
            free[t.rank[m.b]] = False
        from_a = free & ~t.legs(m.a, outbound=True)[live].any(axis=0)
        to_b = ~t.legs(m.b, outbound=False)[live].any(axis=0)
        level = np.flatnonzero(from_a)
        last = level[to_b[level]]
        levels = []
        if not last.size:
            adj = t.adj.copy()
            adj.flat[t.cut_at[self.occ_hard[t.cut_by]]] = False
            seen = ~free | from_a
            while not last.size:
                levels.append(level)
                new = adj[level].any(axis=0) & ~seen
                level = np.flatnonzero(new)
                if not level.size:
                    return start, end
                seen |= new
                last = level[to_b[level]]
        hops = [last[0]]
        for prev in reversed(levels):
            hops.append(prev[np.argmax(adj[prev, hops[-1]])])
        return (start, *[t.points[h] for h in t.by_trap[hops[::-1]]], end)

    # -- emission ------------------------------------------------------------

    def _emit(self, m: _Pending) -> None:
        path = self._route(m)
        if m.dst is None:
            self.out.append(Move(kind="eject", from_index=m.src, to_index=None,
                                 exit_um=(path[-1].x, path[-1].y), path=path))
        else:
            self.out.append(Move(kind="transfer", from_index=m.src, to_index=m.dst,
                                 exit_um=None, path=path))
            self.occ[m.dst] = self.occ_hard[m.b] = True
        self.occ[m.src] = self.occ_hard[m.a] = False

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
        match = assignment_min_cost(xy[free_sources], xy[empty_targets])
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
