import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from tweezer_forge import assembler as asm
from tweezer_forge import configs
from tweezer_forge import geometry as geo
from tweezer_forge import kernels
from conftest import random_valid_occupancy


def line_layout(n, pitch=5.0, targets=None):
    pts = np.array([(i * pitch, 0.0, 0.0) for i in range(n)])
    pts -= pts.mean(axis=0)
    if targets is None:
        targets = [False] * n
    return geo.TrapLayout(
        tuple(geo.TrapSite(geo.Vec3(*map(float, p)), is_target=t) for p, t in zip(pts, targets))
    )


def point_layout(points, targets=()):
    return geo.TrapLayout(tuple(
        geo.TrapSite(geo.Vec3(*map(float, p)), is_target=(i in targets))
        for i, p in enumerate(points)
    ))


def pairs_of(moves):
    return [(m.from_index, m.to_index) for m in moves]


def plane_moves(occ, layout, policy=asm.PlannerPolicy()):
    """The moves of ``plan_plane`` on the lowest plane of ``layout``."""
    dec = geo.decompose_planes(layout, 1.0)
    return asm.plan_plane(occ, layout, dec, 0, policy).moves


def min_clearance(move, xy):
    pts = np.array([[p.x, p.y] for p in move.path])
    return kernels.segment_point_distances(xy[None, :], pts[:-1], pts[1:]).min()


def brute_force_min_cost(cost):
    best = np.inf
    for perm in itertools.permutations(range(cost.shape[1]), cost.shape[0]):
        total = sum(cost[i, p] for i, p in enumerate(perm))
        best = min(best, total)
    return best


class TestAssignment:
    def test_worked_matrix(self):
        cost = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]], dtype=float)
        cols = asm.solve_assignment(cost)
        assert list(cols) == [1, 0, 2]
        assert sum(cost[i, cols[i]] for i in range(3)) == 5

    def test_identity_when_on_targets(self):
        pts = [geo.Vec3(0, 0, 0), geo.Vec3(5, 0, 0), geo.Vec3(0, 5, 0)]
        match = asm.assignment_min_cost(pts, pts)
        assert list(match) == [0, 1, 2]

    def test_rectangular(self):
        sources = [geo.Vec3(0, 0, 0), geo.Vec3(10, 0, 0), geo.Vec3(20, 0, 0)]
        targets = [geo.Vec3(9, 0, 0)]
        match = asm.assignment_min_cost(sources, targets)
        assert list(match) == [1]

    def test_too_few_sources(self):
        with pytest.raises(ValueError):
            asm.assignment_min_cost([geo.Vec3(0, 0, 0)], [geo.Vec3(1, 0, 0), geo.Vec3(2, 0, 0)])

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n_targets=st.integers(1, 7),
        extra=st.integers(0, 3),
    )
    def test_optimal_vs_brute_force(self, seed, n_targets, extra):
        rng = np.random.default_rng(seed)
        n_sources = n_targets + extra
        src = rng.uniform(-20, 20, (n_sources, 2))
        tgt = rng.uniform(-20, 20, (n_targets, 2))
        cost = np.linalg.norm(tgt[:, None, :] - src[None, :, :], axis=-1)
        match = asm.assignment_min_cost(src, tgt)
        got = sum(cost[i, match[i]] for i in range(n_targets))
        assert got == pytest.approx(brute_force_min_cost(cost), rel=1e-12)


class TestSchedule:
    def test_disjoint_moves_keep_matching_order(self):
        lay = line_layout(8, pitch=6.0, targets=[False, True] * 3 + [False, False])
        occ = np.array([True, False, True, False, True, False, False, False])
        moves = plane_moves(occ, lay)
        assert pairs_of(moves) == [(0, 1), (2, 3), (4, 5)]

    def test_blocked_path_defers_until_vacated(self):
        # 1 sits 1 um off the straight path 0 -> 2; 1 moves away first.  The
        # matching 0 -> 2, 1 -> 3 (20.05 um) is shorter than the crossing
        # 0 -> 3, 1 -> 2 (20.23 um)
        lay = point_layout([(-6, 0, 0), (-1, 1, 0), (4, 0, 0), (9, 2, 0)], targets=(2, 3))
        occ = np.array([True, True, False, False])
        moves = plane_moves(occ, lay)
        order = pairs_of(moves)
        assert sorted(order) == [(0, 2), (1, 3)]
        assert order.index((1, 3)) < order.index((0, 2))
        # after 1 vacates, 0 -> 2 may run straight through
        assert len(moves[order.index((0, 2))].path) == 2

    def test_permanent_blocker_routed_around(self):
        # 1 is a filled target and never moves, so 0 -> 2 must bend around it
        lay = line_layout(3, targets=[False, True, True])
        occ = np.array([True, True, False])
        moves = plane_moves(occ, lay)
        assert pairs_of(moves) == [(0, 2)]
        path = moves[0].path
        assert len(path) >= 3
        radius = asm.PlannerPolicy().collision_radius_um
        assert min_clearance(moves[0], lay.positions()[1, :2]) >= radius - 1e-9

    def test_deferral_deadlock_emits_first_move(self):
        # each move's straight path passes the other's source; with 0 and 3
        # as targets, plan_plane's matching pairs 1 -> 0 and 2 -> 3 instead,
        # so the scheduler is driven directly
        lay = point_layout([(-5, 0, 0), (0, 0, 0), (5, 0, 0), (15, 0, 0)])
        plane = geo.decompose_planes(lay, 1.0).planes[0]
        table = asm._plane_table(lay, plane.indices, plane.z_center, asm.PlannerPolicy())
        sched = asm._Scheduler(table, np.array([False, True, True, False]))
        sched.schedule([sched.transfer(1, 3), sched.transfer(2, 0)])
        moves = sched.out
        assert pairs_of(moves) == [(1, 3), (2, 0)]
        assert len(moves[0].path) == 3 and len(moves[1].path) == 2
        radius = asm.PlannerPolicy().collision_radius_um
        assert min_clearance(moves[0], lay.positions()[2, :2]) >= radius - 1e-9


    def test_plan_plane_deadlock_emits_first_move(self):
        # sources 1 and 2 sit 1.5 um apart, inside the collision radius, so
        # each transfer's straight leg passes the other's source: every
        # pending move is blocked and plan_plane emits the first, 1 -> 0
        lay = point_layout([(-5, 0, 0), (0, 0, 0), (1.5, 0, 0), (6.5, 0, 0)], targets=(0, 3))
        occ = np.array([False, True, True, False])
        plane = geo.decompose_planes(lay, 1.0).planes[0]
        table = asm._plane_table(lay, plane.indices, plane.z_center, asm.PlannerPolicy())
        sched = asm._Scheduler(table, occ)
        assert 2 in sched.transfer(1, 0).near_hard and 1 in sched.transfer(2, 3).near_hard
        moves = plane_moves(occ, lay)
        assert pairs_of(moves) == [(1, 0), (2, 3)]
        out = asm.apply_plan_lossless(occ, asm.MovePlan(0, 0.0, moves))
        np.testing.assert_array_equal(out, [True, False, False, True])


class TestPlanPlane:
    def test_already_assembled_empty_plan(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = np.array([t.is_target for t in grid_layout_46.traps])
        plan = asm.plan_plane(occ, grid_layout_46, dec, 0)
        assert plan.moves == ()
        assert plan.mt_z_um == dec.planes[0].z_center

    def test_nine_targets_eighteen_loaded(self):
        pts = np.array([(i * 5.0, j * 5.0, 0.0) for j in range(6) for i in range(6)])
        pts -= pts.mean(axis=0)
        lay = geo.TrapLayout(
            tuple(
                geo.TrapSite(geo.Vec3(*map(float, p)), is_target=(k < 9))
                for k, p in enumerate(pts)
            )
        )
        dec = geo.decompose_planes(lay, 1.0)
        rng = np.random.default_rng(0)
        occ = np.zeros(36, dtype=bool)
        occ[rng.choice(np.arange(9, 36), size=18, replace=False)] = True
        plan = asm.plan_plane(occ, lay, dec, 0)
        kinds = [m.kind for m in plan.moves]
        transfers = kinds.count("transfer")
        ejections = kinds.count("eject")
        assert transfers <= 9 and ejections == 9
        # ejections come after every transfer
        assert kinds == ["transfer"] * transfers + ["eject"] * ejections
        out = asm.apply_plan_lossless(occ, plan)
        assert all(out[:9]) and not any(out[9:])

    def test_insufficient_atoms(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = np.zeros(46, dtype=bool)
        occ[:10] = True
        with pytest.raises(asm.PlanInfeasibleError):
            asm.plan_plane(occ, grid_layout_46, dec, 0)

    def test_moves_free_atoms_onto_empty_targets(self, grid_layout_46):
        # the scheduler relies on this: every source is a loaded non-target
        # trap and every destination an empty target
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        targets = np.array([t.is_target for t in grid_layout_46.traps])
        rng = np.random.default_rng(17)
        for _ in range(20):
            occ = random_valid_occupancy(grid_layout_46, dec, rng)
            for m in asm.plan_plane(occ, grid_layout_46, dec, 0).moves:
                assert occ[m.from_index] and not targets[m.from_index]
                if m.kind == "transfer":
                    assert targets[m.to_index] and not occ[m.to_index]

    def test_replay_fills_targets(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            occ = random_valid_occupancy(grid_layout_46, dec, rng)
            plan = asm.plan_plane(occ, grid_layout_46, dec, 0)
            out = asm.apply_plan_lossless(occ, plan)
            for i, trap in enumerate(grid_layout_46.traps):
                assert out[i] == trap.is_target

    def test_deterministic(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = random_valid_occupancy(grid_layout_46, dec, np.random.default_rng(5))
        a = asm.plan_plane(occ, grid_layout_46, dec, 0)
        b = asm.plan_plane(occ.copy(), grid_layout_46, dec, 0)
        assert json.dumps(asm.plan_to_dict(asm.AssemblyPlan((a,)))) == json.dumps(
            asm.plan_to_dict(asm.AssemblyPlan((b,)))
        )

    def test_eject_exits_outside_hull(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = np.ones(46, dtype=bool)  # every trap loaded: 23 surplus
        plan = asm.plan_plane(occ, grid_layout_46, dec, 0)
        ejections = [m for m in plan.moves if m.kind == "eject"]
        assert len(ejections) == 23
        hull_xy = grid_layout_46.positions()[:, :2]
        for m in ejections:
            exit_xy = np.array(m.exit_um)
            d = np.linalg.norm(hull_xy - exit_xy, axis=1).min()
            assert d >= 19.0  # ~20 um outside, interior points are further
            assert np.max(np.abs(exit_xy)) <= 50.0


CONFIG_MAKERS = {
    "bilayer72": configs.bilayer72_config,
    "four_plane": configs.four_plane_config,
    "one_plane": configs.one_plane_config,
    **{name: functools.partial(configs.preset_experiment_config, name)
       for name in configs.PRESET_EXPERIMENT_PARAMS},
}


@functools.lru_cache(maxsize=None)
def cached_config(name):
    return CONFIG_MAKERS[name]()


def check_plan_plane(occ, lay, dec, p, policy):
    """The plan of plane ``p`` replays, fills exactly the plane's targets,
    leaves the other planes alone, stays in the plane, runs every transfer
    before every ejection and is reproducible."""
    plane = dec.planes[p]
    plane_of = dec.plane_of(len(lay.traps))
    targets = np.array([t.is_target for t in lay.traps])
    plan = asm.plan_plane(occ, lay, dec, p, policy)
    out = asm.apply_plan_lossless(occ, plan)
    mine = plane_of == p
    np.testing.assert_array_equal(out[mine], targets[mine])
    np.testing.assert_array_equal(out[~mine], occ[~mine])
    for m in plan.moves:
        assert plane_of[m.from_index] == p
        assert m.to_index is None or plane_of[m.to_index] == p
        assert all(pt.z == plane.z_center for pt in m.path)
    kinds = [m.kind for m in plan.moves]
    assert kinds == sorted(kinds, key=["transfer", "eject"].index)
    assert asm.plan_plane(occ, lay, dec, p, policy) == plan


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CONFIG_MAKERS)), seed=st.integers(0, 2**32 - 1))
    def test_plan_plane_invariants(self, name, seed):
        """``check_plan_plane`` on every sorted plane of a config, for a
        trigger-satisfying occupancy."""
        cfg = cached_config(name)
        lay, dec = cfg.layout, cfg.decomposition
        targets = np.array([t.is_target for t in lay.traps])
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            occ = rng.random(len(lay.traps)) < cfg.p_load
            if all(occ[list(pl.indices)].sum() >= targets[list(pl.indices)].sum()
                   for pl in dec.planes):
                break
        else:
            pytest.fail("no trigger-satisfying draw")
        for p, plane in enumerate(dec.planes):
            if targets[list(plane.indices)].any():
                check_plan_plane(occ, lay, dec, p, cfg.planner)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["grid", "line"]), seed=st.integers(0, 2**32 - 1),
           pitch=st.floats(2.5, 6.0))
    def test_plan_plane_invariants_random_layouts(self, kind, seed, pitch):
        """``check_plan_plane`` on a jittered grid or line with random
        targets and enough atoms: unlike the configs, such layouts defer
        moves, and sometimes every pending move is blocked."""
        rng = np.random.default_rng(seed)
        if kind == "grid":
            nx, ny = rng.integers(2, 8, size=2)
            xy = np.array([(i, j) for j in range(ny) for i in range(nx)]) * pitch
        else:
            xy = np.array([(i, 0) for i in range(rng.integers(4, 17))]) * pitch
        xy = xy + rng.normal(0.0, 0.15 * pitch, xy.shape)
        xy -= xy.mean(axis=0)
        n = len(xy)
        targets = np.nonzero(rng.random(n) < rng.uniform(0.2, 0.6))[0]
        lay = point_layout([(x, y, 0.0) for x, y in xy], targets=set(targets.tolist()))
        occ = np.zeros(n, dtype=bool)
        occ[rng.choice(n, size=rng.integers(targets.size, n + 1), replace=False)] = True
        check_plan_plane(occ, lay, geo.decompose_planes(lay, 1.0), 0, asm.PlannerPolicy())


class TestPlaneTable:
    def test_leg_blocked_like_corridor_edge(self, bilayer_layout):
        """The straight leg between a corridor edge's ends has the edge's
        in-plane blockers, the ends aside, also away from the default 2 um."""
        dec = geo.decompose_planes(bilayer_layout, 1.0)
        plane = dec.planes[0]
        policy = asm.PlannerPolicy(collision_radius_um=3.0)
        table = asm._plane_table(bilayer_layout, plane.indices, plane.z_center, policy)
        n, nh = table.n_nodes, table.n_hard
        assert n > nh  # the other plane's junctions take part
        blocked_beyond_2um = 0
        for ri, rj in zip(*np.nonzero(np.triu(table.adj))):
            i, j = sorted(int(k) for k in table.by_trap[[ri, rj]])
            edge_hard = np.zeros(nh, dtype=bool)
            edge_hard[table.cut_by[table.cut_at == ri * n + rj]] = True
            ends = [k for k in (i, j) if k < nh]
            assert not edge_hard[ends].any()
            others = np.ones(nh, dtype=bool)
            others[ends] = False
            leg = table.legs(j, outbound=False)[:, table.rank[i]][others]
            edge = edge_hard[others]
            np.testing.assert_array_equal(leg, edge)
            d = kernels.segment_point_distances(
                table.point_xy[:nh][others], table.point_xy[i][None], table.point_xy[j][None])
            blocked_beyond_2um += int((edge & (d[:, 0] >= 2.0)).sum())
        assert blocked_beyond_2um > 0

    def test_memo_keys_are_move_ends(self, monkeypatch):
        """The memos are keyed by a move's end points: a is an in-plane
        source (not a target) and b a target or a's exit.  So for s sources
        and t targets the detour memo holds at most s (t + 1) entries and
        the legs memo at most 2 s + t."""
        monkeypatch.setattr(asm, "_plane_table", functools.lru_cache(asm._PlaneTable))
        cfg = cached_config("bilayer72")
        rng = np.random.default_rng(17)
        for _ in range(20):
            occ = random_valid_occupancy(cfg.layout, cfg.decomposition, rng, p=cfg.p_load)
            for p in range(len(cfg.decomposition.planes)):
                asm.plan_plane(occ, cfg.layout, cfg.decomposition, p, cfg.planner)
        for plane in cfg.decomposition.planes:
            t = asm._plane_table(cfg.layout, plane.indices, plane.z_center, cfg.planner)
            n, nh = t.n_nodes, t.n_hard
            target = t.is_target[t.nodes[:nh]]
            s, tg = int((~target).sum()), int(target.sum())
            assert len(t.points) == n + nh
            assert all(0 <= a < nh and not target[a]
                       and (b < nh and target[b] or b == n + a) for a, b in t._detours)
            assert 0 < len(t._detours) <= s * (tg + 1)
            assert all(k < nh and (target[k] != outbound) or not outbound and k - n in range(nh)
                       for k, outbound in t._legs)
            assert 0 < len(t._legs) <= 2 * s + tg


class TestCorridorSearch:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["bilayer72", "one_plane"]),
           seed=st.integers(0, 2**32 - 1), p_load=st.floats(0.3, 0.8))
    def test_fewest_hops(self, name, seed, p_load):
        """``_route`` takes the straight leg when no occupied in-plane trap
        is near it, else the first detour waypoint with both legs clear.
        Else its corridor route has as few hops as a shortest-path search
        on the usable legs and edges finds, each of its hops is usable, it
        is the straight leg exactly when no such path exists, and its ties
        break on trap index: the last node is the first at its distance
        with a usable leg to b, each earlier one the first a level nearer
        adjacent to the next."""
        cfg = cached_config(name)
        plane = cfg.decomposition.planes[0]
        t = asm._plane_table(cfg.layout, plane.indices, plane.z_center, cfg.planner)
        n, nh = t.n_nodes, t.n_hard
        rng = np.random.default_rng(seed)
        sched = asm._Scheduler(t, rng.random(len(cfg.layout.traps)) < p_load)
        loaded = [i for i in plane.indices if sched.occ[i]]
        empty = [i for i in plane.indices if not sched.occ[i]]
        point_id = {id(p): k for k, p in enumerate(t.points)}
        for _ in range(10):
            src = int(rng.choice(loaded))
            if empty and rng.random() < 0.7:
                move = sched.transfer(src, int(rng.choice(empty)))
            else:
                move = sched.eject(src)
            path = sched._route(move)
            assert path[0] is t.points[move.a] and path[-1] is t.points[move.b]
            # live and free as _route builds them; the graph below has the
            # nodes in trap order, as the table's adjacency and legs do
            live = sched.occ_hard.copy()
            live[move.a] = False

            def clear(*xy):
                """The legs through ``xy`` pass no occupied trap but a."""
                xy = np.array(xy)
                d = kernels.segment_point_distances(t.point_xy[:nh][live], xy[:-1], xy[1:])
                return not (d < t.radius).any()

            a_xy, b_xy = t.point_xy[move.a], t.point_xy[move.b]
            if clear(a_xy, b_xy):
                assert len(path) == 2
                continue
            waypoints = [c for c in t.detour(move.a, move.b)[0] if clear(a_xy, c, b_xy)]
            if waypoints:
                assert len(path) == 3 and (path[1].x, path[1].y) == tuple(waypoints[0])
                continue
            free = np.ones(n, dtype=bool)
            free[:nh] = ~sched.occ_hard
            if move.dst is not None:
                free[move.b] = False
            free = free[t.by_trap]
            from_a = free & ~t.legs(move.a, outbound=True)[live].any(axis=0)
            to_b = ~t.legs(move.b, outbound=False)[live].any(axis=0)
            edge_ok = t.adj & free[:, None] & free[None, :]
            cut = np.divmod(t.cut_at[sched.occ_hard[t.cut_by]], n)
            edge_ok[cut] = False
            usable = np.zeros((n + 2, n + 2))  # the nodes, then a, then b
            usable[:n, :n] = edge_ok
            usable[n, :n] = from_a
            usable[:n, n + 1] = to_b
            dist = shortest_path(usable, unweighted=True, indices=n)
            hops = dist[n + 1]

            if np.isinf(hops):
                assert len(path) == 2
                continue
            nodes = [point_id[id(p)] for p in path[1:-1]]
            assert len(nodes) + 1 == hops
            ranks = t.rank[nodes]
            ids = [n] + ranks.tolist() + [n + 1]
            assert all(usable[u, v] for u, v in zip(ids, ids[1:]))
            assert ranks[-1] == np.flatnonzero((dist[:n] == hops - 1) & to_b)[0]
            for r, after in zip(ranks[:-1], ranks[1:]):
                assert r == np.flatnonzero((dist[:n] == dist[after] - 1) & edge_ok[:, after])[0]


class TestOtherPlaneJunctions:
    """Atoms in other planes are charged at pick and drop points only, so
    they never bend a path; their sites are free corridor junctions."""

    def test_occupied_other_plane_trap_leaves_straight_leg(self):
        # trap 2 sits 4 um above the midpoint of 0 -> 1, inside z_clearance_um
        lay = point_layout([(0, 0, 0), (10, 0, 0), (5, 0, 4)], targets=(1,))
        moves = plane_moves(np.array([True, False, True]), lay)
        assert pairs_of(moves) == [(0, 1)]
        assert len(moves[0].path) == 2

    def test_corridor_passes_occupied_junction(self):
        # 2 blocks the straight leg 0 -> 1 and 3, 4 every single-waypoint
        # detour (all three are filled targets); the only clear way round is
        # over trap 5, occupied, 4 um above the plane
        lay = point_layout([(-6, 0, 0), (6, 0, 0), (0, 0, 0),
                            (-3.17, 2.83, 0), (-3.17, -2.83, 0), (-6, 8, 4)],
                           targets=(1, 2, 3, 4))
        occ = np.array([True, False, True, True, True, True])
        moves = plane_moves(occ, lay)
        assert pairs_of(moves) == [(0, 1)]
        path = [(p.x, p.y) for p in moves[0].path]
        assert path == [(-6.0, 0.0), (-6.0, 8.0), (6.0, 0.0)]
        radius = asm.PlannerPolicy().collision_radius_um
        for blocker in (2, 3, 4):
            assert min_clearance(moves[0], lay.positions()[blocker, :2]) >= radius


class TestPlanAssembly:
    def test_single_plane(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = random_valid_occupancy(grid_layout_46, dec, np.random.default_rng(2))
        plan = asm.plan_assembly(occ, grid_layout_46, dec)
        assert len(plan.plans) == 1

    def test_bilayer(self, bilayer_layout):
        dec = geo.decompose_planes(bilayer_layout, 1.0)
        occ = random_valid_occupancy(bilayer_layout, dec, np.random.default_rng(3))
        plan = asm.plan_assembly(occ, bilayer_layout, dec)
        assert len(plan.plans) == 2
        assert [p.mt_z_um for p in plan.plans] == [pl.z_center for pl in dec.planes]
        out = asm.apply_plan_lossless(occ, plan)
        for i, trap in enumerate(bilayer_layout.traps):
            assert out[i] == trap.is_target

    def test_plane_isolation(self, bilayer_layout):
        dec = geo.decompose_planes(bilayer_layout, 1.0)
        occ = random_valid_occupancy(bilayer_layout, dec, np.random.default_rng(7))
        plan = asm.plan_assembly(occ, bilayer_layout, dec)
        for sub in plan.plans:
            members = set(dec.planes[sub.plane_index].indices)
            for m in sub.moves:
                assert m.from_index in members
                if m.to_index is not None:
                    assert m.to_index in members

    def test_atom_conservation(self, bilayer_layout):
        dec = geo.decompose_planes(bilayer_layout, 1.0)
        occ = random_valid_occupancy(bilayer_layout, dec, np.random.default_rng(9))
        plan = asm.plan_assembly(occ, bilayer_layout, dec)
        running = occ.copy()
        for sub in plan.plans:
            for m in sub.moves:
                before = running.sum()
                running = asm.apply_plan_lossless(running, asm.MovePlan(0, 0.0, (m,)))
                if m.kind == "transfer":
                    assert running.sum() == before
                else:
                    assert running.sum() == before - 1

    def test_totals(self, grid_layout_46):
        dec = geo.decompose_planes(grid_layout_46, 1.0)
        occ = random_valid_occupancy(grid_layout_46, dec, np.random.default_rng(13))
        plan = asm.plan_assembly(occ, grid_layout_46, dec)
        assert plan.total_moves == sum(len(p.moves) for p in plan.plans)
        assert plan.total_path_um > 0


class TestRemoveAll:
    """On a plane with no targets, plan_plane ejects every atom."""

    @staticmethod
    def untargeted(layout):
        return geo.TrapLayout(tuple(geo.TrapSite(t.position, is_target=False) for t in layout.traps))

    def test_empty_plane(self, grid_layout_46):
        lay = self.untargeted(grid_layout_46)
        dec = geo.decompose_planes(lay, 1.0)
        plan = asm.plan_plane(np.zeros(46, dtype=bool), lay, dec, 0)
        assert plan.moves == ()

    def test_23_of_46(self, grid_layout_46):
        lay = self.untargeted(grid_layout_46)
        dec = geo.decompose_planes(lay, 1.0)
        occ = np.zeros(46, dtype=bool)
        occ[np.random.default_rng(1).choice(46, size=23, replace=False)] = True
        plan = asm.plan_plane(occ, lay, dec, 0)
        assert len(plan.moves) == 23
        assert all(m.kind == "eject" for m in plan.moves)
        out = asm.apply_plan_lossless(occ, plan)
        assert not out.any()


class TestApplyPlan:
    def test_empty_plan_identity(self):
        occ = np.array([True, False, True])
        out = asm.apply_plan_lossless(occ, asm.MovePlan(0, 0.0, ()))
        np.testing.assert_array_equal(out, occ)

    def test_single_transfer(self):
        lay = line_layout(2, targets=[False, True])
        occ = np.array([True, False])
        moves = plane_moves(occ, lay)
        assert pairs_of(moves) == [(0, 1)]
        out = asm.apply_plan_lossless(occ, asm.MovePlan(0, 0.0, moves))
        assert not out[0] and out[1]

    def test_violation_reports_move_index(self):
        path = (geo.Vec3(0, 0, 0), geo.Vec3(5, 0, 0))
        bad = asm.MovePlan(
            0, 0.0, (asm.Move("transfer", 0, 1, None, path),)
        )
        with pytest.raises(asm.ExecutabilityError) as err:
            asm.apply_plan_lossless(np.array([False, False]), bad)
        assert err.value.move_index == 0

    def test_drop_onto_occupied_rejected(self):
        path = (geo.Vec3(0, 0, 0), geo.Vec3(5, 0, 0))
        bad = asm.MovePlan(0, 0.0, (
            asm.Move("eject", 2, None, (0.0, 20.0), path),
            asm.Move("transfer", 0, 1, None, path),
        ))
        with pytest.raises(asm.ExecutabilityError, match="occupied") as err:
            asm.apply_plan_lossless(np.array([True, True, True]), bad)
        assert err.value.move_index == 1

    def test_unknown_kind_rejected(self):
        path = (geo.Vec3(0, 0, 0), geo.Vec3(5, 0, 0))
        bad = asm.MovePlan(0, 0.0, (asm.Move("swap", 0, 1, None, path),))
        with pytest.raises(ValueError, match="unknown move kind"):
            asm.apply_plan_lossless(np.array([True, False]), bad)
