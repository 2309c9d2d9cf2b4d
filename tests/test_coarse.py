import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations

import pytest

import eqhom
from eqhom import coarse
from eqhom.coarse import (AmenabilityReport, CayleyBall, InfeasibleCut,
                          ModelMismatch, PonziCertificate, free_group_ponzi,
                          gromov_counterexample_report, isoperimetric_ratio,
                          max_flow, min_ponzi_bound, ponzi_feasible)
from eqhom.errors import BudgetError, CertificateError, PreconditionError
from eqhom.groups import (FreeAbelianGroup, FreeGroup, GroupPresentation,
                          ProductGroup, todd_coxeter)

from conftest import fixture_path

F2 = FreeGroup(2)
ZZ = FreeAbelianGroup(2)
Z1 = FreeAbelianGroup(1)
ZF2 = ProductGroup(FreeAbelianGroup(1, ("a",)), FreeGroup(2, ("s", "t")))
# an odd relator: edges join vertices of the same shell
ZZ3 = ProductGroup(FreeAbelianGroup(1, ("a",)),
                   todd_coxeter(GroupPresentation(("c",), ("ccc",)), 10))
# odd relator and a Z factor of two coordinates: outer-shell products one
# step past the ball must not alias ball vertices
Z2Z3 = ProductGroup(FreeAbelianGroup(2, ("a", "b")),
                    todd_coxeter(GroupPresentation(("c",), ("ccc",)), 10))
Z2F2 = ProductGroup(FreeAbelianGroup(2, ("a", "b")), FreeGroup(2, ("s", "t")))


def sort_key(model, element):
    """The canonical order that GroupModel.codes sorts in: shortlex for F_k,
    lexicographic exponents for Z^n, pairs for products, and element
    indices for finite groups."""
    if isinstance(model, ProductGroup):
        return sort_key(model.left, element[0]), sort_key(model.right, element[1])
    return (len(element), element) if isinstance(model, FreeGroup) else element


def reference_ball(model, radius):
    """Plain BFS with list-scan discovery: (vertices, depth, index, edges)."""
    letters = []
    for g in model.generators:
        for e in (+1, -1):
            s = model.gen_element(g, e)
            if s not in letters:
                letters.append(s)
    vertices, depth = [model.identity], [0]
    frontier = [model.identity]
    for d in range(1, radius + 1):
        new = []
        for v in frontier:
            for s in letters:
                w = model.mul(v, s)
                if w not in vertices and w not in new:
                    new.append(w)
        new.sort(key=lambda x: sort_key(model, x))
        vertices += new
        depth += [d] * len(new)
        frontier = new
    index = {v: i for i, v in enumerate(vertices)}
    edges = sorted({(min(i, j), max(i, j))
                    for i, v in enumerate(vertices) for s in letters
                    for j in [index.get(model.mul(v, s))]
                    if j is not None and j != i})
    return vertices, depth, index, edges


def two_way(arc):
    """(u, v, capacity, reverse capacity) of a 3- or 4-tuple arc."""
    return (*arc, 0)[:4]


def brute_force_min_bound(ball):
    """Scan t = 1, 2, ... up to the first feasible bound."""
    t = 1
    while not ponzi_feasible(ball, t).feasible:
        t += 1
    return t


def count_phases(monkeypatch):
    """A list that gets one entry per Dinic blocking phase from now on."""
    phases = []
    blocking = coarse.FlowNetwork._blocking

    def counted(self, s, t, level):
        phases.append(t)
        return blocking(self, s, t, level)

    monkeypatch.setattr(coarse.FlowNetwork, "_blocking", counted)
    return phases


def count_max_flows(monkeypatch):
    """A list that gets the arguments of every coarse.max_flow call from now on."""
    calls = []
    flow = coarse.max_flow

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(coarse, "max_flow", counted)
    return calls


class TestBalls:
    def test_z2_radius_2(self):
        ball = CayleyBall(ZZ, 2)
        assert len(ball) == 13
        assert ball.inner_count == 5

    def test_f2_radius_2(self):
        assert len(CayleyBall(F2, 2)) == 17

    def test_radius_one_is_star(self):
        for model, size in ((ZZ, 5), (F2, 5), (Z1, 3)):
            ball = CayleyBall(model, 1)
            assert len(ball) == size
            assert ball.inner_count == 1

    def test_closed_forms(self):
        for r in range(1, 7):
            assert len(CayleyBall(ZZ, r)) == 2 * r * r + 2 * r + 1
            assert len(CayleyBall(F2, r)) == 2 * 3 ** r - 1

    def test_product_ball(self):
        pg = ProductGroup(FreeAbelianGroup(1, ("a",)), FreeGroup(2, ("s", "t")))
        ball = CayleyBall(pg, 2)
        # |B_1| = 7 (two abelian moves, four tree moves, identity)
        assert ball.depth.count(0) == 1 and ball.depth.count(1) == 6

    def test_vertex_budget(self, monkeypatch):
        monkeypatch.setattr(coarse, "BUDGET", 161)
        assert len(CayleyBall(F2, 4)) == 161
        for model, radius in ((F2, 5), (ZZ, 9)):  # 485 and 181 vertices
            with pytest.raises(BudgetError) as exc:
                CayleyBall(model, radius)
            assert type(exc.value) is BudgetError
            assert str(exc.value) == f"Cayley ball of radius {radius} exceeds 161 vertices"

    def test_finite_model_rejected(self):
        z2 = todd_coxeter(GroupPresentation(("a",), ("aa",)), 5)
        with pytest.raises(PreconditionError,
                           match="^balls in finite groups stabilize; the probe is vacuous$"):
            CayleyBall(z2, 2)

    def test_crossing_count_z2(self):
        for r in range(2, 7):
            ball = CayleyBall(ZZ, r)
            assert len(ball.crossing_edges()) == 4 * (2 * r - 1)

    @pytest.mark.parametrize("model", [ZZ, F2, FreeGroup(3), ZF2, FreeAbelianGroup(3), Z2F2],
                             ids=["z2", "f2", "f3", "z_x_f2", "z3", "z2_x_f2"])
    def test_bipartite_models_have_no_edge_inside_a_shell(self, model):
        # Balls of bipartite models skip the outermost shell's products.
        # The radius-5 ball holds every smaller one as its depth prefix.
        assert model.bipartite
        _, depth, _, edges = reference_ball(model, 5)
        assert all(depth[i] != depth[j] for i, j in edges)
        assert CayleyBall(model, 5).edges == edges

    def test_odd_relator_scans_the_outer_shell(self):
        assert not ZZ3.bipartite
        ball = CayleyBall(ZZ3, 3)
        assert any(ball.depth[i] == ball.depth[j] == 3 for i, j in ball.edges)

    MODELS = [ZZ, F2, FreeGroup(3), ZF2, ZZ3, FreeAbelianGroup(3), Z2F2, Z2Z3]
    MODEL_IDS = ["z2", "f2", "f3", "z_x_f2", "z_x_z3", "z3", "z2_x_f2", "z2_x_z3"]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_bfs_order_matches_reference(self, model):
        for r in range(1, 6):
            ball = CayleyBall(model, r)
            # The edges' index pairs pin the BFS order of the vertices.
            _, depth, _, edges = reference_ball(model, r)
            assert ball.depth == depth
            assert ball.edges == edges

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_codes_order_like_the_sort_key_one_step_past_the_ball(self, model):
        for r in range(1, 4):
            encode, _, bound = model.codes(r)
            elements = reference_ball(model, r + 1)[0]
            codes = [encode(x) for x in elements]
            assert all(0 <= c < bound for c in codes)
            assert sorted(codes) == [encode(x) for x in
                                     sorted(elements, key=lambda x: sort_key(model, x))]
            assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_steps_are_products(self, model):
        r = 3
        encode, step, _ = model.codes(r)
        elements = reference_ball(model, r)[0]
        codes = [encode(x) for x in elements]
        for g in model.generators:
            for e in (1, -1):
                s = model.gen_element(g, e)
                assert step(codes, encode(s)) == [encode(model.mul(x, s)) for x in elements]


class TestMaxFlow:
    def test_single_edge(self):
        assert max_flow(2, [(0, 1, 5)], 0, 1).value == 5

    def test_two_disjoint_paths(self):
        arcs = [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)]
        assert max_flow(4, arcs, 0, 3).value == 2

    def test_cut_certifies(self):
        arcs = [(0, 1, 3), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 3)]
        res = max_flow(4, arcs, 0, 3)
        assert res.value == 5
        assert sum(arcs[i][2] for i in res.cut_arcs) == res.value

    @staticmethod
    def cut_capacity(arcs, side):
        """Capacity forwards out of side plus reverse capacity into it."""
        return sum(c if u in side else rc for u, v, c, rc in map(two_way, arcs)
                   if (u in side) != (v in side))

    def brute_force_min_cut(self, n, arcs, s, t):
        best = None
        others = [v for v in range(n) if v not in (s, t)]
        for k in range(len(others) + 1):
            for sub in combinations(others, k):
                cap = self.cut_capacity(arcs, {s} | set(sub))
                best = cap if best is None else min(best, cap)
        return best

    @staticmethod
    def random_networks():
        """120 seeded networks (n, arcs) of 2-8 vertices, source 0, sink n - 1."""
        rng = random.Random(12)
        for _ in range(120):
            n = rng.randint(2, 8)
            arcs = []
            for _ in range(rng.randint(1, 14)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.append((u, v, rng.randint(0, 6)))
            yield n, arcs

    def test_against_brute_force(self):
        for n, arcs in self.random_networks():
            s, t = 0, n - 1
            res = max_flow(n, arcs, s, t)
            assert res.value == self.brute_force_min_cut(n, arcs, s, t)

    @staticmethod
    def random_flow(n, arcs, s, t, rng):
        """A feasible flow: random pushes along residual s-t paths and cycles."""
        arcs = [two_way(a) for a in arcs]
        flows = [0] * len(arcs)
        for _ in range(rng.randint(1, 8)):
            moves = [[] for _ in range(n)]
            for a, (u, v, c, rc) in enumerate(arcs):
                if flows[a] < c:
                    moves[u].append((v, a, 1))
                if flows[a] > -rc:
                    moves[v].append((u, a, -1))
            x = rng.choice([s] + list(range(n)))
            goal = t if x == s else x
            seen = {x}

            def walk(v):
                # a random residual path from v to goal, as (arc, sign) moves
                for w, a, sign in rng.sample(moves[v], len(moves[v])):
                    if w == goal:
                        return [(a, sign)]
                    if w not in seen:
                        seen.add(w)
                        rest = walk(w)
                        if rest is not None:
                            return [(a, sign)] + rest
                return None

            path = walk(x)
            if path:
                room = min(arcs[a][2] - flows[a] if sign > 0
                           else flows[a] + arcs[a][3] for a, sign in path)
                amount = rng.randint(1, room)
                for a, sign in path:
                    flows[a] += sign * amount
        return flows

    def test_warm_start_matches_cold(self):
        rng = random.Random(5)
        warm_starts = 0
        for n, arcs in self.random_networks():
            s, t = 0, n - 1
            cold = max_flow(n, arcs, s, t)
            start = self.random_flow(n, arcs, s, t, rng)
            warm_starts += any(start)
            warm = max_flow(n, arcs, s, t, start)
            assert warm.value == cold.value
            assert warm.source_side == cold.source_side
            assert warm.cut_arcs == cold.cut_arcs
            net = [0] * n
            for (u, v, c), f in zip(arcs, warm.arc_flows):
                assert 0 <= f <= c
                net[u] -= f
                net[v] += f
            assert net[t] == warm.value
            assert not any(net[v] for v in range(1, n - 1))
        assert warm_starts >= 50  # 55 of the 120; 43 networks carry flow

    def test_start_must_be_a_flow(self):
        arcs = [(0, 1, 2), (1, 2, 2)]
        assert max_flow(3, arcs, 0, 2, [1, 1]).value == 2
        for start in ([3, 0], [-1, -1], [1, 0], [1]):
            with pytest.raises(ValueError):
                max_flow(3, arcs, 0, 2, start)

    @staticmethod
    def random_two_way_networks():
        """80 seeded networks of 2-7 vertices, source 0, sink n - 1, whose
        arcs are two-way (u, v, c, rc) or, one in three, (u, v, c)."""
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(2, 7)
            arcs = []
            for _ in range(rng.randint(1, 12)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arc = (u, v, rng.randint(0, 6), rng.randint(0, 6))
                    arcs.append(arc[:3] if rng.randrange(3) == 0 else arc)
            yield n, arcs

    def test_two_way_arcs_against_brute_force(self):
        rng = random.Random(9)
        negative_starts = 0
        for n, arcs in self.random_two_way_networks():
            s, t = 0, n - 1
            cold = max_flow(n, arcs, s, t)
            assert cold.value == self.brute_force_min_cut(n, arcs, s, t)
            side = cold.source_side
            assert self.cut_capacity(arcs, side) == cold.value
            assert cold.cut_arcs == [
                i for i, (u, v, c, rc) in enumerate(map(two_way, arcs))
                if (u in side) != (v in side) and (c if u in side else rc) > 0]
            start = self.random_flow(n, arcs, s, t, rng)
            negative_starts += any(f < 0 for f in start)
            warm = max_flow(n, arcs, s, t, start)
            assert warm.value == cold.value
            assert warm.source_side == cold.source_side
            assert warm.cut_arcs == cold.cut_arcs
            for res in (cold, warm):
                net = [0] * n
                for (u, v, c, rc), f in zip(map(two_way, arcs), res.arc_flows):
                    assert -rc <= f <= c
                    net[u] -= f
                    net[v] += f
                assert net[t] == res.value
                assert not any(net[v] for v in range(1, n - 1))
        assert negative_starts >= 25  # 29 of the 80; 47 networks carry flow
        arcs = [(0, 1, 2, 1), (1, 2, 2, 1)]
        assert max_flow(3, arcs, 0, 2, [-1, -1]).value == 2
        for start in ([-2, -2], [3, 3]):  # conserved, but out of [-rc, c]
            with pytest.raises(ValueError, match="flow <= capacity"):
                max_flow(3, arcs, 0, 2, start)

    PONZI_NETWORKS = ([(ZZ, r) for r in range(1, 9)]
                      + [(F2, r) for r in range(1, 5)] + [(ZF2, 2)]
                      + [(ZZ3, r) for r in range(1, 6)])

    def test_ponzi_networks_against_networkx(self):
        """The unmerged network, built here: source -> every shell vertex
        without limit, both arcs of every ball edge (shell-shell ones too),
        inner -> sink.  Its max flow value, and its minimal min cut read off
        the residual graph, match ponzi_feasible's answer."""
        nx = pytest.importorskip("networkx")
        for model, r in self.PONZI_NETWORKS:
            ball = CayleyBall(model, r)
            source, sink = len(ball), len(ball) + 1
            for bound in (1, 2, 3):
                graph = nx.DiGraph()
                graph.add_edges_from((source, v) for v, d in enumerate(ball.depth) if d == r)
                for i, j in ball.edges:
                    graph.add_edge(i, j, capacity=bound)
                    graph.add_edge(j, i, capacity=bound)
                graph.add_edges_from(((v, sink) for v in range(ball.inner_count)),
                                     capacity=1)
                residual = nx.algorithms.flow.edmonds_karp(graph, source, sink)
                want = residual.graph["flow_value"]
                res = ponzi_feasible(ball, bound)
                case = (model.describe(), r, bound)
                if res.feasible:
                    assert want == ball.inner_count, case
                    continue
                assert want == res.capacity < res.demand, case
                open_arcs = nx.DiGraph((u, v) for u, v, d in residual.edges(data=True)
                                       if d["flow"] < d["capacity"])
                open_arcs.add_node(source)
                side = nx.descendants(open_arcs, source) | {source}
                assert res.source_side == side, case
                assert res.cut_edges == [(i, j) for i, j in ball.edges
                                         if (i in side) != (j in side)], case

    def test_two_way_pairs_match_two_arcs(self, monkeypatch):
        """The network with the two arcs (i, j, t) and (j, i, t) of every
        inner edge, built here, runs the same Dinic phases as
        _ponzi_network's one two-way arc per edge, to the same flows and the
        same cuts: from zero flow, and from _greedy_start's flow split into
        (max(f, 0), max(-f, 0)) per pair, the start ponzi_feasible takes."""
        phases = count_phases(monkeypatch)
        for model, r in self.PONZI_NETWORKS:
            ball = CayleyBall(model, r)
            m = ball.inner_count
            source, sink = m, m + 1
            inner = [(i, j) for i, j in ball.edges if j < m]
            crossing = [(i, j) for i, j in ball.edges if i < m <= j]
            k = len(inner)
            pairs = 2 * k
            for bound in (1, 2, 3):
                two = [a for i, j in inner for a in ((i, j, bound), (j, i, bound))]
                two += [(source, i, bound) for i, _ in crossing]
                two += [(v, sink, 1) for v in range(m)]
                arcs = list(coarse._ponzi_network(ball, bound)[0])
                greedy = coarse._greedy_start(ball, bound, inner, crossing)
                split = [x for f in greedy[:k] for x in (max(f, 0), max(-f, 0))]
                split += greedy[k:]
                case = (model.describe(), r, bound)
                for start, two_start in ((None, None), (greedy, split)):
                    del phases[:]
                    res = max_flow(sink + 1, two, source, sink, two_start)
                    two_arc_phases = len(phases)
                    del phases[:]
                    one = max_flow(sink + 1, arcs, source, sink, start)
                    assert len(phases) == two_arc_phases, (case, start is None)
                    f = res.arc_flows
                    assert ([x - y for x, y in zip(f[0:pairs:2], f[1:pairs:2])]
                            + f[pairs:]) == one.arc_flows, (case, start is None)
                    assert sorted(a // 2 if a < pairs else a - k
                                  for a in res.cut_arcs) == one.cut_arcs, case
                    assert (res.value, res.source_side) == (one.value, one.source_side)
                del phases[:]
                probe = ponzi_feasible(ball, bound)
                assert len(phases) == two_arc_phases, case
                assert probe.feasible == (res.value == m), case
                if probe.feasible:
                    flow = {e: x - y for e, x, y in
                            zip(inner, f[0:pairs:2], f[1:pairs:2]) if x != y}
                    flow.update((e, -x) for e, x in zip(crossing, f[pairs:]) if x)
                    assert probe.flow == flow, case
                else:
                    edges = inner + crossing
                    cut = sorted(edges[a // 2 if a < pairs else a - k]
                                 for a in res.cut_arcs if a < pairs + len(crossing))
                    assert (probe.capacity, probe.cut_edges) == (res.value, cut), case


class TestGreedyStart:
    """_greedy_start, the flow a Ponzi max flow starts from unless it is
    given one."""

    def test_is_a_flow_below_the_max_flow(self):
        for model, r in TestMaxFlow.PONZI_NETWORKS:
            ball = CayleyBall(model, r)
            for bound in (1, 2, 3):
                arcs, inner, crossing, source, sink = coarse._ponzi_network(ball, bound)
                arcs = list(arcs)
                start = coarse._greedy_start(ball, bound, inner, crossing)
                case = (model.describe(), r, bound)
                assert len(start) == len(arcs), case
                net = [0] * (sink + 1)
                for a, f in zip(arcs, start):
                    u, v, c, rc = two_way(a)
                    assert -rc <= f <= c, case
                    net[u] -= f
                    net[v] += f
                assert not any(net[:source]), case  # conserved at every inner vertex
                value = net[sink]
                assert value <= max_flow(sink + 1, arcs, source, sink).value, case
                if model is F2 and bound == 1:
                    assert value == ball.inner_count, case

    def test_tree_needs_no_phase(self, monkeypatch):
        phases = count_phases(monkeypatch)
        cert = ponzi_feasible(CayleyBall(F2, 8), 1)
        assert cert.feasible
        assert phases == []

    def test_a_faulty_start_is_refused(self, monkeypatch):
        # The greedy start routes here, so the probe checks it on the ball's
        # edges: a fault in it raises CertificateError, not an assert that
        # -O would drop.
        greedy = coarse._greedy_start

        def leaky(*args):
            flows = greedy(*args)
            flows[0] += 1  # the first inner edge, one more unit: not conserved
            return flows

        monkeypatch.setattr(coarse, "_greedy_start", leaky)
        with pytest.raises(CertificateError, match="bound-2 Ponzi certificate"):
            ponzi_feasible(CayleyBall(ZZ, 4), 2)


class TestGreedyRoutes:
    """A greedy start that fills every unit sink arc is a maximum flow:
    the probe checks it once, by PonziCertificate.check on the ball's
    edges, and returns it without running max_flow."""

    BALLS = [(F2, r) for r in range(1, 9)] + [(ProductGroup(
        FreeAbelianGroup(3, ("a", "b", "c")), FreeGroup(2, ("s", "t"))), 3)]

    def test_flow_is_the_max_flow_from_the_greedy_start(self, monkeypatch):
        calls = count_max_flows(monkeypatch)  # not the max_flow called below
        for model, r in self.BALLS:
            ball = CayleyBall(model, r)
            for bound in (1, 2, 3):
                arcs, inner, crossing, source, sink = coarse._ponzi_network(ball, bound)
                greedy = coarse._greedy_start(ball, bound, inner, crossing)
                res = max_flow(sink + 1, list(arcs), source, sink, greedy)
                assert res.value == ball.inner_count
                flow = {e: x for e, x in zip(inner, res.arc_flows) if x}
                flow.update((e, -x) for e, x in zip(crossing, res.arc_flows[len(inner):]) if x)
                cert = ponzi_feasible(ball, bound)
                assert cert.feasible and cert.flow == flow, (model.describe(), r, bound)
        assert calls == []  # the greedy start routes every one of these probes

    def test_no_max_flow_behind_a_routing_greedy_start(self, monkeypatch):
        calls = count_max_flows(monkeypatch)
        assert ponzi_feasible(CayleyBall(F2, 8), 1).feasible
        assert free_group_ponzi(CayleyBall(F2, 8)).verify()
        assert calls == []
        res = min_ponzi_bound(CayleyBall(ZZ, 25))
        assert res.t_min == 8
        assert len(calls) == 1  # the probe at 8 resumes on the network of 7

    @staticmethod
    def refuse_max_flow(monkeypatch):
        def no_max_flow(*args):
            raise AssertionError("max_flow ran")

        monkeypatch.setattr(coarse, "max_flow", no_max_flow)

    @pytest.mark.parametrize("fault", ["leak", "over"],
                             ids=["leak-start is not a flow", "over-flow <= capacity"])
    def test_a_faulty_start_is_refused_on_a_tree(self, monkeypatch, fault):
        # Both faults leave every unit sink arc full, so the certificate
        # check alone stands between them and a certificate.
        greedy = coarse._greedy_start

        def faulty(ball, t, inner, crossing):
            flows = greedy(ball, t, inner, crossing)
            if fault == "leak":
                flows[0] += 1  # the first inner edge, one more unit: not conserved
            else:
                # two source arcs into one vertex: conserved, but one is
                # out of its capacities [0, 1]
                assert crossing[0][0] == crossing[1][0]
                flows[len(inner)] += 1
                flows[len(inner) + 1] -= 1
            return flows

        monkeypatch.setattr(coarse, "_greedy_start", faulty)
        self.refuse_max_flow(monkeypatch)
        with pytest.raises(CertificateError, match="bound-1 Ponzi certificate"):
            ponzi_feasible(CayleyBall(F2, 4), 1)

    @pytest.mark.parametrize("fault", ["inner-over", "non-edge"])
    def test_the_routed_check_refuses(self, monkeypatch, fault):
        # Z^3 x F_2 at radius 3 routes at bound 1 and has squares of inner
        # edges.  Each fault keeps every unit sink arc full and every inner
        # vertex conserved; a leak is the tree test's "leak".
        greedy = coarse._greedy_start

        def faulty(ball, t, inner, crossing):
            flows = greedy(ball, t, inner, crossing)
            if fault == "inner-over":
                # 2t + 1 units around a square 0 -> x -> z -> y -> 0 of inner
                # edges: conserved, and every edge of it carries more than t
                arc = {e: a for a, e in enumerate(inner)}
                x, y = [j for i, j in inner if i == 0][:2]
                z = next(w for w in range(1, len(ball))
                         if (min(x, w), max(x, w)) in arc and (min(y, w), max(y, w)) in arc)
                for u, w in ((0, x), (x, z), (z, y), (y, 0)):
                    flows[arc[min(u, w), max(u, w)]] += (2 * t + 1) * (1 if u < w else -1)
            else:
                # an inner edge that carries nothing, re-keyed as a non-edge
                # at the identity that carries a unit: no divergence that the
                # check recounts on the ball's edges changes
                a = flows.index(0, 0, len(inner))
                edges = set(ball.edges)
                inner[a] = next((0, w) for w in range(1, len(ball)) if (0, w) not in edges)
                flows[a] = 1
            return flows

        monkeypatch.setattr(coarse, "_greedy_start", faulty)
        self.refuse_max_flow(monkeypatch)
        with pytest.raises(CertificateError, match="bound-1 Ponzi certificate"):
            ponzi_feasible(CayleyBall(self.BALLS[-1][0], 3), 1)

    def test_an_outward_crossing_flow_verifies(self, monkeypatch):
        # One unit more into an inner vertex through one crossing edge, and
        # out to the shell through another: a Ponzi certificate may push
        # mass out to the shell, within the bound.
        greedy = coarse._greedy_start
        moved = []

        def outward(ball, t, inner, crossing):
            flows = greedy(ball, t, inner, crossing)
            k = len(inner)
            a, b = next((a, b) for a in range(k, k + len(crossing))
                        for b in range(k, k + len(crossing))
                        if a != b and crossing[a - k][0] == crossing[b - k][0]
                        and flows[a] < t and flows[b] == 0)
            flows[a] += 1
            flows[b] -= 1
            moved.append(crossing[b - k])
            return flows

        monkeypatch.setattr(coarse, "_greedy_start", outward)
        self.refuse_max_flow(monkeypatch)
        ball = CayleyBall(F2, 4)
        cert = ponzi_feasible(ball, 2)
        (i, j), = moved
        assert cert.flow[i, j] == 1 and i < ball.inner_count <= j  # inner -> shell
        div = [0] * len(ball)
        for (u, v), f in cert.flow.items():
            assert (u, v) in ball.edges and abs(f) <= 2
            div[v] += f
            div[u] -= f
        assert div[:ball.inner_count] == [1] * ball.inner_count


class TestPonzi:
    def test_f2_bound_one_feasible(self):
        ball = CayleyBall(F2, 4)
        cert = ponzi_feasible(ball, 1)
        assert cert.feasible and cert.verify()

    def test_z2_radius_6_infeasible_with_counting_cut(self):
        ball = CayleyBall(ZZ, 6)
        inner, crossing, _ = isoperimetric_ratio(ball)
        assert (inner, crossing) == (61, 44)
        assert crossing < inner  # the counting obstruction
        res = ponzi_feasible(ball, 1)
        assert isinstance(res, InfeasibleCut)
        assert res.capacity < res.demand == 61

    def test_full_bound_always_feasible(self):
        for model, r in ((ZZ, 3), (F2, 2), (Z1, 4)):
            ball = CayleyBall(model, r)
            cert = ponzi_feasible(ball, ball.inner_count)
            assert cert.feasible and cert.verify()

    def test_certificate_verifier_catches_tampering(self):
        ball = CayleyBall(F2, 3)
        cert = free_group_ponzi(ball)
        assert cert.verify()
        bad = PonziCertificate(ball, cert.bound, dict(cert.flow))
        edge = next(iter(bad.flow))
        bad.flow[edge] += 1
        assert not bad.verify()
        with pytest.raises(CertificateError):
            bad.check()

    def test_verifier_rejects_reversed_key(self):
        cert = free_group_ponzi(CayleyBall(F2, 3))
        (i, j), f = next(iter(cert.flow.items()))
        flow = dict(cert.flow)
        del flow[(i, j)]
        flow[(j, i)] = -f  # the same net flow, under a key that is no edge
        assert not PonziCertificate(cert.ball, cert.bound, flow).verify()

    def test_verifier_rejects_non_adjacent_key(self):
        ball = CayleyBall(ZZ, 3)
        cert = ponzi_feasible(ball, 1)
        far = (0, len(ball) - 1)
        assert far not in ball.edges
        flow = dict(cert.flow)
        flow[far] = 0  # changes no divergence
        assert not PonziCertificate(ball, cert.bound, flow).verify()

    def test_verifier_rejects_flow_over_bound(self):
        ball = CayleyBall(ZZ, 6)
        cert = ponzi_feasible(ball, 2)
        assert cert.verify() and max(map(abs, cert.flow.values())) == 2
        assert not PonziCertificate(ball, 1, cert.flow).verify()

    def test_bound_bounds_flow(self):
        ball = CayleyBall(ZZ, 3)
        res = min_ponzi_bound(ball)
        assert all(abs(f) <= res.t_min for f in res.certificate.flow.values())


class TestMinBound:
    def test_f2_all_radii(self):
        for r in range(1, 7):
            res = min_ponzi_bound(CayleyBall(F2, r))
            assert res.t_min == 1
            assert res.certificate.verify()

    def test_z2_radius_6(self):
        res = min_ponzi_bound(CayleyBall(ZZ, 6))
        assert res.t_min == 2
        assert res.cut_below is not None
        assert res.cut_below.capacity < 61

    def test_z2_nondecreasing_and_flux_bound(self):
        last = 0
        for r in range(1, 7):
            ball = CayleyBall(ZZ, r)
            res = min_ponzi_bound(ball)
            assert res.t_min >= last
            last = res.t_min
            inner, crossing, _ = isoperimetric_ratio(ball)
            assert res.t_min >= -(-inner // crossing)

    def test_z1_linear_growth(self):
        for r in range(2, 9):
            res = min_ponzi_bound(CayleyBall(Z1, r))
            assert res.t_min >= -(-(2 * r - 1) // 2)

    BRUTE_FORCE_BALLS = ([(Z1, r) for r in range(1, 10)]
                         + [(ZZ, r) for r in range(1, 9)]
                         + [(F2, r) for r in range(1, 4)]
                         + [(ZF2, 2)]
                         # these step past t + 1 and probe step - 1: the
                         # bipartite Z^2 at radius 28 (probes 7, 8, 9) and
                         # the non-bipartite ZZ3 at radii 6 and 7
                         + [(ZZ, 28)]
                         + [(ZZ3, r) for r in range(1, 8)])

    def test_search_agrees_with_brute_force(self):
        kinds = set()
        for model, r in self.BRUTE_FORCE_BALLS:
            ball = CayleyBall(model, r)
            res = min_ponzi_bound(ball)
            t_min = brute_force_min_bound(ball)
            assert res.t_min == t_min, (model.describe(), r)
            # The certificate's flow may differ from ponzi_feasible's at
            # t_min; the cut below it may not, since the residual source side
            # is the same for every maximum flow.
            assert res.certificate.bound == t_min
            assert res.certificate.check() is res.certificate
            if t_min == 1:
                assert res.cut_below is None
            else:
                below = ponzi_feasible(ball, t_min - 1)
                assert res.cut_below.capacity == below.capacity
                assert res.cut_below.cut_edges == below.cut_edges
                assert res.cut_below.source_side == below.source_side
            inner, crossing, _ = isoperimetric_ratio(ball)
            flux = -(-inner // crossing)
            kinds.add("one" if t_min == 1 else
                      "flux" if t_min == flux else "above flux")
        assert kinds == {"one", "flux", "above flux"}

    def test_warm_search_runs_fewer_phases(self, monkeypatch):
        # The flux bound 7 is infeasible, and its cut's slope steps straight
        # to t_min = 8: two probes, one max_flow call, and the probe at 8
        # resumes from the flow at 7.
        phases, calls = count_phases(monkeypatch), count_max_flows(monkeypatch)
        res = min_ponzi_bound(CayleyBall(ZZ, 25))
        assert (res.t_min, res.cut_below.capacity) == (8, 1176)
        assert len(calls) == 1
        assert len(phases) <= 32

    @pytest.mark.parametrize("r, t_min, cap", [(28, 9, 45), (40, 12, 70)])
    def test_raised_probes_run_fewer_phases(self, monkeypatch, r, t_min, cap):
        # Z^2 at radius 28 probes 7, then 8 (step - 1 for step 9), then 9;
        # each probe after the first resumes on one network (43 and 66
        # phases, against 66 and 89 with a greedy start per probe).
        phases = count_phases(monkeypatch)
        assert min_ponzi_bound(CayleyBall(ZZ, r)).t_min == t_min
        assert len(phases) <= cap

    @pytest.mark.parametrize("model, r, fake", [(ZZ3, 6, 4), (ZZ, 6, 1)],
                             ids=["warm-step", "below-flux"])
    def test_probe_below_t_min_must_not_route(self, monkeypatch, model, r, fake):
        # ZZ3 r6 probes 3, then raises to 4 (step - 1 for step 5), then 5;
        # Z^2 r6 routes at its flux bound 2 and probes 1 for the cut through
        # ponzi_feasible.  A forged flow at `fake` must raise
        # CertificateError, not an assert that -O would drop.
        probes = coarse._ponzi_probes

        def forged(ball, t):
            real = probes(ball, t)
            result = next(real)
            while True:
                forgery = next(probes(ball, ball.inner_count)) if t == fake else result
                t = yield forgery
                result = real.send(t)

        monkeypatch.setattr(coarse, "_ponzi_probes", forged)
        with pytest.raises(CertificateError, match=f"t = {fake} routes below"):
            min_ponzi_bound(CayleyBall(model, r))

    def test_boundary_monotonicity(self):
        ball = CayleyBall(ZZ, 5)
        res = min_ponzi_bound(ball)
        assert ponzi_feasible(ball, res.t_min).feasible
        if res.t_min > 1:
            assert not ponzi_feasible(ball, res.t_min - 1).feasible
        assert ponzi_feasible(ball, res.t_min + 1).feasible  # monotone up


class TestFreeGroupScheme:
    def test_radius_one(self):
        cert = free_group_ponzi(CayleyBall(F2, 1))
        assert cert.verify()
        assert sum(1 for v in cert.flow.values() if v) == 1

    def test_f2_radius_3(self):
        assert free_group_ponzi(CayleyBall(F2, 3)).verify()

    def test_f3_radius_2(self):
        cert = free_group_ponzi(CayleyBall(FreeGroup(3), 2))
        assert cert.verify()

    def test_flows_within_unit(self):
        cert = free_group_ponzi(CayleyBall(F2, 4))
        assert set(cert.flow.values()) <= {1, -1}

    def test_wrong_model(self):
        with pytest.raises(ModelMismatch):
            free_group_ponzi(CayleyBall(ZZ, 2))
        with pytest.raises(ModelMismatch):
            free_group_ponzi(CayleyBall(FreeGroup(1), 2))


class TestIsoperimetric:
    def test_z2_radius_6(self):
        ratio = isoperimetric_ratio(CayleyBall(ZZ, 6))[2]
        assert isinstance(ratio, Fraction) and ratio == Fraction(61, 44)

    def test_f2_ratio_bounded(self):
        for r in range(1, 5):
            _, _, ratio = isoperimetric_ratio(CayleyBall(F2, r))
            assert ratio <= 1

    def test_radius_one(self):
        assert isoperimetric_ratio(CayleyBall(ZZ, 1))[0] == 1


class TestReports:
    def test_flux_invariant_enforced(self):
        report = AmenabilityReport("test")
        with pytest.raises(CertificateError):
            report.add(2, 13, 10, 4, 1)  # 1 < ceil(10/4)

    def test_certified_direction(self):
        report = gromov_counterexample_report(5, 4)
        assert report.certified
        text = report.render()
        for header in ("[H_n(Z^n)]", "[F2 ponzi]", "[tensor argument]"):
            assert header in text
        assert "MECHANISM CERTIFIED" in text
        kv = report.render_kv()
        assert "verdict = certified" in kv

    def test_minimal_radius(self):
        report = gromov_counterexample_report(5, 2)
        assert report.certified

    def test_low_rank_warns(self):
        report = gromov_counterexample_report(3, 3)
        assert "warning" in report.render()

    def test_amenable_replacement_declined(self):
        factor = FreeAbelianGroup(2, names=("u", "v"))
        report = gromov_counterexample_report(5, 4, factor=factor)
        assert not report.certified
        assert "DECLINED" in report.render()
        trace = [int(x) for x in report.kv["t_min_trace"].split(",")]
        assert max(trace) > 1  # growth shows up in the probed range
        assert trace == sorted(trace)


class TestOptimizedMode:
    """Certificate checks must not vanish under ``python -O``."""

    def run_python(self, *args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(eqhom.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, check=True).stdout

    @pytest.mark.parametrize("argv, marker", [
        (("ponzi", "f2", "--radius", "4", "--bound", "1"), "verified"),
        (("min-bound", "z2", "--radius", "6"), "verified"),
        (("pd-check", fixture_path("rp3.cplx"), "--coeff", fixture_path("regular.rep")),
         "PD CHECK: PASS"),
        (("essential", fixture_path("rp3.cplx")), "(1) in Z/2 [nonzero]\nESSENTIAL"),
    ], ids=["ponzi", "min-bound", "pd-check-rp3-regular", "essential-rp3"])
    def test_cli_output_unchanged(self, argv, marker):
        plain = self.run_python("-m", "eqhom.cli", *argv)
        assert marker in plain
        assert self.run_python("-O", "-m", "eqhom.cli", *argv) == plain

    def test_tampered_certificate_raises(self):
        script = textwrap.dedent("""
            from eqhom.coarse import CayleyBall, PonziCertificate, free_group_ponzi
            from eqhom.errors import CertificateError
            from eqhom.groups import FreeGroup
            assert False, "this line only runs with asserts on"
            cert = free_group_ponzi(CayleyBall(FreeGroup(2), 3))
            flow = dict(cert.flow)
            flow[next(iter(flow))] += 1
            try:
                PonziCertificate(cert.ball, cert.bound, flow).check()
            except CertificateError:
                print("raised")
            """)
        assert self.run_python("-O", "-c", script) == "raised\n"
