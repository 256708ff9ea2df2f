"""Task graph invariants, frontier scheduling, expansion, DOT export."""

import gc
import random
import time
import tracemalloc

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

from marco.errors import GraphError
from marco.graph import (
    ExpansionRequest,
    Schedule,
    TaskEdge,
    TaskGraph,
    TaskNode,
    apply_expansion,
    execution_order,
    export_dot,
    ready_frontier,
    unproduced_inputs,
    validate_graph,
)

from oracles import (
    brute_frontier,
    execution_edges,
    has_execution_cycle,
    is_linear_extension,
    oracle_commit_order,
    oracle_unordered_knowledge,
    oracle_unproduced_inputs,
    random_dag,
)


def node(nid: str, **kwargs) -> TaskNode:
    kwargs.setdefault("title", nid)
    kwargs.setdefault("goal", f"do {nid}")
    kwargs.setdefault("agent_ref", "a")
    return TaskNode(id=nid, **kwargs)


def diamond() -> TaskGraph:
    return TaskGraph(
        nodes=(node("A"), node("B"), node("C"), node("D")),
        edges=(
            TaskEdge("A", "B"),
            TaskEdge("A", "C"),
            TaskEdge("B", "D"),
            TaskEdge("C", "D"),
        ),
    )


class TestValidate:
    def test_empty_graph_ok(self):
        report = validate_graph(TaskGraph())
        assert report.ok
        assert report.violations == ()

    def test_two_node_cycle(self):
        graph = TaskGraph(
            nodes=(node("A"), node("B")),
            edges=(TaskEdge("A", "B"), TaskEdge("B", "A")),
        )
        report = validate_graph(graph)
        assert not report.ok
        assert "CYCLE" in report.codes()

    def test_dangling_key_not_in_src_outputs(self):
        graph = TaskGraph(
            nodes=(node("A"), node("B", inputs=("k",))),
            edges=(TaskEdge("A", "B", kind="knowledge", key="k"),),
        )
        report = validate_graph(graph)
        assert not report.ok
        assert "DANGLING_KEY" in report.codes()

    def test_dangling_key_not_in_dst_inputs(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B")),
            edges=(TaskEdge("A", "B", kind="knowledge", key="k"),),
        )
        assert "DANGLING_KEY" in validate_graph(graph).codes()

    def test_knowledge_edge_well_formed(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B", inputs=("k",))),
            edges=(TaskEdge("A", "B"), TaskEdge("A", "B", kind="knowledge", key="k")),
        )
        assert validate_graph(graph).ok

    def test_knowledge_edge_without_execution_path(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B", inputs=("k",))),
            edges=(TaskEdge("A", "B", kind="knowledge", key="k"),),
        )
        assert validate_graph(graph).codes() == ("UNORDERED_KNOWLEDGE_EDGE",)

    def test_knowledge_edge_against_execution_order(self):
        graph = TaskGraph(
            nodes=(node("A", inputs=("k",)), node("B"), node("C", outputs=("k",))),
            edges=(TaskEdge("A", "B"), TaskEdge("B", "C"), TaskEdge("C", "A", kind="knowledge", key="k")),
        )
        report = validate_graph(graph)
        assert report.codes() == ("UNORDERED_KNOWLEDGE_EDGE",)
        assert report.violations[0].subject == "C->A [knowledge key='k']"

    def test_knowledge_edge_over_an_execution_path(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B"), node("C", inputs=("k",))),
            edges=(TaskEdge("A", "B"), TaskEdge("B", "C"), TaskEdge("A", "C", kind="knowledge", key="k")),
        )
        assert validate_graph(graph).ok

    def test_duplicate_node_id(self):
        graph = TaskGraph(nodes=(node("A"), node("A")))
        assert "DUPLICATE_NODE_ID" in validate_graph(graph).codes()

    def test_empty_node_id(self):
        graph = TaskGraph(nodes=(node(""),))
        assert "EMPTY_NODE_ID" in validate_graph(graph).codes()

    def test_self_loop(self):
        graph = TaskGraph(nodes=(node("A"),), edges=(TaskEdge("A", "A"),))
        assert "SELF_LOOP" in validate_graph(graph).codes()

    def test_unknown_endpoint(self):
        graph = TaskGraph(nodes=(node("A"),), edges=(TaskEdge("A", "Z"),))
        assert "UNKNOWN_ENDPOINT" in validate_graph(graph).codes()

    def test_bad_edge_kind(self):
        graph = TaskGraph(nodes=(node("A"), node("B")), edges=(TaskEdge("A", "B", kind="psychic"),))
        assert "BAD_EDGE_KIND" in validate_graph(graph).codes()

    def test_knowledge_edge_without_key(self):
        graph = TaskGraph(nodes=(node("A"), node("B")), edges=(TaskEdge("A", "B", kind="knowledge"),))
        assert "MISSING_EDGE_KEY" in validate_graph(graph).codes()

    def test_execution_edge_with_key(self):
        graph = TaskGraph(nodes=(node("A"), node("B")), edges=(TaskEdge("A", "B", key="k"),))
        assert "UNEXPECTED_EDGE_KEY" in validate_graph(graph).codes()

    def test_bad_mode(self):
        assert "BAD_MODE" in validate_graph(TaskGraph(mode="quantum")).codes()

    def test_planner_in_static(self):
        graph = TaskGraph(nodes=(node("P", expansion="planner", outputs=("plan",)),), mode="static")
        assert "PLANNER_IN_STATIC" in validate_graph(graph).codes()

    def test_dynamic_without_planner(self):
        graph = TaskGraph(nodes=(node("A"),), mode="dynamic")
        assert "NO_PLANNER_IN_DYNAMIC" in validate_graph(graph).codes()

    def test_planner_without_output(self):
        graph = TaskGraph(nodes=(node("P", expansion="planner"),), mode="dynamic")
        assert "PLANNER_NO_OUTPUT" in validate_graph(graph).codes()

    def test_empty_io_key(self):
        graph = TaskGraph(nodes=(node("A", outputs=("",)),))
        assert "EMPTY_KEY" in validate_graph(graph).codes()

    def test_long_chain_validates(self):
        ids = [f"n{i:05d}" for i in range(10_000)]
        graph = TaskGraph(nodes=tuple(map(node, ids)), edges=tuple(TaskEdge(a, b) for a, b in zip(ids, ids[1:])))
        assert validate_graph(graph).ok

    def test_long_ring_reports_one_cycle(self):
        ids = [f"n{i:05d}" for i in range(10_000)]
        edges = tuple(TaskEdge(a, b) for a, b in zip(ids, ids[1:] + ids[:1]))
        report = validate_graph(TaskGraph(nodes=tuple(map(node, ids)), edges=edges))
        assert report.codes() == ("CYCLE",)
        assert report.violations[0].subject == " -> ".join(ids + ids[:1])

    def test_knowledge_edge_chain_validates_in_linear_time(self):
        ids = [f"n{i:05d}" for i in range(1_600)]
        nodes = tuple(node(nid, inputs=(f"k{i - 1}",) if i else (), outputs=(f"k{i}",)) for i, nid in enumerate(ids))
        links = list(zip(ids, ids[1:]))
        edges = tuple(TaskEdge(a, b) for a, b in links)
        edges += tuple(TaskEdge(a, b, kind="knowledge", key=f"k{i}") for i, (a, b) in enumerate(links))
        graph = TaskGraph(nodes=nodes, edges=edges)
        started = time.perf_counter()
        report = validate_graph(graph)
        assert time.perf_counter() - started < 0.1
        assert report.ok

    def test_chain_validates_in_linear_time_and_memory(self):
        def chain(length: int) -> TaskGraph:
            ids = [f"n{i:05d}" for i in range(length)]
            return TaskGraph(nodes=tuple(map(node, ids)), edges=tuple(TaskEdge(a, b) for a, b in zip(ids, ids[1:])))

        def peak(graph: TaskGraph) -> int:
            # the interpreter's free lists hand a first few objects out without
            # an allocation tracemalloc sees; emptied, both chains pay for each
            gc.collect()
            tracemalloc.start()
            try:
                assert validate_graph(graph).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = chain(5_000), chain(20_000)
        started = time.perf_counter()
        assert validate_graph(long).ok
        assert time.perf_counter() - started < 0.2
        assert peak(long) <= 4 * peak(short)

    def test_each_edge_violation_is_named_by_its_edge(self):
        graph = TaskGraph(
            nodes=(node("a", outputs=("k",)), node("b", inputs=("k",)), node("c")),
            edges=(
                TaskEdge("a", "b", kind="data"),
                TaskEdge("c", "c"),
                TaskEdge("a", "zz"),
                TaskEdge("a", "b", kind="knowledge"),
                TaskEdge("c", "a", kind="knowledge", key="j"),
                TaskEdge("a", "c", key="k"),
                TaskEdge("a", "b", kind="knowledge", key="k"),
            ),
        )
        assert [(v.code, v.subject) for v in validate_graph(graph).violations] == [
            ("BAD_EDGE_KIND", "a->b [data]"),
            ("SELF_LOOP", "c->c [execution]"),
            ("UNKNOWN_ENDPOINT", "a->zz [execution]"),
            ("MISSING_EDGE_KEY", "a->b [knowledge]"),
            ("DANGLING_KEY", "c->a [knowledge key='j']"),
            ("DANGLING_KEY", "c->a [knowledge key='j']"),
            ("UNEXPECTED_EDGE_KEY", "a->c [execution key='k']"),
            ("UNORDERED_KNOWLEDGE_EDGE", "a->b [knowledge]"),
            ("UNORDERED_KNOWLEDGE_EDGE", "c->a [knowledge key='j']"),
            ("UNORDERED_KNOWLEDGE_EDGE", "a->b [knowledge key='k']"),
            ("CYCLE", "c -> c"),
        ]

    def test_knowledge_self_loop_is_only_a_self_loop(self):
        edge = TaskEdge("A", "A", kind="knowledge", key="k")
        graph = TaskGraph(nodes=(node("A", inputs=("k",), outputs=("k",)),), edges=(edge,))
        assert validate_graph(graph).codes() == ("SELF_LOOP",)

    def test_cycle_named_from_least_unordered_id(self):
        # "a" is only fed by the b-c cycle: the walk back goes a, c, b and meets
        # c again, so the cycle is named forwards from c
        graph = TaskGraph(
            nodes=(node("a"), node("b"), node("c"), node("z")),
            edges=(TaskEdge("c", "a"), TaskEdge("b", "c"), TaskEdge("c", "b"), TaskEdge("z", "b")),
        )
        cycles = [v.subject for v in validate_graph(graph).violations if v.code == "CYCLE"]
        assert cycles == ["c -> b -> c"]

    def test_knowledge_edge_into_a_cycle_is_not_ordered(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B", inputs=("k",)), node("C")),
            edges=(TaskEdge("B", "C"), TaskEdge("C", "B"), TaskEdge("A", "B", kind="knowledge", key="k")),
        )
        assert validate_graph(graph).codes() == ("CYCLE",)

    @pytest.mark.parametrize("seed", range(40))
    def test_cycle_check_matches_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, max_nodes=12)
        ids = [n.id for n in graph.nodes]
        back_edges = tuple(TaskEdge(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3)))
        graph = TaskGraph(nodes=graph.nodes, edges=graph.edges + tuple(e for e in back_edges if e.src != e.dst))
        cycles = [v.subject.split(" -> ") for v in validate_graph(graph).violations if v.code == "CYCLE"]
        assert bool(cycles) == has_execution_cycle(graph)
        links = {(e.src, e.dst) for e in execution_edges(graph)}
        for cycle in cycles:
            assert cycle[0] == cycle[-1]
            assert all((a, b) in links for a, b in zip(cycle, cycle[1:]))

    def test_violations_accumulate(self):
        graph = TaskGraph(
            nodes=(node("A"), node("A")),
            edges=(TaskEdge("A", "A"), TaskEdge("A", "Z")),
            mode="quantum",
        )
        codes = set(validate_graph(graph).codes())
        assert {"BAD_MODE", "DUPLICATE_NODE_ID", "SELF_LOOP", "UNKNOWN_ENDPOINT"} <= codes


if st is not None:

    @st.composite
    def wired_dags(draw):
        """A DAG over shuffled ids, with knowledge edges in either direction
        and inputs and outputs drawn from a few keys."""
        ids = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
        keys = st.lists(st.sampled_from(["k0", "k1", "k2"]), max_size=2)
        nodes = tuple(node(nid, inputs=tuple(draw(keys)), outputs=tuple(draw(keys))) for nid in ids)
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        edges = [TaskEdge(a, b) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))] if pairs else []
        links = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(["k0", "k1"]))
        edges += [TaskEdge(a, b, kind="knowledge", key=k) for a, b, k in draw(st.lists(links, max_size=4)) if a != b]
        order = draw(st.permutations(range(len(edges))))
        return TaskGraph(nodes=nodes, edges=tuple(edges[i] for i in order))

    class TestOrderMatchesReachability:
        """Every order question answered by the one Kahn pass agrees with
        brute-force reachability."""

        @settings(max_examples=300, deadline=None)
        @given(graph=wired_dags(), seeded=st.sets(st.sampled_from(["k0", "k1", "k2"])))
        def test_knowledge_edges_inputs_and_order(self, graph, seeded):
            unordered = [v.subject for v in validate_graph(graph).violations if v.code == "UNORDERED_KNOWLEDGE_EDGE"]
            expected = [f"{e.src}->{e.dst} [knowledge key={e.key!r}]" for e in oracle_unordered_knowledge(graph)]
            assert unordered == expected
            assert unproduced_inputs(graph, seeded) == oracle_unproduced_inputs(graph, seeded)
            assert execution_order(graph) == oracle_commit_order(graph)

        @settings(max_examples=200, deadline=None)
        @given(graph=wired_dags())
        def test_resumed_schedule_pops_the_rest(self, graph):
            """A schedule started after any committed prefix, as the engine
            starts one after each expansion, pops the rest of the order."""
            order = oracle_commit_order(graph)
            for cut in range(len(order) + 1):
                done = set(order[:cut])
                schedule = Schedule(graph, done, ready_frontier(graph, done))
                rest = []
                while schedule.heap:
                    rest.append(schedule.pop())
                assert rest == order[cut:]


class TestFrontier:
    def test_diamond_from_empty(self):
        assert ready_frontier(diamond(), set()) == ["A"]

    def test_diamond_after_source(self):
        assert ready_frontier(diamond(), {"A"}) == ["B", "C"]

    def test_chain_all_done(self):
        graph = TaskGraph(
            nodes=(node("A"), node("B"), node("C")),
            edges=(TaskEdge("A", "B"), TaskEdge("B", "C")),
        )
        assert ready_frontier(graph, {"A", "B", "C"}) == []

    def test_knowledge_edges_do_not_gate(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("k",)), node("B", inputs=("k",))),
            edges=(TaskEdge("A", "B", kind="knowledge", key="k"),),
        )
        assert ready_frontier(graph, set()) == ["A", "B"]

    def test_pure_function(self):
        graph = diamond()
        first = ready_frontier(graph, {"A"})
        second = ready_frontier(graph, {"A"})
        assert first == second == ["B", "C"]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_dag(rng)
        done: set[str] = set()
        order = []
        while True:
            frontier = ready_frontier(graph, done)
            assert frontier == brute_frontier(graph, done)
            if not frontier:
                break
            order.append(frontier[0])
            done.add(frontier[0])
        assert len(order) == len(graph.nodes)
        assert is_linear_extension(order, graph)


def planner_graph() -> TaskGraph:
    return TaskGraph(
        nodes=(node("P", expansion="planner", outputs=("plan",)),),
        mode="dynamic",
    )


class TestExpansion:
    def test_fan_out_three_nodes(self):
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("c1"), node("c2"), node("c3")),
            new_edges=(TaskEdge("P", "c1"), TaskEdge("P", "c2"), TaskEdge("P", "c3")),
        )
        grown = apply_expansion(planner_graph(), req)
        assert len(grown.nodes) == 4
        assert len(grown.edges) == 3
        assert validate_graph(grown).ok
        # value semantics: the original graph is untouched
        assert len(planner_graph().nodes) == 1

    def test_cycle_introduced(self):
        graph = TaskGraph(
            nodes=(node("up"), node("P", expansion="planner", outputs=("plan",))),
            edges=(TaskEdge("up", "P"),),
            mode="dynamic",
        )
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("x"),),
            new_edges=(TaskEdge("P", "x"), TaskEdge("x", "up")),
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(graph, req)
        assert exc.value.code == "CYCLE_INTRODUCED"

    def test_duplicate_existing_id(self):
        req = ExpansionRequest(planner_id="P", new_nodes=(node("P"),))
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert str(exc.value) == "INVALID_EXPANSION: DUPLICATE_NODE_ID on P: node id repeats within graph"

    def test_duplicate_within_request(self):
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("x"), node("x")),
            new_edges=(TaskEdge("P", "x"),),
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert str(exc.value) == "INVALID_EXPANSION: DUPLICATE_NODE_ID on x: node id repeats within graph"

    def test_unknown_planner(self):
        req = ExpansionRequest(planner_id="ghost")
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert exc.value.code == "UNKNOWN_PLANNER"

    def test_non_planner_node_rejected(self):
        graph = TaskGraph(
            nodes=(node("W"), node("P", expansion="planner", outputs=("plan",))),
            mode="dynamic",
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(graph, ExpansionRequest(planner_id="W"))
        assert exc.value.code == "UNKNOWN_PLANNER"

    def test_unknown_endpoint(self):
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("x"),),
            new_edges=(TaskEdge("ghost", "x"),),
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert str(exc.value) == "INVALID_EXPANSION: UNKNOWN_ENDPOINT on ghost->x [execution]: undefined node(s): ghost"

    def test_unreachable_new_node(self):
        req = ExpansionRequest(planner_id="P", new_nodes=(node("island"),))
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert exc.value.code == "UNREACHABLE_NODE"

    def test_new_node_input_nothing_produces(self):
        req = ExpansionRequest(planner_id="P", new_nodes=(node("x", inputs=("ghost",)),), new_edges=(TaskEdge("P", "x"),))
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert str(exc.value) == (
            "UNPRODUCED_INPUT: node x: input ghost is neither seeded nor an output of an execution ancestor"
        )
        assert unproduced_inputs(apply_expansion(planner_graph(), req, {"ghost"}), {"ghost"}) == []

    def test_new_node_inputs_from_planner_and_ancestors(self):
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("a", outputs=("k",)), node("b", inputs=("plan", "k")), node("c", inputs=("k",))),
            new_edges=(TaskEdge("P", "a"), TaskEdge("a", "b"), TaskEdge("P", "c")),
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        # b reads the planner's output and a's; c's only producer, a, is not its ancestor
        assert str(exc.value) == (
            "UNPRODUCED_INPUT: node c: input k is neither seeded nor an output of an execution ancestor"
        )
        fixed = ExpansionRequest("P", req.new_nodes, req.new_edges + (TaskEdge("a", "c"),))
        assert unproduced_inputs(apply_expansion(planner_graph(), fixed), ()) == []

    def test_invalid_expansion_surface(self):
        # knowledge edge without a key fails validation, not the cycle check
        req = ExpansionRequest(
            planner_id="P",
            new_nodes=(node("x"),),
            new_edges=(TaskEdge("P", "x"), TaskEdge("P", "x", kind="knowledge")),
        )
        with pytest.raises(GraphError) as exc:
            apply_expansion(planner_graph(), req)
        assert exc.value.code == "INVALID_EXPANSION"

    @pytest.mark.parametrize("seed", range(30))
    def test_random_expansions_keep_dag(self, seed):
        rng = random.Random(1000 + seed)
        base = planner_graph()
        ids = [f"n{i}" for i in range(rng.randint(1, 6))]
        nodes = tuple(node(nid) for nid in ids)
        edges = [TaskEdge("P", ids[0])]
        for i, nid in enumerate(ids[1:], start=1):
            edges.append(TaskEdge(ids[rng.randrange(i)], nid))
        if rng.random() < 0.4 and len(ids) >= 2:
            # deliberate back edge: must be rejected as a cycle
            edges.append(TaskEdge(ids[-1], ids[0]))
        req = ExpansionRequest(planner_id="P", new_nodes=nodes, new_edges=tuple(edges))
        try:
            grown = apply_expansion(base, req)
        except GraphError as exc:
            assert exc.code == "CYCLE_INTRODUCED"
            candidate = TaskGraph(
                nodes=base.nodes + nodes, edges=base.edges + tuple(edges), mode="dynamic"
            )
            assert has_execution_cycle(candidate)
        else:
            assert validate_graph(grown).ok
            assert not has_execution_cycle(grown)


class TestDotExport:
    def test_empty_graph(self):
        assert export_dot(TaskGraph()) == "digraph marco {\n}\n"

    def test_execution_edge(self):
        graph = TaskGraph(nodes=(node("A"), node("B")), edges=(TaskEdge("A", "B"),))
        dot = export_dot(graph)
        assert '"A" -> "B";' in dot
        assert "dashed" not in dot

    def test_knowledge_edge_dashed_with_label(self):
        graph = TaskGraph(
            nodes=(node("A", outputs=("report",)), node("B", inputs=("report",))),
            edges=(TaskEdge("A", "B"), TaskEdge("A", "B", kind="knowledge", key="report")),
        )
        dot = export_dot(graph)
        assert 'style=dashed' in dot
        assert 'label="report"' in dot

    def test_invalid_graph_refused(self):
        graph = TaskGraph(nodes=(node("A"),), edges=(TaskEdge("A", "A"),))
        with pytest.raises(GraphError) as exc:
            export_dot(graph)
        assert exc.value.code == "INVALID_GRAPH"

    def test_byte_deterministic(self):
        graph = diamond()
        shuffled = TaskGraph(nodes=tuple(reversed(graph.nodes)), edges=tuple(reversed(graph.edges)))
        assert export_dot(graph) == export_dot(shuffled)

    def test_quoting(self):
        tricky = node('A"x')
        graph = TaskGraph(nodes=(tricky,))
        assert '"A\\"x"' in export_dot(graph)

    def test_distinct_graphs_distinct_bytes(self):
        with_edge = TaskGraph(nodes=(node("A"), node("B")), edges=(TaskEdge("A", "B"),))
        without = TaskGraph(nodes=(node("A"), node("B")))
        assert export_dot(with_edge) != export_dot(without)


class TestSerialization:
    def test_node_round_trip(self):
        original = node("A", inputs=("i",), outputs=("o",), expansion="planner")
        assert TaskNode.from_dict(original.to_dict()) == original

    def test_edge_round_trip(self):
        original = TaskEdge("A", "B", kind="knowledge", key="k")
        assert TaskEdge.from_dict(original.to_dict()) == original

    def test_graph_round_trip(self):
        graph = diamond()
        assert TaskGraph.from_dict(graph.to_dict()) == graph

    def test_records_build_one_dict_each(self):
        """A node's, edge's or plan's dict is built once and the same object
        afterwards, so the blackboard, the outcome and the trace share it; a
        graph's dict lists those very dicts."""
        a = node("A", outputs=("o",), expansion="planner")
        b = node("B", inputs=("o",))
        edge = TaskEdge("A", "B")
        plan = ExpansionRequest("A", new_nodes=(b,), new_edges=(edge,))
        for record in (a, edge, plan):
            assert record.to_dict() is record.to_dict()
        assert plan.to_dict()["new_nodes"][0] is b.to_dict()
        assert plan.to_dict()["new_edges"][0] is edge.to_dict()
        graph = TaskGraph(nodes=(a, b), edges=(edge,))
        nodes = graph.to_dict()["nodes"]
        assert nodes[0] is a.to_dict() and nodes[1] is b.to_dict()
        assert graph.to_dict()["edges"][0] is edge.to_dict()

    def test_kept_dict_is_not_part_of_equality(self):
        built, fresh = node("A"), node("A")
        built.to_dict()
        assert built == fresh and hash(built) == hash(fresh)
