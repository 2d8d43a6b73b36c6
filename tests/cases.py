"""Shared worked-example graphs, and the three-variable support structures,
used across the test suite.

Each builder returns a fresh value; names describe the structural role the
example plays (see the companion _after/_slp variants for the expected
results of the operations under test).
"""

from itertools import product

from smdg.graph import PartitionedDag, SmDG
from smdg.oracle import FactorizationStructure, SupportPoint, SupportQuery


def latent_fork() -> PartitionedDag:
    """One latent driving two visibles."""
    return PartitionedDag.of(visible="bc", marginalized="a", edges=[("a", "b"), ("a", "c")])


def latent_chain() -> PartitionedDag:
    """Two chained latents driving the same two visibles."""
    return PartitionedDag.of(
        visible="bc",
        marginalized=["a", "a2"],
        edges=[("a", "a2"), ("a", "b"), ("a2", "c")],
    )


def fork_mdag() -> SmDG:
    """Projection shared by latent_fork and latent_chain."""
    return SmDG.of("bc", marginal_faces=[("b", "c")])


def joint_selector() -> PartitionedDag:
    """Three visibles feeding one selected vertex."""
    return PartitionedDag.of(
        visible="abc", selected="s", edges=[("a", "s"), ("b", "s"), ("c", "s")]
    )


def pairwise_selectors() -> PartitionedDag:
    """Three visibles feeding pairwise selected vertices."""
    return PartitionedDag.of(
        visible="abc",
        selected=["s1", "s2", "s3"],
        edges=[("a", "s1"), ("b", "s1"), ("a", "s2"), ("c", "s2"), ("b", "s3"), ("c", "s3")],
    )


def teaser_a() -> PartitionedDag:
    """Observationally equivalent to teaser_b but interventionally distinct."""
    return PartitionedDag.of(
        visible="abcd",
        marginalized=["m1", "m2", "m3", "m4"],
        selected=["s1", "s2", "s3"],
        edges=[
            ("b", "a"),
            ("a", "s1"),
            ("a", "s2"),
            ("b", "s2"),
            ("c", "s2"),
            ("m1", "s1"),
            ("m1", "a"),
            ("m2", "a"),
            ("m2", "b"),
            ("m3", "c"),
            ("m4", "d"),
            ("c", "s3"),
            ("d", "s3"),
        ],
    )


def teaser_b() -> PartitionedDag:
    return PartitionedDag.of(
        visible="abcd",
        marginalized=["m1", "m2", "m3"],
        selected=["s1"],
        edges=[
            ("b", "a"),
            ("c", "a"),
            ("m1", "a"),
            ("m2", "b"),
            ("m2", "c"),
            ("m3", "d"),
            ("c", "s1"),
            ("d", "s1"),
        ],
    )


def exog_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized="m",
        edges=[("v1", "m"), ("m", "v2"), ("v1", "v2"), ("m", "v3")],
    )


def exog_after() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized="m",
        edges=[("v1", "v2"), ("v1", "v3"), ("m", "v2"), ("m", "v3")],
    )


def merge_m_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m1", "m2"],
        selected="s",
        edges=[("m1", "s"), ("m1", "v1"), ("m2", "s"), ("m2", "v2"), ("v3", "s")],
    )


def merge_m_after() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized="m",
        selected="s",
        edges=[("m", "s"), ("m", "v1"), ("m", "v2"), ("v3", "s")],
    )


def merge_s_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized="m",
        selected=["s1", "s2"],
        edges=[("v1", "s1"), ("v2", "s2"), ("m", "s1"), ("m", "s2"), ("m", "v3")],
    )


def merge_s_after() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized="m",
        selected="s",
        edges=[("v1", "s"), ("v2", "s"), ("m", "s"), ("m", "v3")],
    )


def split_fan_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3", "v4"],
        marginalized="m",
        selected="s",
        edges=[("v1", "s"), ("v2", "s"), ("m", "s"), ("m", "v3"), ("m", "v4")],
    )


def split_fan_after() -> PartitionedDag:
    edges = [("v1", "s"), ("v2", "s"), ("m", "v3"), ("m", "v4")]
    selected = ["s"]
    marginalized = ["m"]
    for a in ("v1", "v2"):
        for b in ("v3", "v4"):
            s_ab, m_ab = f"s{a}{b}", f"m{a}{b}"
            selected.append(s_ab)
            marginalized.append(m_ab)
            edges += [(a, s_ab), (m_ab, s_ab), (m_ab, b)]
    return PartitionedDag.of(
        visible=["v1", "v2", "v3", "v4"], marginalized=marginalized, selected=selected, edges=edges
    )


def split_loop_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2"],
        marginalized="m",
        selected="s",
        edges=[("m", "v1"), ("v1", "s"), ("v2", "s"), ("m", "s"), ("m", "v2")],
    )


def split_loop_after() -> PartitionedDag:
    edges = [("m", "v1"), ("m", "v2"), ("v1", "s"), ("v2", "s")]
    selected = ["s"]
    marginalized = ["m"]
    for a in ("v1", "v2"):
        for b in ("v1", "v2"):
            s_ab, m_ab = f"s{a}{b}", f"m{a}{b}"
            selected.append(s_ab)
            marginalized.append(m_ab)
            edges += [(a, s_ab), (m_ab, s_ab), (m_ab, b)]
    return PartitionedDag.of(
        visible=["v1", "v2"], marginalized=marginalized, selected=selected, edges=edges
    )


def redundant_before() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m1", "m2"],
        selected=["s1", "s2"],
        edges=[
            ("m2", "v1"),
            ("m2", "v2"),
            ("m2", "v3"),
            ("m1", "v2"),
            ("m1", "v3"),
            ("v3", "s1"),
            ("v2", "s1"),
            ("v3", "s2"),
            ("v2", "s2"),
            ("v1", "s2"),
        ],
    )


def redundant_after() -> PartitionedDag:
    return PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m2"],
        selected=["s2"],
        edges=[("m2", "v1"), ("m2", "v2"), ("m2", "v3"), ("v1", "s2"), ("v2", "s2"), ("v3", "s2")],
    )


def canon_example() -> PartitionedDag:
    """Canonical form of teaser_a: the visible edge b -> a became a special path."""
    return PartitionedDag.of(
        visible="abcd",
        marginalized=["m1", "m2", "m3", "m4", "m5"],
        selected=["s1", "s2", "s3", "s4"],
        edges=[
            ("m5", "a"),
            ("m5", "s4"),
            ("b", "s4"),
            ("a", "s1"),
            ("a", "s2"),
            ("b", "s2"),
            ("c", "s2"),
            ("m1", "s1"),
            ("m1", "a"),
            ("m2", "a"),
            ("m2", "b"),
            ("m3", "c"),
            ("m4", "d"),
            ("c", "s3"),
            ("d", "s3"),
        ],
    )


def canon_example_slp() -> SmDG:
    """Projection of canon_example (and teaser_a): self-loop on a plus b -> a."""
    return SmDG.of(
        "abcd",
        edges=[("b", "a"), ("a", "a")],
        marginal_faces=[("a", "b"), ("c",), ("d",)],
        selected_faces=[("a", "b", "c"), ("c", "d")],
    )


def chain_face_added() -> SmDG:
    """canon_example_slp after adding the marginal face {a, b, c}."""
    return SmDG.of(
        "abcd",
        edges=[("b", "a"), ("a", "a")],
        marginal_faces=[("a", "b", "c"), ("d",)],
        selected_faces=[("a", "b", "c"), ("c", "d")],
    )


def chain_edges_removed() -> SmDG:
    """chain_face_added after removing b -> a and the self-loop."""
    return SmDG.of(
        "abcd",
        marginal_faces=[("a", "b", "c"), ("d",)],
        selected_faces=[("a", "b", "c"), ("c", "d")],
    )


def chain_face_removed() -> SmDG:
    """chain_edges_removed after removing the selected face {a, b, c}."""
    return SmDG.of(
        "abcd",
        marginal_faces=[("a", "b", "c"), ("d",)],
        selected_faces=[("c", "d")],
    )


def teaser_b_slp() -> SmDG:
    """Projection of teaser_b."""
    return SmDG.of(
        "abcd",
        edges=[("b", "a"), ("c", "a")],
        marginal_faces=[("a",), ("b", "c"), ("d",)],
        selected_faces=[("c", "d")],
    )


def selfloop_shape() -> PartitionedDag:
    """Latent driving a visible and a selected child of both."""
    return PartitionedDag.of(
        visible="v", marginalized="m", selected="s",
        edges=[("m", "v"), ("v", "s"), ("m", "s")],
    )


def selfloop_shape_reduced() -> PartitionedDag:
    """selfloop_shape without the latent-to-selection edge."""
    return PartitionedDag.of(
        visible="v", marginalized="m", selected="s", edges=[("m", "v"), ("v", "s")]
    )


def unshielded_pair_before() -> SmDG:
    return SmDG.of(
        "abcd",
        edges=[("a", "c"), ("b", "c"), ("c", "d")],
        marginal_faces=[("a", "b")],
        selected_faces=[("c", "d")],
    )


def unshielded_pair_after() -> SmDG:
    return SmDG.of(
        "abcd",
        edges=[("a", "c"), ("b", "c"), ("c", "d")],
        marginal_faces=[("a", "b")],
    )


# --- support structures for the three-variable example -----------------------


def exactly_one_structure_joint() -> FactorizationStructure:
    return FactorizationStructure.of(
        {"a": 2, "b": 2, "c": 2}, {"e": ("a", "b", "c")}
    )


def exactly_one_structure_pairwise() -> FactorizationStructure:
    return FactorizationStructure.of(
        {"a": 2, "b": 2, "c": 2},
        {"e1": ("a", "b"), "e2": ("a", "c"), "e3": ("b", "c")},
    )


def exactly_one_query() -> SupportQuery:
    points = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    }
    all_points = set(product((0, 1), repeat=3))
    req = [SupportPoint.of(dict(zip("abc", p))) for p in sorted(points)]
    forb = [SupportPoint.of(dict(zip("abc", p))) for p in sorted(all_points - points)]
    return SupportQuery.of(req, forb)
