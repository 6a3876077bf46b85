import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from peelembed import hc_peeling
from peelembed.errors import (
    DuplicateLeaf,
    EmptyInput,
    InputParse,
    MalformedTree,
    PeelEmbedError,
    SizeMismatch,
)
from peelembed.instances import GeneratorSpec, generate
from peelembed.metric import (
    Metric,
    format_point_cloud,
    metric_from_points,
    parse_point_cloud,
    subset_stats,
    validate_metric,
)
from peelembed.objectives import (
    HcTree,
    LinearArrangement,
    evaluate_hc,
    evaluate_la,
    ladder_tree,
    ladders_on,
)
from peelembed.hc_dense import _parts_of
from peelembed.objectives import _leaf_spans
from structural import (
    family_metrics,
    reference_evaluate_hc,
    reference_evaluate_la,
    reference_leaf_spans,
    reference_relabel,
    reference_serialize,
)

M3 = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])  # w01=1, w02=2, w12=1
U4 = validate_metric(np.ones((4, 4)) - np.eye(4))


def pair_loop_la(m, arr):
    total = 0.0
    for i in range(m.n):
        for j in range(i + 1, m.n):
            total += m.dist[i, j] * abs(arr.position[i] - arr.position[j])
    return total


def pair_loop_hc(m, tree):
    def lca_size(node, i, j):
        if not isinstance(node, tuple):
            return None
        left = set(HcTree(node[0]).leaves()) if isinstance(node[0], tuple) else {node[0]}
        right = set(HcTree(node[1]).leaves()) if isinstance(node[1], tuple) else {node[1]}
        both = left | right
        if i in left and j in left:
            return lca_size(node[0], i, j)
        if i in right and j in right:
            return lca_size(node[1], i, j)
        return len(both) if (i in both and j in both) else None

    total = 0.0
    for i in range(m.n):
        for j in range(i + 1, m.n):
            total += m.dist[i, j] * lca_size(tree.root, i, j)
    return total


def test_la_frozen_values():
    assert evaluate_la(M3, LinearArrangement.from_order([0, 1, 2])) == 6.0
    assert evaluate_la(M3, LinearArrangement.from_order([1, 0, 2])) == 5.0
    assert evaluate_la(U4, LinearArrangement.from_order([2, 0, 3, 1])) == 10.0


def test_hc_frozen_values():
    assert evaluate_hc(M3, HcTree((0, (1, 2)))) == 11.0
    assert evaluate_hc(M3, HcTree((1, (0, 2)))) == 10.0
    assert evaluate_hc(U4, ladder_tree([0, 1, 2, 3])) == 20.0


def test_la_positions_must_biject():
    with pytest.raises(SizeMismatch):
        LinearArrangement.from_positions([1, 1, 2])
    with pytest.raises(SizeMismatch):
        LinearArrangement.from_order([0, 0, 1])
    with pytest.raises(SizeMismatch):
        evaluate_la(M3, LinearArrangement.from_order([0, 1]))


def test_hc_tree_validation():
    with pytest.raises(DuplicateLeaf):
        HcTree((0, (0, 1)))
    with pytest.raises(MalformedTree):
        HcTree((0, 1, 2))
    with pytest.raises(SizeMismatch):
        evaluate_hc(M3, HcTree((0, 1)))  # leaf 2 missing


def test_la_serialize_roundtrip():
    arr = LinearArrangement.from_order([2, 0, 1])
    assert LinearArrangement.parse(arr.serialize()) == arr
    assert arr.reversed().reversed() == arr


def test_hc_serialize_roundtrip():
    tree = HcTree((0, (1, 2)))
    assert tree.serialize() == "(0,(1,2))"
    assert HcTree.parse(tree.serialize()) == tree
    with pytest.raises(MalformedTree):
        HcTree.parse("(0,1))")
    with pytest.raises(MalformedTree):
        HcTree.parse("(0,1,2)")


def test_deep_ladder_no_recursion_limit():
    from peelembed.metric import Metric

    n = 3000
    tree = ladder_tree(range(n))
    text = tree.serialize()
    # deep tuple == would itself recurse, so compare serializations
    assert HcTree.parse(text).serialize() == text
    assert tree.relabel({i: i for i in range(n)}).serialize() == text
    idx = np.arange(n, dtype=float)
    metric = Metric(np.abs(idx[:, None] - idx[None, :]))
    assert evaluate_hc(metric, tree) > 0


def test_ladder_tail_replaces_deepest_slot():
    tail = HcTree((3, 4))
    tree = ladder_tree([0, 1, 2], tail=tail)
    assert tree.root == (0, (1, (2, (3, 4))))
    assert ladder_tree([], tail=tail).root == tail.root
    with pytest.raises(EmptyInput):
        ladder_tree([])
    with pytest.raises(DuplicateLeaf):
        ladder_tree([3], tail=tail)


def test_single_leaf_tree_scores_zero():
    m1 = validate_metric([[0.0]])
    assert evaluate_hc(m1, HcTree(0)) == 0.0
    assert evaluate_la(m1, LinearArrangement.from_order([0])) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_la_matches_pair_loop_and_reversal(n, seed):
    rng = np.random.default_rng(seed)
    m = random_metric(rng, n)
    order = list(rng.permutation(n))
    arr = LinearArrangement.from_order(order)
    val = evaluate_la(m, arr)
    assert val == pytest.approx(pair_loop_la(m, arr), rel=1e-12)
    assert evaluate_la(m, arr.reversed()) == pytest.approx(val, rel=1e-12)
    assert val <= m.n * subset_stats(m, range(n)).weight_sum + 1e-9


def test_la_is_the_one_expression_bit_for_bit():
    # one array, multiplied in place, holds the same products in the same
    # C order as dist * |gaps|, so the sum has the same bits: on every
    # family, on a one-run submetric (a strided view of its parent) and on a
    # 1-D point cloud
    rng = np.random.default_rng(4)
    cases = family_metrics((2, 3, 8, 41, 150))
    parent = generate(GeneratorSpec(family="euclidean_gaussian", n=90, seed=1))
    view = parent.submetric(range(7, 80))
    assert view.dist.base is not None and not view.dist.flags.c_contiguous
    cases.append(("one-run view", view))
    cloud = parse_point_cloud(format_point_cloud(rng.normal(size=(120, 1))))
    cases.append(("1-D cloud", cloud))
    for label, m in cases:
        for arr in (LinearArrangement.from_order(range(m.n)),
                    LinearArrangement.from_order(rng.permutation(m.n).tolist())):
            got, want = evaluate_la(m, arr), reference_evaluate_la(m, arr)
            assert got.hex() == want.hex(), label


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_hc_matches_pair_loop_and_child_swap(n, seed):
    rng = np.random.default_rng(seed)
    m = random_metric(rng, n)
    order = list(rng.permutation(n))
    tree = ladder_tree(order[: n // 2], tail=ladder_tree(order[n // 2 :]))
    val = evaluate_hc(m, tree)
    assert val == pytest.approx(pair_loop_hc(m, tree), rel=1e-12)
    swapped = HcTree((tree.root[1], tree.root[0]))
    assert evaluate_hc(m, swapped) == pytest.approx(val, rel=1e-12)
    w = subset_stats(m, range(n)).weight_sum
    assert 2 * w - 1e-9 <= val <= m.n * w + 1e-9


def random_tree(rng, leaves):
    """Random binary tree: merge two random subtrees until one is left.  The
    leaves may be raw subtrees."""
    nodes = [p if isinstance(p, tuple) else int(p) for p in leaves]
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        right, left = nodes.pop(j), nodes.pop(i)
        nodes.append((left, right))
    return nodes[0]


def caterpillar(rng, leaves):
    """Spine whose every node hangs one leaf, on a random side."""
    node = int(leaves[0])
    for p in leaves[1:]:
        node = (int(p), node) if rng.random() < 0.5 else (node, int(p))
    return node


def hc_trees(rng, n):
    """Ladders with and without a tail, a caterpillar, a random tree and a
    relabelled subtree under a ladder, each over 0..n-1."""
    perm = [int(p) for p in rng.permutation(n)]
    cut = int(rng.integers(0, n))
    kept = sorted(int(p) for p in rng.choice(n, size=n - cut, replace=False))
    layer = [p for p in range(n) if p not in set(kept)]
    inner = HcTree(random_tree(rng, range(len(kept))))
    return [
        ladder_tree(perm),
        ladder_tree(perm[:cut], tail=HcTree(random_tree(rng, perm[cut:]))),
        HcTree(caterpillar(rng, perm)),
        HcTree(random_tree(rng, perm)),
        ladder_tree(layer, tail=inner.relabel(kept)),
    ]


def hc_metrics(rng, n):
    """A point-cloud metric, one induced by ``submetric`` and two built from
    a Fortran-ordered matrix."""
    m = metric_from_points(rng.normal(size=(n, 3)))
    big = metric_from_points(rng.normal(size=(n + 7, 2)) * 10.0)
    ids = sorted(int(p) for p in rng.choice(n + 7, size=n, replace=False))
    fortran = np.asfortranarray(m.dist)
    return [m, big.submetric(ids), Metric(fortran), validate_metric(fortran)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 129, 300])
def test_evaluate_hc_bit_equal_to_reference(n):
    rng = np.random.default_rng(n)
    for m in hc_metrics(rng, n):
        for tree in hc_trees(rng, n):
            assert evaluate_hc(m, tree) == reference_evaluate_hc(m, tree)


def run_trees(rng, n):
    """Trees whose one-leaf nodes hang over runs of consecutive ids: ascending
    ladders, a ladder over a shuffled order, and trees mixing ladders over
    runs, descending runs and scattered leaves."""
    perm = [int(p) for p in rng.permutation(n)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=min(n - 1, 6), replace=False))
    chunks = [list(range(a, b)) for a, b in zip([0, *cuts], [*cuts, n])]
    mixed = []  # the chunks in shuffled order, every third one descending
    for i in rng.permutation(len(chunks)):
        mixed += chunks[i][::-1] if i % 3 == 2 else chunks[i]
    return [
        ladder_tree(range(n)),
        ladder_tree(perm),
        ladder_tree(mixed),
        HcTree(random_tree(rng, [ladder_tree(chunk).root for chunk in chunks])),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 300])
def test_evaluate_hc_row_slices_bit_equal_to_reference(n):
    rng = np.random.default_rng(n + 1)
    for m in hc_metrics(rng, n):
        for tree in run_trees(rng, n):
            assert evaluate_hc(m, tree) == reference_evaluate_hc(m, tree)


def test_evaluate_hc_of_a_join_bit_equal_to_reference():
    # the HC peel's case-(c) value: the layer's ladder over the kept tree,
    # relabelled, scored onto the kept tree's value on its own metric
    n = 300
    rng = np.random.default_rng(3)
    for m in hc_metrics(rng, n):
        for layer in ([n - 1], [0], [5, 17, 200], sorted(rng.choice(n, 30, replace=False))):
            layer = [int(p) for p in layer]
            kept = [p for p in range(n) if p not in set(layer)]
            sub = m.submetric(kept)
            for inner in (ladder_tree(range(len(kept))), HcTree(random_tree(rng, range(len(kept))))):
                joined = hc_peeling._join(layer, kept, inner)
                want = reference_evaluate_hc(m, joined)
                assert evaluate_hc(m, joined) == want
                assert evaluate_hc(m, joined, top=len(layer), below=evaluate_hc(sub, inner)) == want


def test_ladder_tree_checks_its_parts():
    tail = HcTree((3, (4, 5)))
    tree = ladder_tree([2, 0, 1], tail=tail)
    assert tree.root == (2, (0, (1, (3, (4, 5)))))
    assert sorted(tree.leaves()) == list(range(6))
    with pytest.raises(DuplicateLeaf):
        ladder_tree([0, 4], tail=tail)
    with pytest.raises(DuplicateLeaf):
        ladder_tree([0, 1, 0])


def _random_tree(rng, ids):
    """A random binary tree over ``ids`` (at most a few hundred): runs of
    single leaves on the left (spines), bushy nodes, and spines ending in a
    leaf or in a bushy node."""
    if len(ids) == 1:
        return ids[0]
    cut = 1 if rng.random() < 0.6 else int(rng.integers(1, len(ids)))
    return (_random_tree(rng, ids[:cut]), _random_tree(rng, ids[cut:]))


def _assert_same_node(got, want):
    """Raw trees compare recursively, which deep ladders overflow, so compare
    their texts, and check that every leaf of ``got`` is an int."""
    assert reference_serialize(got) == reference_serialize(want)
    stack = [got]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        else:
            assert type(node) is int


def _assert_walks_match_reference(root, mapping):
    order, spans = _leaf_spans(root)
    assert (order, spans) == reference_leaf_spans(root)
    assert all(type(leaf) is int for leaf in order)
    tree = HcTree(root)
    assert (tree.order, tree.spans) == (tuple(order), tuple(spans))
    assert tree.leaves() == order
    _assert_same_node(tree.root, root)
    assert tree.serialize() == reference_serialize(root)
    got, want = tree.relabel(mapping), reference_relabel(root, mapping)
    _assert_same_node(got.root, want)
    assert got.serialize() == reference_serialize(want)
    assert all(type(leaf) is int for leaf in got.order)


@pytest.mark.parametrize("seed", range(40))
def test_spine_walks_match_reference_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    ids = rng.permutation(n).tolist()
    root = _random_tree(rng, ids)
    perm = rng.permutation(n)
    for mapping in (perm.tolist(), tuple(perm.tolist()), dict(enumerate(perm.tolist())), perm):
        _assert_walks_match_reference(root, mapping)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 2999, 3000])
def test_spine_walks_match_reference_on_ladders(n):
    rng = np.random.default_rng(n)
    for order in (list(range(n)), rng.permutation(n).tolist()):
        _assert_walks_match_reference(ladder_tree(order).root, rng.permutation(n).tolist())


@pytest.mark.parametrize("seed", range(12))
def test_spine_walks_match_reference_on_ladders_over_tails(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    ids = rng.permutation(n).tolist()
    cut = int(rng.integers(0, n - 1))
    tail = HcTree(_random_tree(rng, ids[cut:]))
    root = ladder_tree(ids[:cut], tail=tail).root
    # a ladder over a ladder over a bushy node, as peeled levels nest
    _assert_walks_match_reference(root, rng.permutation(n).tolist())
    inner = ladder_tree(ids[cut // 2 : cut], tail=tail)
    _assert_walks_match_reference(ladder_tree(ids[: cut // 2], tail=inner).root, list(range(n)))


@pytest.mark.parametrize("slots", [2, 3, 5, 9])
def test_spine_walks_match_reference_on_caterpillars(slots):
    rng = np.random.default_rng(slots)
    for n in (slots, 40, 300):
        assignment = rng.integers(0, slots, n)
        assignment[rng.integers(0, n)] = slots - 1  # the deepest slot is never empty
        tree = ladders_on(ladder_tree(range(slots)), _parts_of(assignment, slots))
        assert HcTree(tree.root) == tree
        _assert_walks_match_reference(tree.root, rng.permutation(n).tolist())


@pytest.mark.parametrize(
    "root",
    [
        (0, 1, 2),
        (0, (1, 2, 3)),
        ((0,), 1),
        (0, (1, ())),
        ((0, 1), ((2, 3, 4), 5)),
        (0, (1, (2, (3,)))),
        ((0, (1, (2, 3, 4))), 5),
    ],
)
def test_spine_walks_reject_malformed_nodes(root):
    with pytest.raises(MalformedTree) as want:
        reference_leaf_spans(root)
    with pytest.raises(MalformedTree) as got:
        _leaf_spans(root)
    assert str(got.value) == str(want.value)
    with pytest.raises(MalformedTree):
        HcTree(root)


def test_leaves_run_left_to_right():
    tree = HcTree(((0, 1), (2, (3, 4))))
    assert tree.leaves() == [0, 1, 2, 3, 4]
    assert HcTree((4, ((2, 0), (3, 1)))).leaves() == [4, 2, 0, 3, 1]
    with pytest.raises(DuplicateLeaf, match="leaf 1 appears twice"):
        HcTree(((2, 1), (1, 2)))


@pytest.mark.parametrize("seed", range(20))
def test_tree_fields_match_reference_walks_on_bushy_trees(seed):
    rng = np.random.default_rng(100 + seed)
    n = 1 if seed == 0 else int(rng.integers(2, 200))
    root = random_tree(rng, rng.permutation(n))
    _assert_walks_match_reference(root, rng.permutation(n).tolist())


@pytest.mark.parametrize("seed", range(12))
def test_ladder_tree_spans_equal_a_walk_of_its_root(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 300))
    ids = rng.permutation(n).tolist()
    cut = int(rng.integers(0, n))
    tail = HcTree(random_tree(rng, ids[cut:]))
    for tree in (
        ladder_tree(ids),
        ladder_tree(ids[:cut], tail=tail),
        ladder_tree(ids[: cut // 2], tail=ladder_tree(ids[cut // 2 : cut], tail=tail)),
        ladder_tree(range(3000)) if seed == 0 else ladder_tree([n], tail=tail),
    ):
        assert _leaf_spans(tree.root) == (list(tree.order), list(tree.spans))
        assert HcTree(tree.root) == tree


def test_equal_roots_give_equal_trees_with_equal_hashes():
    root = ((0, 1), (2, (3, 4)))
    tree, again = HcTree(root), HcTree(((0, 1), (2, (3, 4))))
    assert tree == again and hash(tree) == hash(again)
    assert tree.root == root
    assert ladder_tree([0, 1, 2]) == HcTree((0, (1, 2)))
    assert hash(ladder_tree([0, 1, 2])) == hash(HcTree((0, (1, 2))))
    swapped = HcTree(((2, (3, 4)), (0, 1)))
    assert swapped != tree and HcTree((1, 0)) != HcTree((0, 1))
    # the same leaf order, a different shape
    assert HcTree(((0, 1), 2)) != HcTree((0, (1, 2)))
    assert len({tree, again, swapped}) == 2


@st.composite
def trees(draw, max_n=40):
    """A tree over a drawn permutation of 0..n-1, split at drawn cuts."""
    ids = draw(st.permutations(range(draw(st.integers(1, max_n)))))

    def build(part):
        if len(part) == 1:
            return part[0]
        cut = draw(st.integers(1, len(part) - 1))
        return (build(part[:cut]), build(part[cut:]))

    return HcTree(build(ids))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(trees())
def test_parse_inverts_serialize(tree):
    text = tree.serialize()
    assert HcTree.parse(text) == tree
    assert HcTree.parse(text).root == tree.root


@pytest.mark.parametrize("text", ["((0,1)2)", "(0,,1)", "(,0,1)", "(0,1),", ",0",
                                  "", "(0", "(0,1", "(0)", "0 1", "(0,1)(2,3)", "(0,1²)"])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(MalformedTree):
        HcTree.parse(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(alphabet="(),0123 9x", max_size=24))
def test_parse_gives_a_tree_or_a_typed_error(text):
    try:
        tree = HcTree.parse(text)
    except (MalformedTree, DuplicateLeaf):
        return
    assert HcTree.parse(tree.serialize()) == tree


@pytest.mark.parametrize("text", ["1" * 5000, "(" + "1" * 5000 + ",0)"], ids=["leaf", "in-tree"])
def test_parse_rejects_a_leaf_over_the_int_digit_limit(text):
    with pytest.raises(MalformedTree):
        HcTree.parse(text)


@pytest.mark.parametrize("line", ["1 x", "1" * 5000, "2 1.0", "+2 \u0661",
                                  "1_0 1 2 3 4 5 6 7 8 9", "2 01"],
                         ids=["letter", "5000-digits", "decimal", "sign-and-arabic-indic-digit",
                              "underscore", "leading-zero"])
def test_arrangement_parse_rejects_non_integers(line):
    with pytest.raises(InputParse):
        LinearArrangement.parse(line)


# small slots, which often make a bijection, slots that int reads but
# serialize never writes, stray text and an over-long number
_TOKENS = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["+1", "01", "1_0", "\u0661"]),
                    st.text("0123x-+_.\t", min_size=1, max_size=5), st.just("9" * 5000))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_TOKENS, max_size=8).map(" ".join))
def test_arrangement_parse_gives_an_arrangement_or_a_typed_error(line):
    try:
        arr = LinearArrangement.parse(line)
    except PeelEmbedError:
        return
    assert line.split() == arr.serialize().split()
    assert LinearArrangement.parse(arr.serialize()) == arr
