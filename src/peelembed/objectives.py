"""Solution objects and exact evaluators for both embedding objectives.

A linear arrangement maps point ids to line slots 1..n and is scored by
sum over pairs of w_ij * |slot_i - slot_j|.  A hierarchical-clustering tree is
a rooted binary tree with point ids at its leaves, scored by
sum over pairs of w_ij * (leaf count of the subtree rooted at LCA(i, j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DuplicateLeaf, EmptyInput, InputParse, MalformedTree, SizeMismatch
from .metric import Metric

# Tree nodes are nested 2-tuples with point ids (ints) at the leaves.
TreeNode = Union[int, tuple]


@dataclass(frozen=True)
class LinearArrangement:
    """Bijection point id -> line slot in 1..n, stored as an int array."""

    position: tuple

    @classmethod
    def from_positions(cls, positions: Sequence[int]) -> "LinearArrangement":
        pos = tuple(int(p) for p in positions)
        if sorted(pos) != list(range(1, len(pos) + 1)):
            raise SizeMismatch(f"positions are not a bijection onto 1..{len(pos)}")
        return cls(pos)

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "LinearArrangement":
        """Build from the left-to-right order of point ids."""
        n = len(order)
        pos = [0] * n
        for slot, point in enumerate(order, start=1):
            if not 0 <= point < n or pos[point]:
                raise SizeMismatch(f"order is not a permutation of 0..{n - 1}")
            pos[point] = slot
        return cls(tuple(pos))

    @property
    def n(self) -> int:
        return len(self.position)

    def order(self) -> list:
        """Point ids from leftmost slot to rightmost."""
        out = [0] * self.n
        for point, slot in enumerate(self.position):
            out[slot - 1] = point
        return out

    def reversed(self) -> "LinearArrangement":
        n = self.n
        return LinearArrangement(tuple(n + 1 - p for p in self.position))

    def serialize(self) -> str:
        return " ".join(str(p) for p in self.position)

    @classmethod
    def parse(cls, line: str) -> "LinearArrangement":
        """Read whitespace-separated slots, each written as ``serialize``
        writes one: ASCII digits without a leading zero.  Raises
        :class:`InputParse` on any other token."""
        tokens = line.split()
        for t in tokens:
            if not (t.isascii() and t.isdigit() and t[0] != "0"):
                raise InputParse(f"arrangement: bad slot {t[:20]!r}")
        try:
            positions = [int(t) for t in tokens]
        except ValueError as exc:  # over int's digit limit
            raise InputParse(f"arrangement: {exc}") from None
        return cls.from_positions(positions)


@dataclass(frozen=True, init=False)
class HcTree:
    """Rooted binary tree over distinct leaves (a bare int for n = 1), held
    as its leaves left to right and the (lo, mid, hi) span of each internal
    node in post-order: its left subtree holds the leaves ``order[lo:mid]``,
    its right subtree ``order[mid:hi]``.  Two trees are equal when they have
    the same shape and leaves.
    """

    order: tuple
    spans: tuple

    def __init__(self, root: TreeNode):
        """Walk a nested-tuple root once; raises :class:`MalformedTree` at an
        internal node without two children, and :class:`DuplicateLeaf`
        naming the first leaf, left to right, that repeats an earlier one.
        Partial trees (leaves other than 0..n-1) are allowed."""
        order, spans = _leaf_spans(root)
        object.__setattr__(self, "order", _distinct(order))
        object.__setattr__(self, "spans", tuple(spans))

    @property
    def root(self) -> TreeNode:
        """The tree as nested 2-tuples, rebuilt in one pass over ``spans``: in
        post-order an internal right child is finished last, and an internal
        left child just before it."""
        order, done = self.order, []
        for lo, mid, hi in self.spans:
            right = order[mid] if hi - mid == 1 else done.pop()
            left = order[lo] if mid - lo == 1 else done.pop()
            done.append((left, right))
        return done[0] if done else order[0]

    def leaves(self) -> list:
        """Leaf ids left to right, in the order ``serialize`` writes them."""
        return list(self.order)

    @property
    def n(self) -> int:
        return len(self.order)

    def relabel(self, mapping) -> "HcTree":
        """The same shape with each leaf p replaced by ``mapping[p]``, which
        must be one-to-one on the leaves."""
        return _of(_distinct([int(mapping[p]) for p in self.order]), self.spans)

    def serialize(self) -> str:
        # a node opens before its first leaf and closes after its last, and
        # each of the n - 1 gaps between leaves is one node's comma
        opens, closes = [0] * self.n, [0] * self.n
        for lo, _, hi in self.spans:
            opens[lo] += 1
            closes[hi - 1] += 1
        return ",".join("(" * a + str(leaf) + ")" * b
                        for a, leaf, b in zip(opens, self.order, closes))

    @classmethod
    def parse(cls, text: str) -> "HcTree":
        """Read ``tree := leaf | "(" tree "," tree ")"``, a leaf being ASCII
        digits, straight into ``order`` and ``spans``: ``(`` opens a node at
        the next leaf's index, its one ``,`` sets ``mid`` and ``)`` closes it
        at ``hi``.  Raises :class:`MalformedTree` on any other text."""
        text = text.strip()
        order, spans, open_nodes = [], [], []  # open_nodes: [lo, mid], mid -1 before ","
        i, size = 0, len(text)
        while True:  # a tree starts at offset i
            while i < size and text[i] == "(":
                open_nodes.append([len(order), -1])
                i += 1
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            if j == i:
                raise MalformedTree(f"expected '(' or a leaf at offset {i}")
            try:
                order.append(int(text[i:j]))
            except ValueError:  # over int's digit limit
                raise MalformedTree(f"leaf of {j - i} digits at offset {i}") from None
            i = j
            while i < size and text[i] == ")":
                if not open_nodes or open_nodes[-1][1] < 0:
                    raise MalformedTree(f"unbalanced ')' at offset {i}")
                lo, mid = open_nodes.pop()
                spans.append((lo, mid, len(order)))
                i += 1
            if not open_nodes:
                break
            if i == size or text[i] != "," or open_nodes[-1][1] >= 0:
                raise MalformedTree(f"expected ',' or ')' at offset {i}")
            open_nodes[-1][1] = len(order)
            i += 1
        if i != size:
            raise MalformedTree(f"unexpected {text[i]!r} at offset {i}")
        return _of(_distinct(order), tuple(spans))


def _of(order: tuple, spans: tuple) -> HcTree:
    """The tree with these fields, which the caller has made consistent."""
    tree = object.__new__(HcTree)
    object.__setattr__(tree, "order", order)
    object.__setattr__(tree, "spans", spans)
    return tree


def _distinct(order) -> tuple:
    """``order`` as a tuple; raises :class:`DuplicateLeaf` naming the first
    leaf, left to right, that repeats an earlier one."""
    order = tuple(order)
    if len(set(order)) != len(order):
        seen = set()
        for leaf in order:
            if leaf in seen:
                raise DuplicateLeaf(f"leaf {leaf} appears twice")
            seen.add(leaf)
    return order


def evaluate_la(m: Metric, arrangement: LinearArrangement) -> float:
    """Sum over unordered pairs of dist[i][j] * |slot_i - slot_j|.

    Built in one n x n array: the gaps, made absolute and multiplied by
    ``dist`` in place.  These are the products of ``(dist * |gaps|)`` in the
    same C-ordered array, so the sum has the same bits as
    ``(dist * |gaps|).sum() / 2``.
    """
    if arrangement.n != m.n:
        raise SizeMismatch(f"arrangement covers {arrangement.n} points, metric has {m.n}")
    pos = np.asarray(arrangement.position, dtype=float)
    gaps = pos[:, None] - pos[None, :]
    np.abs(gaps, out=gaps)
    gaps *= m.dist
    return float(gaps.sum() / 2.0)


def evaluate_hc(m: Metric, tree: HcTree, top: Optional[int] = None, below: float = 0.0) -> float:
    """Sum over unordered pairs of dist[i][j] * (leaves under LCA(i, j)).

    The pairs are summed node by node over ``tree.spans``, in post-order: a
    node (lo, mid, hi) splits the pairs between ``tree.order[lo:mid]`` and
    ``tree.order[mid:hi]``, and each of them has hi - lo leaves under its
    LCA.  With ``top``, only the last ``top`` nodes are summed, onto
    ``below``.  A ladder of ``top`` cuts over a tail comes after the tail's
    nodes in post-order, and each tail node sums the same block as in the
    tail alone.  So with ``below`` the tail's value on its own points, this
    is the whole tree's value, bit for bit.

    A node with one leaf on its left sums a row of ``dist``.  When its right
    leaves are consecutive ascending ids, as in a ladder over ascending ids,
    that row is summed as a slice of ``dist``: the same entries in the same
    contiguous order as the gathered row, so the same pairwise sum.  A row is
    summed by ``np.add.reduce``, which is what ``row.sum()`` calls, without
    that method's Python wrapper; a gathered block is summed by ``sum()``.
    """
    order, spans = tree.order, tree.spans
    # the leaves are distinct, so m.n of them in 0..m.n-1 cover it
    if len(order) != m.n or min(order) < 0 or max(order) >= m.n:
        raise SizeMismatch(f"tree leaves do not cover 0..{m.n - 1}")
    idx = np.asarray(order, dtype=int)
    # byte i is 1 where order[i + 1] != order[i] + 1: order[mid:hi] are
    # consecutive ascending ids when no byte in [mid, hi - 1) is
    breaks = (idx[1:] - idx[:-1] != 1).tobytes()
    total, row_sum = below, np.add.reduce
    for lo, mid, hi in spans if top is None else spans[len(spans) - top :]:
        if mid - lo > 1:
            part = m.dist[idx[lo:mid, None], idx[mid:hi]].sum()
        elif breaks.find(1, mid, hi - 1) < 0:
            part = row_sum(m.dist[order[lo], order[mid] : order[mid] + hi - mid])
        else:
            part = row_sum(m.dist[idx[lo], idx[mid:hi]])
        total += (hi - lo) * float(part)
    return total


_MID, _END = object(), object()  # markers of _leaf_spans' walk


def _leaf_spans(root: TreeNode):
    """Leaves of a nested-tuple tree left to right and (lo, mid, hi) of each
    internal node in post-order, one stack step per node: ``_MID`` sets a
    node's mid, ``_END`` its hi.  Iterative, so deep ladders are safe."""
    order, spans, open_spans = [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _MID:
            open_spans[-1].append(len(order))
        elif node is _END:
            lo, mid = open_spans.pop()
            spans.append((lo, mid, len(order)))
        elif isinstance(node, tuple):
            if len(node) != 2:
                raise MalformedTree("internal node with != 2 children")
            open_spans.append([len(order)])
            stack.extend((_END, node[1], _MID, node[0]))
        else:
            order.append(int(node))
    return order, spans


def ladder_tree(order: Sequence[int], tail: Optional[HcTree] = None) -> HcTree:
    """Caterpillar tree peeling order[0], order[1], ... one leaf per cut.

    When ``tail`` is given it takes the deepest spine slot, so the last peel
    separates order[-1] from the whole tail subtree.  The spans are built in
    closed form: the tail's, shifted past the spine's leaves, then the
    spine's (t, t + 1, n) over all n leaves, deepest first.
    """
    order = [int(p) for p in order]
    if len(set(order)) != len(order):
        raise DuplicateLeaf("repeated point id in ladder order")
    if tail is None:
        if not order:
            raise EmptyInput("ladder needs at least one point or a tail")
        spine, tail = order[:-1], _of((order[-1],), ())
    elif set(order).intersection(tail.order):
        raise DuplicateLeaf("ladder order overlaps tail leaves")
    else:
        spine = order
    s = len(spine)
    n = s + tail.n
    spans = [(lo + s, mid + s, hi + s) for lo, mid, hi in tail.spans]
    spans += [(t, t + 1, n) for t in range(s - 1, -1, -1)]
    return _of((*spine, *tail.order), tuple(spans))


def ladders_on(skeleton: HcTree, parts) -> Optional[HcTree]:
    """``skeleton`` with each slot leaf s replaced by the ladder peeling
    ``parts[s]`` in order; a node with an empty side collapses to its other
    side, and no part holding a point gives ``None``.  The parts are laid
    out in ``skeleton.order``; in post-order a node follows every slot left
    of its hi, so its span comes after the ladders of those slots."""
    order, ends = [], [0]
    for slot in skeleton.order:
        order += parts[slot]
        ends.append(len(order))
    if not order:
        return None
    spans, done = [], 0
    # the closing (0, 0, slots) adds no node, only the ladders of a one-slot skeleton
    for lo, mid, hi in (*skeleton.spans, (0, 0, skeleton.n)):
        for i in range(done, hi):
            end = ends[i + 1]
            spans += [(t, t + 1, end) for t in range(end - 2, ends[i] - 1, -1)]
        done = hi
        if ends[lo] < ends[mid] < ends[hi]:
            spans.append((ends[lo], ends[mid], ends[hi]))
    return _of(_distinct(order), tuple(spans))


def all_binary_trees(leaves: Sequence[int]) -> Iterator[HcTree]:
    """All (2m-3)!! leaf-labeled binary trees over the m given leaves, one
    per child-swap class, built straight into order and spans.

    The trees over the first j + 1 leaves are those over the first j with
    leaf j hung as the right sibling of each node in turn, in pre-order.
    Hanging it by a node that holds ``order[a:b]`` puts it at index b, adds
    the span (a, b, b + 1) just after the node's own subtree in post-order,
    and shifts each later span's bounds at or past b by one; the spans before
    it, the node's subtree and everything left of it, stay as they are.
    Raises :class:`DuplicateLeaf` naming the first leaf that repeats an
    earlier one.
    """
    leaves = _distinct(int(p) for p in leaves)
    if len(leaves) <= 1:
        if leaves:
            yield _of(leaves, ())
        return

    def grow(count):
        if count == 2:
            yield leaves[:2], ((0, 1, 2),)
            return
        leaf = (leaves[count - 1],)
        for order, spans in grow(count - 1):
            for a, b, after in _preorder(spans):
                yield order[:b] + leaf + order[b:], (
                    spans[:after] + ((a, b, b + 1),)
                    + tuple((lo + (lo >= b), mid + (mid >= b), hi + 1)
                            for lo, mid, hi in spans[after:]))

    for order, spans in grow(len(leaves)):
        yield _of(order, spans)


def _preorder(spans: tuple):
    """(lo, hi, after) of each node of a tree with these spans, in pre-order:
    the node holds ``order[lo:hi]``, and ``after`` spans come before the end
    of its subtree in post-order.  A subtree's spans are a run of post-order
    whose last is its root's, its left subtree's run first."""
    stack = [(0, len(spans) + 1, 0)]  # (lo, hi, start of the subtree's run)
    while stack:
        lo, hi, start = stack.pop()
        after = start + hi - lo - 1
        yield lo, hi, after
        if hi - lo > 1:
            mid = spans[after - 1][1]
            stack.append((mid, hi, start + mid - lo - 1))
            stack.append((lo, mid, start))
