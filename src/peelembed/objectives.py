"""Solution objects and exact evaluators for both embedding objectives.

A linear arrangement maps point ids to line slots 1..n and is scored by
sum over pairs of w_ij * |slot_i - slot_j|.  A hierarchical-clustering tree is
a rooted binary tree with point ids at its leaves, scored by
sum over pairs of w_ij * (leaf count of the subtree rooted at LCA(i, j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DuplicateLeaf, EmptyInput, MalformedTree, SizeMismatch
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
        return cls.from_positions([int(t) for t in line.split()])


@dataclass(frozen=True)
class HcTree:
    """Rooted binary tree over leaves 0..n-1 (a bare int for n = 1)."""

    root: TreeNode

    def __post_init__(self):
        self.leaves()  # checks binarity and distinctness; partial trees allowed

    @classmethod
    def _unchecked(cls, root: TreeNode) -> "HcTree":
        """Wrap a root that is valid by construction, without walking it."""
        tree = cls.__new__(cls)
        object.__setattr__(tree, "root", root)
        return tree

    def leaves(self) -> list:
        """Leaf ids left to right, in the order ``serialize`` writes them.

        Raises :class:`MalformedTree` at an internal node without two
        children, and :class:`DuplicateLeaf` naming the first leaf, left to
        right, that repeats an earlier one.
        """
        out = _leaf_spans(self.root)[0]
        seen = set()
        for leaf in out:
            if leaf in seen:
                raise DuplicateLeaf(f"leaf {leaf} appears twice")
            seen.add(leaf)
        return out

    @property
    def n(self) -> int:
        return len(self.leaves())

    def serialize(self) -> str:
        # Iterative so deep ladders do not hit the interpreter stack limit; a
        # spine (see _leaf_spans) is written as its "(a," pieces and one run
        # of ")"
        parts = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, tuple):
                left, right = node
                if isinstance(left, tuple):
                    stack.extend((")", right, ",", left, "("))
                    continue
                parts.append(f"({left},")
                depth = 1
                while isinstance(right, tuple) and not isinstance(right[0], tuple):
                    parts.append(f"({right[0]},")
                    right = right[1]
                    depth += 1
                stack.append(")" * depth)
                if isinstance(right, tuple):
                    stack.append(right)
                else:
                    parts.append(str(right))
            else:
                parts.append(str(node))
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "HcTree":
        text = text.strip()
        stack = []  # '(' markers, ints and finished tuples
        i, size = 0, len(text)
        while i < size:
            ch = text[i]
            if ch == "(":
                stack.append("(")
                i += 1
            elif ch == ",":
                i += 1
            elif ch == ")":
                if len(stack) < 3 or stack[-3] != "(" or "(" in stack[-2:]:
                    raise MalformedTree(f"unbalanced ')' at offset {i}")
                right = stack.pop()
                left = stack.pop()
                stack.pop()
                stack.append((left, right))
                i += 1
            elif ch.isdigit():
                j = i
                while j < size and text[j].isdigit():
                    j += 1
                stack.append(int(text[i:j]))
                i = j
            else:
                raise MalformedTree(f"unexpected {ch!r} at offset {i}")
        if len(stack) != 1 or stack[0] == "(":
            raise MalformedTree("tree text is not a single balanced node")
        return cls(stack[0])


def evaluate_la(m: Metric, arrangement: LinearArrangement) -> float:
    """Sum over unordered pairs of dist[i][j] * |slot_i - slot_j|."""
    if arrangement.n != m.n:
        raise SizeMismatch(f"arrangement covers {arrangement.n} points, metric has {m.n}")
    pos = np.asarray(arrangement.position, dtype=float)
    gaps = np.abs(pos[:, None] - pos[None, :])
    return float((m.dist * gaps).sum() / 2.0)


def evaluate_hc(m: Metric, tree: HcTree, top: Optional[int] = None, below: float = 0.0) -> float:
    """Sum over unordered pairs of dist[i][j] * (leaves under LCA(i, j)).

    The pairs are summed node by node in post-order.  With ``top``, only the
    last ``top`` nodes are summed, onto ``below``.  A ladder of ``top`` cuts
    over a tail comes after the tail's nodes in post-order, and each tail
    node sums the same block as in the tail alone.  So with ``below`` the
    tail's value on its own points, this is the whole tree's value, bit for
    bit.

    A node with one leaf on its left sums a row of ``dist``.  When its right
    leaves are consecutive ascending ids, as in a ladder over ascending ids,
    that row is summed as a slice of ``dist``: the same entries in the same
    contiguous order as the gathered row, so the same pairwise sum.
    """
    order, spans = _leaf_spans(tree.root)
    if sorted(order) != list(range(m.n)):
        raise SizeMismatch(f"tree leaves do not cover 0..{m.n - 1}")
    idx = np.asarray(order, dtype=int)
    run = [1] * len(order)  # run[i]: how many of order[i], order[i] + 1, ... follow in order
    for i in range(len(order) - 2, -1, -1):
        if order[i + 1] == order[i] + 1:
            run[i] += run[i + 1]
    total = below
    for lo, mid, hi in spans if top is None else spans[len(spans) - top :]:
        if mid - lo > 1:
            block = m.dist[np.ix_(idx[lo:mid], idx[mid:hi])]
        elif run[mid] >= hi - mid:
            block = m.dist[order[lo], order[mid] : order[mid] + hi - mid]
        else:
            block = m.dist[idx[lo], idx[mid:hi]]
        total += (hi - lo) * float(block.sum())
    return total


_MID, _END, _SPINE = object(), object(), object()  # markers of _leaf_spans' walk
_JOIN = object()  # relabel's marker: pair the last two finished subtrees
_NOT_BINARY = "internal node with != 2 children"


def _leaf_spans(root: TreeNode):
    """Leaves of a raw tree left to right, and (lo, mid, hi) of each internal
    node in post-order: its left subtree holds leaves [lo, mid), its right
    subtree [mid, hi).  Iterative, so deep ladders are safe.

    A spine is a run of internal nodes whose left child is a leaf, followed
    down through right children; every ladder is one.  It is taken in one
    loop: its left leaves t = lo, ..., mid - 1 are appended in turn, and once
    the node below it ends at hi, its spans (t, t + 1, hi) follow, deepest
    first.  Only an internal node whose left child is internal takes stack
    steps of its own.
    """
    order, spans, open_spans = [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            if node is _MID:
                open_spans[-1].append(len(order))
            elif node is _END:
                lo, mid = open_spans.pop()
                spans.append((lo, mid, len(order)))
            elif node is _SPINE:
                lo, mid = open_spans.pop()
                hi = len(order)
                for t in range(mid - 1, lo - 1, -1):
                    spans.append((t, t + 1, hi))
            else:
                order.append(int(node))
            continue
        if len(node) != 2:
            raise MalformedTree(_NOT_BINARY)
        left, right = node
        if isinstance(left, tuple):
            open_spans.append([len(order)])
            stack.extend((_END, right, _MID, left))
            continue
        lo = len(order)
        order.append(int(left))
        while isinstance(right, tuple):  # down the spine
            if len(right) != 2:
                raise MalformedTree(_NOT_BINARY)
            left, below = right
            if isinstance(left, tuple):
                break
            order.append(int(left))
            right = below
        mid = len(order)
        if isinstance(right, tuple):  # its spans follow once `right` ends
            open_spans.append([lo, mid])
            stack.extend((_SPINE, right))
        else:
            order.append(int(right))
            hi = mid + 1
            for t in range(mid - 1, lo - 1, -1):
                spans.append((t, t + 1, hi))
    return order, spans


def ladder_tree(order: Sequence[int], tail: Optional[HcTree] = None) -> HcTree:
    """Caterpillar tree peeling order[0], order[1], ... one leaf per cut.

    When ``tail`` is given it takes the deepest spine slot, so the last peel
    separates order[-1] from the whole tail subtree.
    """
    order = [int(p) for p in order]
    if len(set(order)) != len(order):
        raise DuplicateLeaf("repeated point id in ladder order")
    if tail is None:
        if not order:
            raise EmptyInput("ladder needs at least one point or a tail")
        node: TreeNode = order[-1]
        spine = order[:-1]
    else:
        if set(order).intersection(tail.leaves()):
            raise DuplicateLeaf("ladder order overlaps tail leaves")
        node = tail.root
        spine = order
    for point in reversed(spine):
        node = (point, node)
    # distinct spine leaves over a checked tail: nothing left to check
    return HcTree._unchecked(node)


def relabel(node: TreeNode, mapping) -> TreeNode:
    """Apply an id mapping to every leaf of a raw tree node (iterative).

    A spine (see :func:`_leaf_spans`) has its ids mapped in one loop and its
    chain of tuples rebuilt over its relabelled lower node; only an internal
    node whose left child is internal takes stack steps of its own.
    """
    stack, done = [node], []
    while stack:
        node = stack.pop()
        if node is _JOIN:
            right = done.pop()
            done[-1] = (done[-1], right)
        elif isinstance(node, list):  # a spine's mapped ids, to hang over done[-1]
            chain = done[-1]
            for point in reversed(node):
                chain = (point, chain)
            done[-1] = chain
        elif isinstance(node, tuple):
            left, right = node
            if isinstance(left, tuple):
                stack.extend((_JOIN, right, left))
                continue
            ids = [left]
            while isinstance(right, tuple) and not isinstance(right[0], tuple):
                ids.append(right[0])
                right = right[1]
            if isinstance(right, tuple):
                stack.extend(([int(mapping[p]) for p in ids], right))
                continue
            chain = int(mapping[right])
            for point in reversed(ids):
                chain = (int(mapping[point]), chain)
            done.append(chain)
        else:
            done.append(int(mapping[node]))
    return done[0]

