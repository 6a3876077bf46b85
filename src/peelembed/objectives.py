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
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                if len(node) != 2:
                    raise MalformedTree("internal node with != 2 children")
                stack.extend(node)
            else:
                out.append(int(node))
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
        # Iterative so deep ladders do not hit the interpreter stack limit.
        parts = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, tuple):
                stack.extend((")", node[1], ",", node[0], "("))
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


_MID, _END = object(), object()  # markers of _leaf_spans' walk


def _leaf_spans(root: TreeNode):
    """Leaves of a raw tree left to right, and (lo, mid, hi) of each internal
    node in post-order: its left subtree holds leaves [lo, mid), its right
    subtree [mid, hi).  Iterative, so deep ladders are safe."""
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
    """Apply an id mapping to every leaf of a raw tree node (iterative)."""
    stack = [(node, False)]
    done = []
    while stack:
        nd, expanded = stack.pop()
        if not isinstance(nd, tuple):
            done.append(int(mapping[nd]))
            continue
        if expanded:
            right = done.pop()
            left = done.pop()
            done.append((left, right))
        else:
            stack.extend(((nd, True), (nd[1], False), (nd[0], False)))
    return done[0]
