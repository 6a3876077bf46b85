"""Validated metric instances, subset statistics and core detection.

A metric is held as a dense symmetric n x n distance matrix.  ``subset_stats``
computes the diameter / weight / size / weighted-density statistics of a point
subset, and ``find_core`` locates a small-diameter subset containing almost all
points by enumerating balls around every candidate center.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptySubset,
    InputParse,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroDiameter,
)

# Relative triangle-inequality tolerance; scaled by the diameter so that
# floating-point Euclidean point clouds validate.
TRIANGLE_TOL = 1e-9

# Rounding margin of the triangle screen, in machine epsilons of max(D, 1);
# see _triangle_screen for why 8 keeps the screen conservative.
SCREEN_MARGIN_EPS = 8

# Most slab entries one block of ``_triangle_screen`` holds (whole rows, at
# least one), so its reused buffer is 512 KB for any n up to 2^16 + 1.
SCREEN_BLOCK_ENTRIES = 1 << 16

# Most entries of a subset's block that ``subset_stats`` holds at once, in one
# reused 512 KB buffer, so its weight sum needs no copy of the block.
STATS_BLOCK_ENTRIES = 1 << 16

# NumPy sums a contiguous float array pairwise: a run of at most this many
# entries in one unrolled loop, a longer one as the sum of its two halves,
# split at a multiple of 8.
PAIRWISE_BLOCK = 128

# Most coordinate differences (n x d per row) one block of
# ``metric_from_points`` holds, so its temporaries stay a few MB for any n.
POINT_BLOCK_ENTRIES = 1 << 18

# Density reported for zero-diameter subsets.  Compares >= any threshold, which
# routes degenerate instances into the dense branch of the solvers.
DENSE_BY_CONVENTION = math.inf


class Metric:
    """Immutable symmetric distance matrix satisfying the triangle inequality.

    Construct through :func:`validate_metric` (checked) or ``Metric(dist)``
    (unchecked, for matrices valid by construction); the constructor keeps a
    read-only copy of ``dist`` and leaves the caller's array alone.
    """

    __slots__ = ("n", "dist")

    def __init__(self, dist: np.ndarray):
        self._own(np.array(dist, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, dist: np.ndarray) -> "Metric":
        """Wrap a fresh C-ordered float array that no caller holds, without
        copying it."""
        m = cls.__new__(cls)
        m._own(dist)
        return m

    def _own(self, dist: np.ndarray) -> None:
        dist.flags.writeable = False
        self.n = dist.shape[0]
        self.dist = dist

    def submetric(self, indices: Sequence[int]) -> "Metric":
        """Induced metric on ``indices``; point ``i`` of the result is the
        ``i``-th smallest of them, whatever order they come in."""
        idx = np.asarray(sorted(indices), dtype=int)
        return Metric._adopt(self.dist[np.ix_(idx, idx)])

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def total_weight(self) -> float:
        return float(np.triu(self.dist, 1).sum())

    def __repr__(self):
        return f"Metric(n={self.n})"


@dataclass(frozen=True)
class SubsetStats:
    diameter: float
    weight_sum: float
    size: int
    density: float


@dataclass(frozen=True)
class CoreResult:
    core: tuple  # ascending point ids
    center: int


def validate_metric(raw) -> Metric:
    """Validate a raw square matrix and wrap it as a :class:`Metric`.

    Raises :class:`NonFiniteDistance` (checked first), :class:`NegativeDistance`,
    :class:`NonzeroDiagonal`, :class:`AsymmetricMatrix` or
    :class:`TriangleViolation` (with the witnessing triple).
    """
    mat = np.array(raw, dtype=float)
    # min and max propagate NaN, so together they see every non-finite entry
    # without an n x n mask
    if mat.size and not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
        idx = np.unravel_index(int(np.argmin(np.isfinite(mat))), mat.shape)
        where = "".join(f"[{i}]" for i in idx)
        raise NonFiniteDistance(f"dist{where} = {mat[idx]:g} is not finite")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"expected a square n>=1 matrix, got shape {mat.shape}")
    n = mat.shape[0]
    diam = float(mat.max()) if n else 0.0
    tol = TRIANGLE_TOL * max(diam, 1.0)

    if mat.min() < -tol:
        i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
        raise NegativeDistance(f"dist[{i}][{j}] = {mat[i, j]:g} < 0")
    bad_diag = np.abs(np.diag(mat)) > tol
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise NonzeroDiagonal(f"dist[{i}][{i}] = {mat[i, i]:g} != 0")
    asym = np.abs(mat - mat.T)
    if asym.max() > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetricMatrix(f"dist[{i}][{j}] != dist[{j}][{i}]")

    # Symmetrize exactly and clamp the diagonal so round-trips are bit-stable.
    mat = (mat + mat.T) / 2.0
    np.fill_diagonal(mat, 0.0)
    mat[mat < 0] = 0.0

    if _triangle_screen(mat, tol):
        _raise_triangle_witness(mat, tol)  # returns only on a false flag
    return Metric._adopt(mat)


def _triangle_screen(mat: np.ndarray, tol: float) -> bool:
    """False only if no triple fails the test of :func:`_raise_triangle_witness`.

    For i < k, ``|d(k,j) - d(i,j)| <= d(i,k)`` over all j is the triangle
    inequality with the pair {i, k} as one side.  Columns j > i suffice: a
    triple a < b < c meets its three inequalities in the pairs {a, b}
    (column c) and {a, c} (column b).  So row i's slab covers every triple
    whose smallest point is i, each unordered pair once.  The slab is taken
    in blocks of whole rows, at most ``SCREEN_BLOCK_ENTRIES`` entries each,
    copied into one reused contiguous buffer and differenced in place there:
    the same entries and comparisons as the whole slab at once, in a buffer
    that stays in cache.

    Rounding, with u = eps / 2 and M = max(D) >= every entry: if the witness
    test fl(d_ij - fl(d_ik + d_kj)) > tol rejects, then exactly
    d_ij - d_ik - d_kj > tol (1 - u) - 2 u M, and the slab entry
    fl(|d_ij - d_kj|) is at least d_ij - d_kj - u M.  The row's bound is
    fl(d_ik + fl(tol - margin)) <= d_ik + tol - margin + u M + 2 u tol + u^2 tol,
    so the entry exceeds it once margin >= 4 u M + 3 u tol + u^2 tol, about
    2 eps M as tol << max(M, 1).  A margin of ``SCREEN_MARGIN_EPS`` eps
    max(M, 1) covers that with room to spare and stays far below tol.  A flag
    can thus be false, but a violation is never missed.
    """
    n = mat.shape[0]
    margin = SCREEN_MARGIN_EPS * np.finfo(float).eps * max(float(mat.max()), 1.0)
    allowed = tol - margin
    buf = np.empty(max(SCREEN_BLOCK_ENTRIES, n - 1))
    for i in range(n - 2):  # the last two rows hold no triple with i smallest
        rest = mat[i, i + 1 :]
        bound = rest + allowed
        step = max(1, SCREEN_BLOCK_ENTRIES // rest.size)
        for lo in range(0, rest.size, step):
            block = mat[i + 1 + lo : i + 1 + lo + step, i + 1 :]
            slab = buf[: block.size].reshape(block.shape)
            np.copyto(slab, block)
            slab -= rest
            np.abs(slab, out=slab)
            if (slab.max(axis=1) > bound[lo : lo + step]).any():
                return True
    return False


def _raise_triangle_witness(mat: np.ndarray, tol: float) -> None:
    """Raise :class:`TriangleViolation` at the smallest violating k, with the
    first (i, j) of largest slack; return if no triple violates by > tol."""
    for k in range(mat.shape[0]):
        via_k = mat[:, k, None] + mat[None, k, :]
        slack = mat - via_k
        worst = float(slack.max())
        if worst > tol:
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            raise TriangleViolation(int(i), int(j), k, worst)


def subset_stats(m: Metric, subset: Iterable[int]) -> SubsetStats:
    """Diameter, pairwise-weight sum, size and weighted density of a subset.

    The weight sum counts each unordered pair once; density is
    W / (size^2 * diameter), reported as :data:`DENSE_BY_CONVENTION` when the
    diameter is zero.  Both are bit for bit those of the gathered block
    ``B = m.dist[np.ix_(idx, idx)]``: ``B.max()`` and ``np.triu(B, 1).sum()``,
    computed by :func:`_block_max_and_upper_sum` without a copy of ``B``.
    """
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        raise EmptySubset("subset_stats requires a nonempty subset")
    if idx[0] < 0 or idx[-1] >= m.n:
        raise IndexError(f"subset out of range for n={m.n}")
    size = len(idx)
    diameter, weight = _block_max_and_upper_sum(m.dist, None if size == m.n else idx)
    density = weight / (size * size * diameter) if diameter > 0.0 else DENSE_BY_CONVENTION
    return SubsetStats(diameter=diameter, weight_sum=weight, size=size, density=density)


def _block_max_and_upper_sum(dist: np.ndarray, idx: Optional[list]) -> tuple:
    """(max entry, strict-upper-triangle sum) of the block of ``dist`` on the
    ascending ids ``idx`` (all of ``dist`` when None), in C order.

    NumPy sums the C-ordered block with its lower triangle zeroed as one
    pairwise reduction over its k^2 entries (see :data:`PAIRWISE_BLOCK`).
    This takes the same halves recursively, and materialises only runs of at
    most ``max(STATS_BLOCK_ENTRIES, PAIRWISE_BLOCK)`` entries, in one reused
    buffer where their lower-triangle entries are zeroed.  NumPy sums each run
    with the same pairwise steps, so the halves add up to the same bits.
    """
    k = dist.shape[0] if idx is None else len(idx)
    leaf = max(STATS_BLOCK_ENTRIES, PAIRWISE_BLOCK)
    buf = np.empty(min(k * k, leaf))
    ids = None if idx is None else np.asarray(idx)
    largest = np.float64(-math.inf)

    def run_sum(lo, hi):  # entries [lo, hi) of the block, flattened
        nonlocal largest
        r0, r1 = lo // k, (hi - 1) // k + 1
        rows = dist[r0:r1] if ids is None else dist[np.ix_(ids[r0:r1], ids)]
        out = buf[: hi - lo]
        np.copyto(out, rows.reshape(-1)[lo - r0 * k : hi - r0 * k])
        largest = np.maximum(largest, out.max())  # NaN propagates, as in B.max()
        for r in range(r0, r1):  # row r's lower triangle: flat r k + [0, r]
            start = r * k - lo
            out[max(start, 0) : max(start + r + 1, 0)] = 0.0
        return out.sum()

    def pairwise(lo, count):
        if count <= leaf:
            return run_sum(lo, lo + count)
        half = count // 2
        half -= half % 8
        return pairwise(lo, half) + pairwise(lo + half, count - half)

    weight = float(pairwise(0, k * k))
    return float(largest), weight


def find_core(m: Metric, stats: Optional[SubsetStats] = None) -> CoreResult:
    """Largest ball of radius 2 * D_V * sqrt(rho_V); ties to smallest center.

    ``stats`` are ``subset_stats(m, range(m.n))``, for a caller that has them.
    The returned subset has diameter <= 4 * D_V * sqrt(rho_V) and size
    >= n * (1 - sqrt(rho_V)).
    """
    if stats is None:
        stats = subset_stats(m, range(m.n))
    if stats.diameter <= 0.0:
        raise ZeroDiameter("all points coincide; instance is trivially dense")
    radius = 2.0 * stats.diameter * math.sqrt(stats.density)
    within = m.dist <= radius
    sizes = np.count_nonzero(within, axis=1)
    center = int(np.argmax(sizes))  # argmax returns the smallest maximizer
    return CoreResult(core=tuple(np.flatnonzero(within[center]).tolist()), center=center)


# ---------------------------------------------------------------------------
# Text formats: raw matrix and Euclidean point cloud.


def format_metric(m: Metric) -> str:
    lines = [str(m.n)]
    for row in m.dist:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_metric(text: str, auto: bool = False) -> Metric:
    """Parse ``n`` followed by the n * n matrix entries, then validate.

    Tokens are whitespace-separated, as by ``text.split()``, and the entries
    are read one line at a time with ``float`` into one n * n array.  That
    array is allocated only if the text is long enough to hold n * n entries
    (each takes a character and a separator), so a huge header costs
    nothing.  Every token is converted, so a bad token is reported before a
    wrong entry count, as the first bad token.

    With ``auto``, a text that is not a matrix file (no first token that is
    an integer n, or not exactly n * n tokens after it) is parsed by
    :func:`parse_point_cloud` instead; counting stops once it passes n * n,
    so a point cloud is told apart within its first lines.
    """
    lines = _line_tokens(text)
    first = next(lines, None)
    if first is None:
        if auto:
            return parse_point_cloud(text)
        raise InputParse("empty metric file")
    try:
        n = int(first[0])
    except ValueError as exc:
        if auto:
            return parse_point_cloud(text)
        raise InputParse(f"metric file: {exc}") from None
    size = n * n
    fits = 2 * size < len(text)
    if auto and not fits:
        return parse_point_cloud(text)
    vals = np.empty(size) if n >= 1 and fits else None
    count, error = 0, None
    for tokens in itertools.chain([first[1:]], lines):
        k = len(tokens)
        if auto and count + k > size:
            return parse_point_cloud(text)
        if error is None:
            try:
                if vals is not None and count + k <= size:
                    vals[count : count + k] = np.fromiter(map(float, tokens), float, k)
                else:  # nowhere to store them: converted only to find a bad token
                    for token in tokens:
                        float(token)
            except ValueError as exc:
                error = exc
                if not auto:
                    break
        count += k
    if auto and count != size:
        return parse_point_cloud(text)
    if error is not None:
        raise InputParse(f"metric file: {error}") from None
    if n < 1 or count != size:
        raise InputParse(f"expected n >= 1 and n * n matrix entries, got n={n} "
                         f"and {count} entries")
    return validate_metric(vals.reshape(n, n))


def _line_tokens(text: str) -> Iterator[list]:
    """The tokens of each line of ``text`` that has any, one line at a time.

    Lines end at "\\n" only; every other whitespace character separates
    tokens within a line, so the tokens are those of ``text.split()``.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        tokens = text[start:end].split()
        if tokens:
            yield tokens
        start = end + 1


def format_point_cloud(points: np.ndarray) -> str:
    lines = []
    for i, row in enumerate(np.asarray(points, dtype=float)):
        lines.append(str(i) + " " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_point_cloud(text: str) -> Metric:
    """Parse ``id x1 ... xd`` lines, ids 0..n-1 once each and one d for all
    rows, and build the Euclidean metric."""
    rows, dim = {}, None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            point, coords = int(parts[0]), [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise InputParse(f"line {lineno}: {exc}") from None
        if point in rows:
            raise InputParse(f"line {lineno}: point id {point} appears twice")
        dim = len(coords) if dim is None else dim
        if len(coords) != dim:
            raise InputParse(f"line {lineno}: {len(coords)} coordinates, expected {dim}")
        rows[point] = coords
    if not rows:
        raise InputParse("empty point-cloud file")
    if sorted(rows) != list(range(len(rows))):
        raise InputParse("point ids must be 0..n-1")
    pts = np.array([rows[i] for i in range(len(rows))])
    return metric_from_points(pts)


def metric_from_points(points: np.ndarray) -> Metric:
    """Euclidean metric of the rows of an n x d array of finite coordinates;
    raises :class:`NonFiniteDistance` if a distance overflows.

    Rows are computed in blocks of at most ``POINT_BLOCK_ENTRIES`` coordinate
    differences, each entry by the same ``sqrt(sum(diff * diff))`` over its d
    coordinates, into one n x n array.  It is exactly symmetric with a zero
    diagonal without a further pass: fl(a - b) = -fl(b - a) and a - a = +0,
    so entries (i, j) and (j, i) square and sum the same d values in the
    same order.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise NonFiniteDistance(f"point {i} coordinate {j} = {pts[i, j]:g} is not finite")
    n, d = pts.shape
    dist = np.empty((n, n))
    step = max(1, POINT_BLOCK_ENTRIES // max(n * d, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            diff = pts[lo : lo + step, None, :] - pts[None, :, :]
            np.sqrt((diff * diff).sum(axis=-1), out=dist[lo : lo + step])
    if dist.size and not np.isfinite(dist.max()):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(dist))), dist.shape)
        raise NonFiniteDistance(f"distance between points {i} and {j} overflows")
    return Metric._adopt(dist)
