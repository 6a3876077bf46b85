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

# Most float64 entries one reused buffer holds, 512 KB: a block of whole rows
# (at least one) of the blocked passes of ``validate_metric``,
# ``metric_from_points`` and ``subset_stats``, for any n up to 2^16.
BLOCK_ENTRIES = 1 << 16

# ``Metric.submetric`` copies the blocks between runs of consecutive ids as
# slices when the runs hold at least this many ids on average, and gathers
# with ``np.ix_`` otherwise: R runs cost R^2 slice copies, and on k ids a
# slice copy beats the gather only while R stays below about k / 20.
SUBMETRIC_RUN_IDS = 32

# Density reported for zero-diameter subsets.  Compares >= any threshold, which
# routes degenerate instances into the dense branch of the solvers.
DENSE_BY_CONVENTION = math.inf


class Metric:
    """Immutable symmetric distance matrix satisfying the triangle inequality.

    Construct through :func:`validate_metric` (checked) or ``Metric(dist)``
    (unchecked, for matrices valid by construction); the constructor keeps a
    read-only copy of ``dist`` and leaves the caller's array alone.  An
    unchecked ``dist`` must equal ``dist.T`` bit for bit, with a +0
    diagonal, as every checked one does: :func:`subset_stats` takes the
    weight of a block as half the sum of its rows.  A
    :meth:`submetric` on one run of consecutive ids shares its parent's
    matrix, and keeps it alive, as a NumPy slice does.
    """

    __slots__ = ("n", "dist")

    def __init__(self, dist: np.ndarray):
        self._own(np.array(dist, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, dist: np.ndarray) -> "Metric":
        """Wrap, without copying it, a fresh C-ordered float array that no
        caller holds, or a square view of another metric's matrix along its
        diagonal, which it then shares and keeps alive."""
        m = cls.__new__(cls)
        m._own(dist)
        return m

    def _own(self, dist: np.ndarray) -> None:
        dist.flags.writeable = False
        self.n = dist.shape[0]
        self.dist = dist

    def submetric(self, indices: Sequence[int]) -> "Metric":
        """Induced metric on ``indices``; point ``i`` of the result is the
        ``i``-th smallest of them, whatever order they come in.

        The ids left after peeling a few points form a few runs of
        consecutive ids, and the block of each pair of runs is one slice of
        ``dist``.  On one run the result is that slice, a read-only view
        that shares, and keeps alive, this metric's matrix; on more runs it
        is a copy, see :data:`SUBMETRIC_RUN_IDS` for when by slices.
        """
        idx = np.asarray(sorted(indices), dtype=int)
        k = len(idx)
        if k and (idx[0] < 0 or idx[-1] >= self.n):
            raise IndexError(f"submetric ids out of range for n={self.n}")
        breaks = np.flatnonzero(np.diff(idx) != 1) + 1  # where each later run starts
        if k and not len(breaks):
            a = int(idx[0])
            return Metric._adopt(self.dist[a : a + k, a : a + k])
        if (len(breaks) + 1) * SUBMETRIC_RUN_IDS > k:
            return Metric._adopt(self.dist[np.ix_(idx, idx)])
        starts = [0, *breaks.tolist()]
        runs = list(zip(starts, starts[1:] + [k], idx[starts].tolist()))
        out = np.empty((k, k))
        for r0, r1, row in runs:
            for c0, c1, col in runs:
                out[r0:r1, c0:c1] = self.dist[row : row + r1 - r0, col : col + c1 - c0]
        return Metric._adopt(out)

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def coincident(self) -> bool:
        """``self.diameter() <= 0.0``: all points coincide.  A positive entry
        in row 0 settles it, so the whole matrix is read only if none is."""
        return not (self.n and self.dist[0].max() > 0.0) and self.diameter() <= 0.0

    def total_weight(self) -> float:
        """``subset_stats(self, range(self.n)).weight_sum``."""
        return _block_max_and_weight(self.dist, range(self.n))[1]

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
    :class:`TriangleViolation` (with the witnessing triple).  The caller's
    array is left alone.
    """
    return _validate(np.array(raw, dtype=float, order="C"))


def _validate(mat: np.ndarray) -> Metric:
    """:func:`validate_metric` on a fresh C-ordered float array that no
    caller holds: it is checked, symmetrised in place and adopted."""
    # min and max propagate NaN, so together they see every non-finite entry
    # without an n x n mask
    if mat.size and not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
        idx = np.unravel_index(int(np.argmin(np.isfinite(mat))), mat.shape)
        where = "".join(f"[{i}]" for i in idx)
        raise NonFiniteDistance(f"dist{where} = {mat[idx]:g} is not finite")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"expected a square n>=1 matrix, got shape {mat.shape}")
    tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)

    if mat.min() < -tol:
        i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
        raise NegativeDistance(f"dist[{i}][{j}] = {mat[i, j]:g} < 0")
    bad_diag = np.abs(np.diag(mat)) > tol
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise NonzeroDiagonal(f"dist[{i}][{i}] = {mat[i, i]:g} != 0")
    _symmetrize(mat, tol)
    np.fill_diagonal(mat, 0.0)  # clamped, so round-trips are bit-stable
    _raise_triangle_witness(mat, tol)  # on a metric it only screens
    return Metric._adopt(mat)


def _symmetrize(mat: np.ndarray, tol: float) -> None:
    """Raise :class:`AsymmetricMatrix` at the first (i, j) of largest
    ``|d_ij - d_ji|`` if that exceeds ``tol``; else set both entries to
    ``(d_ij + d_ji) / 2``, or +0 where that is negative.

    Works in blocks of whole rows, at most ``BLOCK_ENTRIES`` entries,
    on the upper triangle of each block and its mirror below the diagonal,
    in two reused buffers: a block reads only entries no earlier block
    wrote.  The mismatch is symmetric, so the first (i, j) of the largest
    one, which is positive, lies in the upper triangle, where the blocks meet
    it in C order.  The mean takes the same two operands either way round,
    so it is the same on both sides, as in ``(mat + mat.T) / 2``.
    """
    n = mat.shape[0]
    step = max(1, BLOCK_ENTRIES // n)
    bufs = np.empty((2, min(step, n) * n))
    worst, at = -math.inf, None
    for lo in range(0, n, step):
        upper = mat[lo : lo + step, lo:]
        lower = mat[lo:, lo : lo + step].T
        gap, mean = (buf[: upper.size].reshape(upper.shape) for buf in bufs)
        np.subtract(upper, lower, out=gap)
        np.abs(gap, out=gap)
        top = float(gap.max())
        if top > worst:
            r, c = np.unravel_index(int(np.argmax(gap)), gap.shape)
            worst, at = top, (lo + int(r), lo + int(c))
        np.add(upper, lower, out=mean)
        mean /= 2.0
        mean[mean < 0] = 0.0
        upper[...] = lower[...] = mean
    if worst > tol:
        i, j = at
        raise AsymmetricMatrix(f"dist[{i}][{j}] != dist[{j}][{i}]")


def _triangle_screen(mat: np.ndarray, tol: float) -> Iterator[list]:
    """Screen the pairs {i, k}, i < k, one row i at a time; once row i is
    done, yield the points of its flagged pairs: i and each flagged k, or []
    if none.  A triple that fails the test of
    :func:`_raise_triangle_witness` is always flagged.

    For i < k, ``|d(k,j) - d(i,j)| <= d(i,k)`` over all j is the triangle
    inequality with the pair {i, k} as one side.  Columns j > i suffice: a
    triple a < b < c meets its three inequalities in the pairs {a, b}
    (column c) and {a, c} (column b).  So row i's slab covers every triple
    whose smallest point is i, each unordered pair once.  The slab is taken
    in blocks of whole rows, at most ``BLOCK_ENTRIES`` entries each,
    copied into one reused contiguous buffer and differenced in place there:
    the same entries and comparisons as the whole slab at once, in a buffer
    that stays in cache.  The pair that sees a triple's violation holds its
    via point k, as its one side is {i, k} or {k, j}, and its smaller point
    is at most k.

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
    buf = np.empty(max(BLOCK_ENTRIES, n - 1))
    for i in range(n - 2):  # the last two rows hold no triple with i smallest
        rest = mat[i, i + 1 :]
        bound = rest + allowed
        step = max(1, BLOCK_ENTRIES // rest.size)
        flagged = []
        for lo in range(0, rest.size, step):
            block = mat[i + 1 + lo : i + 1 + lo + step, i + 1 :]
            slab = buf[: block.size].reshape(block.shape)
            np.copyto(slab, block)
            slab -= rest
            np.abs(slab, out=slab)
            over = slab.max(axis=1) > bound[lo : lo + step]
            if over.any():
                flagged += (i + 1 + lo + np.flatnonzero(over)).tolist()
        yield [i, *flagged] if flagged else flagged


def _raise_triangle_witness(mat: np.ndarray, tol: float) -> None:
    """Raise :class:`TriangleViolation` at the smallest violating k, with the
    first (i, j) of largest slack; return if no triple violates by > tol.

    Only points that :func:`_triangle_screen` flags can violate, and row r
    of the screen flags only r and points above it, so once it is past row c
    every violating k <= c is flagged.  So right after row c, c's largest
    slack is found by :func:`_largest_slack` if it is flagged, and the first
    above tol is at the smallest violating k; on a metric only the screen runs.
    """
    n = mat.shape[0]
    buf = np.empty(min(max(1, BLOCK_ENTRIES // n), n) * n)
    marks = np.zeros(n, dtype=bool)
    # rows n - 2 and n - 1, which the screen skips, flag nothing
    rows = itertools.chain(_triangle_screen(mat, tol), itertools.repeat([]))
    for k, points in zip(range(n), rows):
        marks[points] = True
        if marks[k]:
            worst, (i, j) = _largest_slack(mat, k, buf)
            if worst > tol:
                raise TriangleViolation(i, j, k, worst)


def _largest_slack(mat: np.ndarray, k: int, buf: np.ndarray) -> tuple:
    """(slack, (i, j)): the largest slack fl(d_ij - fl(d_ik + d_kj)) via k
    and the first (i, j) that has it, from the n x n form
    ``mat - (mat[:, k, None] + mat[None, k, :])`` in blocks of
    ``buf.size // n`` whole rows, each written into ``buf``."""
    step = buf.size // mat.shape[0]
    worst, at = -math.inf, None
    for lo in range(0, mat.shape[0], step):
        rows = mat[lo : lo + step]
        out = buf[: rows.size].reshape(rows.shape)
        np.add(rows[:, k, None], mat[k], out=out)
        np.subtract(rows, out, out=out)
        top = float(out.max())
        if top > worst:
            r, c = np.unravel_index(int(np.argmax(out)), out.shape)
            worst, at = top, (lo + int(r), int(c))
    return worst, at


def subset_stats(m: Metric, subset: Iterable[int]) -> SubsetStats:
    """Diameter, pairwise-weight sum, size and weighted density of a subset.

    The weight sum counts each unordered pair once; density is
    W / (size^2 * diameter), reported as :data:`DENSE_BY_CONVENTION` when the
    diameter is zero.  Of the gathered block ``B = m.dist[np.ix_(idx, idx)]``
    they are ``B.max()`` and ``B.sum(axis=1).sum() / 2`` bit for bit, computed
    by :func:`_block_max_and_weight` without a copy of ``B``: the strict
    upper triangle's sum in real arithmetic, as ``B`` is symmetric with a
    zero diagonal.
    """
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        raise EmptySubset("subset_stats requires a nonempty subset")
    if idx[0] < 0 or idx[-1] >= m.n:
        raise IndexError(f"subset out of range for n={m.n}")
    size = len(idx)
    diameter, weight = _block_max_and_weight(m.dist, idx)
    density = weight / (size * size * diameter) if diameter > 0.0 else DENSE_BY_CONVENTION
    return SubsetStats(diameter=diameter, weight_sum=weight, size=size, density=density)


def _block_max_and_weight(dist: np.ndarray, idx: list) -> tuple:
    """(max entry, weight) of the block of ``dist`` on the ascending ids
    ``idx``: the weight is half of one NumPy sum over the block's row sums.

    Rows are summed whole by ``rows.sum(axis=1)``, in blocks of at most
    ``BLOCK_ENTRIES`` entries: all of ``dist``'s rows are sliced when ``idx``
    covers them and each row is contiguous, as in a :class:`Metric` or its
    view, and gathered with ``np.ix_`` otherwise.  NumPy sums a contiguous
    row the same way whatever its neighbours, so a view, a copy and any
    block size give the same bits.
    """
    k = len(idx)
    step = max(1, BLOCK_ENTRIES // max(k, 1))
    whole = k == dist.shape[0] and dist.strides[1] == dist.itemsize
    ids = None if whole else np.asarray(idx)
    sums = np.empty(k)
    largest = np.float64(-math.inf)
    for lo in range(0, k, step):
        rows = dist[lo : lo + step] if whole else dist[np.ix_(ids[lo : lo + step], ids)]
        largest = np.maximum(largest, rows.max())  # NaN propagates, as in B.max()
        rows.sum(axis=1, out=sums[lo : lo + step])
    return float(largest), float(sums.sum()) / 2.0


def find_core(m: Metric, stats: Optional[SubsetStats] = None) -> CoreResult:
    """Largest ball of radius 2 * D_V * sqrt(rho_V); ties to smallest center.

    ``stats`` are ``subset_stats(m, range(m.n))``, for a caller that has them.
    The returned subset has diameter <= 4 * D_V * sqrt(rho_V) and size
    >= n * (1 - sqrt(rho_V)).  A ball's size is the int32 sum of its mask row
    read as bytes, faster than ``np.count_nonzero``'s reduction to intp.
    """
    if stats is None:
        stats = subset_stats(m, range(m.n))
    if stats.diameter <= 0.0:
        raise ZeroDiameter("all points coincide; instance is trivially dense")
    radius = 2.0 * stats.diameter * math.sqrt(stats.density)
    within = m.dist <= radius
    sizes = within.view(np.uint8).sum(axis=1, dtype=np.int32)
    center = int(np.argmax(sizes))  # argmax returns the smallest maximizer
    return CoreResult(core=tuple(np.flatnonzero(within[center]).tolist()), center=center)


# ---------------------------------------------------------------------------
# Text formats: raw matrix and Euclidean point cloud.


def format_metric(m: Metric) -> str:
    rows = (" ".join(repr(float(x)) for x in row) for row in m.dist)
    return "\n".join([str(m.n), *rows]) + "\n"


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
    return _validate(vals.reshape(n, n))


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
    rows = enumerate(np.asarray(points, dtype=float))
    return "\n".join(f"{i} {' '.join(repr(float(x)) for x in row)}" for i, row in rows) + "\n"


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
    return metric_from_points(np.array([rows[i] for i in range(len(rows))]))


def metric_from_points(points: np.ndarray) -> Metric:
    """Euclidean metric of the rows of an n x d array of finite coordinates;
    raises :class:`NonFiniteDistance` if a distance overflows.

    Each entry is ``sqrt(sq_1 + sq_2 + ... + sq_d)``, its coordinates'
    squared differences added left to right, but no n x n x d tensor is
    built.  Rows are computed in blocks of at most ``BLOCK_ENTRIES`` entries,
    in place in the n x n result: the first coordinate's squares are written
    into the block and each later one's are added from one reused scratch
    block.  Each is made by copying the coordinate's row into its block and
    subtracting the block's own coordinates in place, faster than an outer
    subtraction: entry (i, j) squares fl(x_j - x_i) = -fl(x_i - x_j).  The
    result is exactly symmetric with a zero diagonal without a further pass:
    x_i - x_i = +0, and (i, j) and (j, i) add the same squares in one order.

    A 1-D cloud whose coordinates pass :func:`_abs_differences_exact` takes
    each block as ``|x_j - x_i|``: one subtraction and one ``abs``, the same
    bits as the square root of the square, and no entry can overflow.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise NonFiniteDistance(f"point {i} coordinate {j} = {pts[i, j]:g} is not finite")
    n, d = pts.shape
    dist = np.empty((n, n)) if d else np.zeros((n, n))
    cols = np.ascontiguousarray(pts.T)  # one row per coordinate
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    plain = d == 1 and _abs_differences_exact(cols[0])
    term = np.abs if plain else np.square  # np.square(x) is x * x
    scratch = np.empty(min(step, n) * n if d > 1 else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            block = dist[lo : lo + step]
            for c in range(d):
                into = scratch[: block.size].reshape(block.shape) if c else block
                np.copyto(into, cols[c])
                into -= cols[c, lo : lo + step, None]
                term(into, out=into)
                if c:
                    block += into
            if not plain:
                np.sqrt(block, out=block)
    if not plain and dist.size and not np.isfinite(dist.max()):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(dist))), dist.shape)
        raise NonFiniteDistance(f"distance between points {i} and {j} overflows")
    return Metric._adopt(dist)


def _abs_differences_exact(x: np.ndarray) -> bool:
    """True if ``|fl(x_i - x_j)|`` equals ``sqrt(fl(x_i - x_j) ** 2)`` as
    computed (every operation rounded to nearest) for all i, j: if the
    smallest nonzero difference between sorted neighbours is at least
    2^-511 and fl(max - min) < 2^511.  O(n log n).

    Let δ = fl(x_i - x_j).  δ = ±0 gives +0 both ways.  Else, as rounding is
    monotone and x_i - x_j spans a nonzero neighbour gap and lies within
    max - min, 2^-511 <= |δ| < 2^511, so δ² is a normal number below 2^1022.
    In radix 2 that makes RN(sqrt(RN(δ²))) = |δ| (cf. Muller et al.,
    *Handbook of Floating-Point Arithmetic*): write |δ| = m 2^q, 2^52 <= m <
    2^53.  If m = 2^52, δ² is exact.  Else both neighbours of |δ| are 2^q
    away, so sqrt(s) rounds to |δ| when (|δ| - 2^(q-1))² < s < (|δ| +
    2^(q-1))², i.e. when |s - δ²| < 2^(2q) (m - 1/4).  The error of s =
    RN(δ²) is at most half its ulp: 2^(2q+51) < 2^(2q) (m - 1/4) if m² <
    2^105, and 2^(2q+52) < 2^(2q) (m - 1/4) otherwise, as then m > 2^52.5.
    """
    if x.size < 2:
        return True
    xs = np.sort(x)
    with np.errstate(over="ignore"):
        gaps = np.diff(xs)
        span = xs[-1] - xs[0]
    smallest = np.min(gaps, where=gaps > 0.0, initial=math.inf)
    return bool(smallest >= 2.0**-511 and span < 2.0**511)
