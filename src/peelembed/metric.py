"""Validated metric instances, subset statistics and core detection.

A metric is held as a dense symmetric n x n distance matrix.  ``subset_stats``
computes the diameter / weight / size / weighted-density statistics of a point
subset, and ``find_core`` locates a small-diameter subset containing almost all
points by enumerating balls around every candidate center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

# Density reported for zero-diameter subsets.  Compares >= any threshold, which
# routes degenerate instances into the dense branch of the solvers.
DENSE_BY_CONVENTION = math.inf


class Metric:
    """Immutable symmetric distance matrix satisfying the triangle inequality.

    Construct through :func:`validate_metric` (checked) or ``Metric(dist)``
    (unchecked, for matrices valid by construction); the constructor keeps a
    read-only copy of ``dist`` and leaves the caller's array alone.
    """

    __slots__ = ("n", "dist", "_assignment_cache")

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
        self._assignment_cache = {}

    def submetric(self, indices: Sequence[int]) -> "Metric":
        """Induced metric on ``indices`` (order defines the new point ids)."""
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
    indices: frozenset
    diameter: float
    weight_sum: float
    size: int
    density: float


@dataclass(frozen=True)
class CoreResult:
    core: frozenset
    center: int
    stats: SubsetStats


def validate_metric(raw, check_triangle: bool = True) -> Metric:
    """Validate a raw square matrix and wrap it as a :class:`Metric`.

    Raises :class:`NonFiniteDistance` (checked first), :class:`NegativeDistance`,
    :class:`NonzeroDiagonal`, :class:`AsymmetricMatrix` or
    :class:`TriangleViolation` (with the witnessing triple).
    ``check_triangle=False`` skips the O(n^3) triangle scan for matrices known
    valid by construction.
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

    if check_triangle and _triangle_screen(mat, tol):
        _raise_triangle_witness(mat, tol)  # returns only on a false flag
    return Metric._adopt(mat)


def _triangle_screen(mat: np.ndarray, tol: float) -> bool:
    """False only if no triple fails the test of :func:`_raise_triangle_witness`.

    For i < k, ``|d(k,j) - d(i,j)| <= d(i,k)`` over all j is the triangle
    inequality with the pair {i, k} as one side.  Columns j > i suffice: a
    triple a < b < c meets its three inequalities in the pairs {a, b}
    (column c) and {a, c} (column b).  So row i's slab covers every triple
    whose smallest point is i, each unordered pair once, in one reused buffer.

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
    buf = np.empty((n - 1) * (n - 1))
    for i in range(n - 2):  # the last two rows hold no triple with i smallest
        rest = mat[i, i + 1 :]
        slab = buf[: rest.size * rest.size].reshape(rest.size, rest.size)
        np.subtract(mat[i + 1 :, i + 1 :], rest, out=slab)
        np.abs(slab, out=slab)
        if (slab.max(axis=1) > rest + allowed).any():
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
    diameter is zero.
    """
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        raise EmptySubset("subset_stats requires a nonempty subset")
    if idx[0] < 0 or idx[-1] >= m.n:
        raise IndexError(f"subset out of range for n={m.n}")
    sub = m.dist[np.ix_(idx, idx)]
    size = len(idx)
    diameter = float(sub.max())
    weight = float(np.triu(sub, 1).sum())
    if diameter > 0.0:
        density = weight / (size * size * diameter)
    else:
        density = DENSE_BY_CONVENTION
    return SubsetStats(
        indices=frozenset(idx),
        diameter=diameter,
        weight_sum=weight,
        size=size,
        density=density,
    )


def find_core(m: Metric) -> CoreResult:
    """Largest ball of radius 2 * D_V * sqrt(rho_V); ties to smallest center.

    The returned subset has diameter <= 4 * D_V * sqrt(rho_V) and size
    >= n * (1 - sqrt(rho_V)).
    """
    stats = subset_stats(m, range(m.n))
    if stats.diameter <= 0.0:
        raise ZeroDiameter("all points coincide; instance is trivially dense")
    radius = 2.0 * stats.diameter * math.sqrt(stats.density)
    within = m.dist <= radius
    sizes = within.sum(axis=1)
    center = int(np.argmax(sizes))  # argmax returns the smallest maximizer
    core = frozenset(int(i) for i in np.flatnonzero(within[center]))
    return CoreResult(core=core, center=center, stats=subset_stats(m, core))


# ---------------------------------------------------------------------------
# Text formats: raw matrix and Euclidean point cloud.


def format_metric(m: Metric) -> str:
    lines = [str(m.n)]
    for row in m.dist:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_metric(
    text: str, check_triangle: bool = True, tokens: Optional[Sequence[str]] = None
) -> Metric:
    """Parse ``n`` followed by the n * n matrix entries, then validate.

    ``tokens`` is ``text.split()``, for a caller that has split it already.
    """
    if tokens is None:
        tokens = text.split()
    if not tokens:
        raise InputParse("empty metric file")
    try:
        n = int(tokens[0])
        vals = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InputParse(f"metric file: {exc}") from None
    if n < 1 or len(vals) != n * n:
        raise InputParse(f"expected n >= 1 and n * n matrix entries, got n={n} "
                         f"and {len(vals)} entries")
    return validate_metric(
        np.array(vals).reshape(n, n), check_triangle=check_triangle
    )


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
    raises :class:`NonFiniteDistance` if a distance overflows."""
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        i, j = np.argwhere(~np.isfinite(pts))[0]
        raise NonFiniteDistance(f"point {i} coordinate {j} = {pts[i, j]:g} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    if dist.size and not np.isfinite(dist.max()):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(dist))), dist.shape)
        raise NonFiniteDistance(f"distance between points {i} and {j} overflows")
    return Metric._adopt(dist)
