import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peelembed import metric as metric_module
from peelembed.errors import (
    AsymmetricMatrix,
    EmptySubset,
    InputParse,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    PeelEmbedError,
    TriangleViolation,
    ZeroDiameter,
)
from peelembed.instances import FAMILIES, GeneratorSpec, generate, hc_case_c_spec
from peelembed.metric import (
    DENSE_BY_CONVENTION,
    TRIANGLE_TOL,
    Metric,
    find_core,
    format_metric,
    format_point_cloud,
    metric_from_points,
    parse_metric,
    parse_point_cloud,
    subset_stats,
    validate_metric,
)
from structural import (
    reference_find_core,
    reference_metric_from_points,
    reference_parse_metric,
    reference_sniff,
    reference_submetric,
    reference_subset_stats,
    reference_triangle_scan,
    reference_triangle_screen,
    reference_validate_metric,
)


def test_validate_accepts_smallest_metric():
    m = validate_metric([[0, 1], [1, 0]])
    assert m.n == 2
    assert m.dist[0, 1] == 1.0


def test_validate_accepts_triangle_equality_boundary():
    m = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert m.diameter() == 2.0


def test_validate_rejects_triangle_violation_with_witness():
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    i, j, k = exc.value.triple
    assert {i, j} == {0, 2} and k == 1


def test_validate_reports_smallest_violating_k():
    dist = np.abs(np.arange(6.0)[:, None] - np.arange(6.0)[None, :])
    dist[0, 2] = dist[2, 0] = 2.5  # fails only via k = 1, by 0.5
    dist[3, 5] = dist[5, 3] = 3.0  # fails only via k = 4, by 1.0
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(dist)
    assert exc.value.triple == (0, 2, 1) and exc.value.slack == 0.5


def _triangle_base(kind, n, rng, scale):
    """Exactly symmetric matrices that are metrics, with exact equalities in
    the path and uniform cases."""
    if kind == "closure":
        raw = rng.uniform(0.2, 1.0, size=(n, n))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        for k in range(n):
            raw = np.minimum(raw, raw[:, k, None] + raw[None, k, :])
    elif kind == "euclid":
        raw = np.array(metric_from_points(rng.standard_normal((n, 1 + n % 3))).dist)
    elif kind == "path":
        idx = np.arange(n, dtype=float)
        raw = np.abs(idx[:, None] - idx[None, :])
    else:
        raw = np.ones((n, n)) - np.eye(n)
    return raw * scale


def _plant_violation(mat, rng, excess):
    """Lengthen one pair past its shortest two-hop path: by one of a few ulps
    around tol (excess an int), by 10 tol, or by half the diameter."""
    n = mat.shape[0]
    a, b = (int(p) for p in rng.choice(n, size=2, replace=False))
    via = min(mat[a, k] + mat[k, b] for k in range(n) if k not in (a, b))
    for _ in range(2):  # lengthening the pair may raise the diameter and tol
        tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)
        if excess == "10tol":
            value = via + 10.0 * tol
        elif excess == "half":
            value = via + 0.5 * float(mat.max())
        else:
            value = via + tol
            for _ in range(abs(excess)):
                value = np.nextafter(value, math.copysign(math.inf, excess))
        mat[a, b] = mat[b, a] = value


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["closure", "euclid", "path", "uniform"]),
    st.integers(1, 40),
    st.sampled_from([1e-3, 1.0, 7.0, 1e4]),
    st.lists(st.sampled_from([-3, -1, 0, 1, 3, "10tol", "half"]), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_triangle_screen_matches_reference_scan(kind, n, scale, plants, seed):
    rng = np.random.default_rng(seed)
    mat = _triangle_base(kind, n, rng, scale)
    if n >= 3:
        for excess in plants:
            _plant_violation(mat, rng, excess)
    expected = reference_triangle_scan(mat, TRIANGLE_TOL * max(float(mat.max()), 1.0))
    try:
        m = validate_metric(mat)
    except TriangleViolation as exc:
        assert expected == (*exc.triple, exc.slack)
    else:
        assert expected is None
        assert np.array_equal(m.dist, mat)


@pytest.mark.parametrize("kind", ["closure", "euclid", "path", "uniform"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_triangle_witness_scan_skipped_on_metrics(monkeypatch, kind, scale):
    def fail(mat, k, buf):
        raise AssertionError("a point of a metric was checked exactly")

    monkeypatch.setattr(metric_module, "_largest_slack", fail)
    validate_metric(_triangle_base(kind, 60, np.random.default_rng(4), scale))


def _screen_flags(mat, tol):
    return any(metric_module._triangle_screen(mat, tol))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "euclid", "path", "uniform"]),
    st.integers(3, 40),
    st.sampled_from([1e-3, 1.0, 1e4]),
    st.lists(st.sampled_from([-3, -1, 0, 1, 3, "10tol", "half"]), max_size=2),
    st.sampled_from([1, 2, 3, 7]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_triangle_screen_matches_whole_slab(kind, n, scale, plants, rows, seed):
    rng = np.random.default_rng(seed)
    mat = _triangle_base(kind, n, rng, scale)
    for excess in plants:
        _plant_violation(mat, rng, excess)
    tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)
    # one row per block, or blocks of `rows` rows in row 0 and more below
    entries = 1 if rows == 1 else rows * (n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_module, "BLOCK_ENTRIES", entries)
        flag = _screen_flags(mat, tol)
    assert flag == reference_triangle_screen(mat, tol)


def test_triangle_screen_flags_a_violation_in_a_rows_last_block():
    n = 400
    mat = _triangle_base("uniform", n, None, 1.0)
    a, b = n - 10, n - 5
    mat[a, b] = mat[b, a] = 2.0 + 1e-6
    # row 0 meets the violating triples (0, a, b) and (0, b, a) in slab rows
    # a - 1 and b - 1 only, both in its last block
    step = metric_module.BLOCK_ENTRIES // (n - 1)
    assert 0 < (n - 2) // step * step <= a - 1
    tol = TRIANGLE_TOL * float(mat.max())
    assert _screen_flags(mat, tol)
    assert reference_triangle_screen(mat, tol)
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(mat)
    assert (*exc.value.triple, exc.value.slack) == reference_triangle_scan(mat, tol)


def test_triangle_screen_peak_memory():
    mat = _triangle_base("path", 600, None, 1.0)
    tracemalloc.start()
    try:
        assert not _screen_flags(mat, TRIANGLE_TOL * float(mat.max()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_metric_peak_memory():
    n = 600
    text = format_metric(Metric(_triangle_base("euclid", n, np.random.default_rng(5), 1.0)))
    tracemalloc.start()
    try:
        parse_metric(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the parsed array, adopted without a copy, and a few 512 KB blocks
    assert peak <= 1.5 * n * n * 8


def _triangle_outcome(mat, tol):
    try:
        metric_module._raise_triangle_witness(mat, tol)
    except TriangleViolation as exc:
        return (*exc.triple, exc.slack)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "euclid", "path", "uniform"]),
    st.integers(3, 40),
    st.sampled_from([1e-3, 1.0, 1e4]),
    st.lists(st.sampled_from([-3, -1, 0, 1, 3, "10tol", "half"]), max_size=3),
    st.sampled_from([1, 2, 3, 7, None]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_triangle_witness_matches_reference_scan(kind, n, scale, plants, rows, seed):
    rng = np.random.default_rng(seed)
    mat = _triangle_base(kind, n, rng, scale)
    for excess in plants:
        _plant_violation(mat, rng, excess)
    tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:  # blocks of `rows` whole rows
            mp.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
        assert _triangle_outcome(mat, tol) == reference_triangle_scan(mat, tol)


@pytest.mark.parametrize("rows", [1, 2, 4, None])
@pytest.mark.parametrize(
    "pairs",
    [
        [(3, 9), (5, 6)],  # equal slack at k = 0 in two rows: the first is named
        [(1, 2), (8, 9)],
        [(8, 9)],  # only in the last rows
    ],
)
def test_triangle_witness_slack_ties(monkeypatch, rows, pairs):
    n = 10
    mat = _triangle_base("uniform", n, None, 1.0)
    for a, b in pairs:
        mat[a, b] = mat[b, a] = 2.5
    if rows is not None:
        monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
    tol = TRIANGLE_TOL * 2.5
    want = reference_triangle_scan(mat, tol)
    assert want[2] == 0 and want[3] == 0.5
    assert _triangle_outcome(mat, tol) == want


def test_triangle_witness_late_violation(monkeypatch):
    # only the last rows violate: every earlier block scans all k and finds
    # none, and the last block finds k = n - 2
    n = 200
    mat = _triangle_base("path", n, None, 1.0)
    mat[n - 3, n - 1] = mat[n - 1, n - 3] = 2.5
    monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", 7 * n)
    tol = TRIANGLE_TOL * float(mat.max())
    want = reference_triangle_scan(mat, tol)
    assert want == (n - 3, n - 1, n - 2, 0.5)
    assert _triangle_outcome(mat, tol) == want
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(mat)
    assert (*exc.value.triple, exc.value.slack) == want


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize(
    "gadgets",
    [
        [(0, 2, 1)],  # early k
        [(90, 110, 100)],
        [(197, 199, 198)],  # late k
        # k = 150 is flagged in screen row 0, k = 100 only in row 100
        [(0, 199, 150), (120, 130, 100)],
        [(3, 7, 180), (50, 60, 40), (170, 190, 185)],
    ],
)
def test_triangle_witness_at_the_smallest_planted_k(monkeypatch, rows, gadgets):
    # every distance 2, but d(i, k) = d(k, j) = 1 < d(i, j) = 2.5 for each
    # gadget (i, j, k): its only violating triple is (i, j) via k
    n = 200
    mat = np.full((n, n), 2.0)
    np.fill_diagonal(mat, 0.0)
    for i, j, k in gadgets:
        mat[i, k] = mat[k, i] = mat[k, j] = mat[j, k] = 1.0
        mat[i, j] = mat[j, i] = 2.5
    if rows is not None:
        monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
    want = reference_triangle_scan(mat, TRIANGLE_TOL * 2.5)
    assert want[2] == min(k for _, _, k in gadgets)
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(mat)
    assert (*exc.value.triple, exc.value.slack) == want


def _validate_outcome(validate, raw):
    try:
        return np.asarray(validate(raw)).tobytes()
    except PeelEmbedError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["closure", "euclid", "path", "uniform"]),
    st.integers(1, 30),
    st.sampled_from([1e-3, 1.0, 1e4]),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
        ["tie", "within", "beyond", "negative", "-0"])), max_size=3),
    st.sampled_from([1, 2, 3, 7, None]),
)
def test_blocked_symmetrize_matches_whole_matrix(kind, n, scale, edits, rows):
    mat = _triangle_base(kind, n, np.random.default_rng(n), scale)
    tol = TRIANGLE_TOL * max(float(mat.max()), 1.0)
    for at, edit in edits:
        i, j = divmod(at % (n * n), n)
        if edit == "tie":  # two mismatches, of the same size on equal entries
            mat[i, j] += 3.0 * tol
            mat[(i + 1) % n, j] += 3.0 * tol
        elif edit == "within":  # symmetrised away
            mat[i, j] = mat[i, j] + 0.5 * tol
        elif edit == "beyond":
            mat[i, j] = mat[i, j] + 2.0 * tol
        elif edit == "negative":  # clamped to +0
            mat[i, j] = mat[j, i] = -0.25 * tol
        else:
            mat[i, j] = mat[j, i] = -0.0
    raw = mat.copy()
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
        got = _validate_outcome(lambda m: validate_metric(m).dist, mat)
    assert got == _validate_outcome(reference_validate_metric, mat)
    assert mat.tobytes() == raw.tobytes()  # the caller's array is left alone


def test_asymmetry_names_the_first_pair_of_largest_mismatch(monkeypatch):
    mat = _triangle_base("uniform", 12, None, 1.0)
    mat[7, 2] += 0.25
    mat[3, 9] -= 0.25  # as large, and first in C order on the upper side
    mat[10, 11] += 0.125
    monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", 3 * 12)
    with pytest.raises(AsymmetricMatrix, match=r"dist\[2\]\[7\] != dist\[7\]\[2\]"):
        validate_metric(mat)
    assert _validate_outcome(validate_metric, mat) == _validate_outcome(
        reference_validate_metric, mat)


def test_parse_metric_adopts_its_array(monkeypatch):
    seen = []
    real = metric_module._validate
    monkeypatch.setattr(metric_module, "_validate", lambda mat: seen.append(mat) or real(mat))
    m = parse_metric("2\n0 1\n1 0\n")
    assert len(seen) == 1 and np.shares_memory(seen[0], m.dist)
    raw = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not np.shares_memory(validate_metric(raw).dist, raw)


def _outcome(parse, text):
    """The parsed matrix's bytes, or the error's class and message (the class
    sets the exit code)."""
    try:
        m = parse(text)
    except PeelEmbedError as exc:
        return type(exc), str(exc)
    return m.n, m.dist.tobytes()


def _check_parse_like_reference(text):
    assert _outcome(parse_metric, text) == _outcome(reference_parse_metric, text)
    chosen = []

    def cloud(t):
        chosen.append("points")
        return parse_point_cloud(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_module, "parse_point_cloud", cloud)
        got = _outcome(lambda t: parse_metric(t, auto=True), text)
    sniff = reference_sniff(text)
    assert (chosen or ["matrix"]) == [sniff]
    expected = reference_parse_metric if sniff == "matrix" else parse_point_cloud
    assert got == _outcome(expected, text)


SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " \n\t", "\x0b", "\x0c",
              "\x1c", "\x85", "\u2028", "\xa0"]
BAD_TOKENS = ["x", "nan", "inf", "-Infinity", "1_0", "1e999", "0x1", "1,5", "--1", "\ufeff1"]


@st.composite
def matrix_like_texts(draw):
    """A small metric, or point cloud, written out in some layout, with a
    header, count or token that may be wrong."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["closure", "euclid", "path", "uniform"]))
        dist = _triangle_base(kind, n, np.random.default_rng(draw(st.integers(0, 99))), 1.0)
        rows = [[repr(float(x)) for x in row] for row in dist]
        header = draw(st.sampled_from([str(n)] * 20 + [str(n + 1), str(n - 1), "3.0", "0",
                                       "-2", "x", "4000000000", "1_0", "+2"]))
        rows = [[header]] + rows
    else:  # point cloud rows "id x y", ids possibly out of order
        ids = draw(st.permutations(range(n)))
        rows = [[str(i), draw(st.sampled_from(["0", "1.5", "-2", "3e1"])), "1"] for i in ids]
    tokens = [t for row in rows for t in row]
    ends = set(itertools.accumulate(len(row) for row in rows))
    cut = draw(st.sampled_from([0] * 12 + [-2, -1, 1, 2]))
    tokens = tokens[:-cut] if cut > 0 else tokens + ["0.5"] * -cut
    bad = draw(st.sampled_from([None] * 24 + BAD_TOKENS))
    if bad is not None:
        tokens.insert(draw(st.integers(0, len(tokens))), bad)
    layout = draw(st.sampled_from(["rows", "line", "token", "random"]))
    if layout == "rows":
        gaps = ["\n" if i + 1 in ends else " " for i in range(len(tokens) - 1)]
    elif layout == "line":
        gaps = [" "] * max(len(tokens) - 1, 0)
    elif layout == "token":
        gaps = ["\n"] * max(len(tokens) - 1, 0)
    else:
        gaps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=max(len(tokens) - 1, 0),
                             max_size=max(len(tokens) - 1, 0)))
    lead = draw(st.sampled_from(["", " ", "\n", "\r\n", "\t\x0c"]))
    trail = draw(st.sampled_from(["", "\n", " \n", "\r\n", "\n\n\x85"]))
    body = "".join(t + g for t, g in zip(tokens, gaps + [""]))
    return lead + body + trail


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrix_like_texts())
def test_streamed_parse_matches_token_parse(text):
    _check_parse_like_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        " \n\t\r\n\x0b",
        "3",
        "3\n",
        "3.0\n0 1 1\n1 0 1\n1 1 0\n",
        "0",
        "0\n",
        "-1\n5\n",
        "-2\n0 1\n1 0\n",
        "2\n0 1\n1\n",
        "2\n0 1\n1 0 7\n",
        "2\n0 1\n1 0\n7 8 9\n",
        "2\n0 x\n1 0\n",
        "2\n0 1\n1 0 x\n",
        "2\nx 1\n1 0 0\n",
        "2\n0 1\n1 0\n5 x\n",
        "2\n0 nan\nnan 0\n",
        "2\n0 inf\ninf 0\n",
        "2\n0 1_0\n1_0 0\n",
        "1_0\n" + "0 " * 100,
        "4000000000\n0 1\n1 0\n",
        "4000000000",
        "2 0 1 1 0",
        "0 1.5 2\n1 3 4\n",
        "1 5\n",
        "2\n0 1\n1 0\n\n\n",
    ],
)
def test_streamed_parse_matches_token_parse_on_malformed_text(text):
    _check_parse_like_reference(text)


def test_huge_header_allocates_nothing():
    tracemalloc.start()
    try:
        for auto in (False, True):
            with pytest.raises(InputParse):
                parse_metric("4000000000\n0 1\n1 0\n", auto=auto)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_metric_copies_the_callers_array():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    copies = [Metric(a), validate_metric(a)]
    a[0, 1] = 2.0  # raised while Metric(a) froze a itself
    for m in copies:
        assert m.dist[0, 1] == 1.0 and not m.dist.flags.writeable


def test_metric_holds_no_other_state():
    assert Metric.__slots__ == ("n", "dist")
    with pytest.raises(AttributeError):
        Metric(np.zeros((1, 1))).cache = {}


def test_validate_rejects_negative_and_diagonal_and_asymmetry():
    with pytest.raises(NegativeDistance):
        validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[1, 1], [1, 0]])
    with pytest.raises(AsymmetricMatrix):
        validate_metric([[0, 1], [2, 0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_before_other_checks(bad):
    with pytest.raises(NonFiniteDistance):
        validate_metric([[0, bad], [bad, 0]])
    # one bad entry makes the matrix asymmetric too; the finite check wins
    with pytest.raises(NonFiniteDistance):
        validate_metric([[0, 1, bad], [1, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_metric_rejects_non_finite_tokens(token):
    with pytest.raises(NonFiniteDistance):
        parse_metric(f"2\n0 {token}\n{token} 0\n")


def test_subset_stats_uniform_metric():
    m = validate_metric(np.ones((4, 4)) - np.eye(4))
    s = subset_stats(m, range(4))
    assert s.diameter == 1.0 and s.weight_sum == 6.0 and s.density == 6 / 16


def test_subset_stats_cluster_outlier(cluster_outlier_5):
    s = subset_stats(cluster_outlier_5, range(5))
    assert s.diameter == 1.0
    assert s.weight_sum == pytest.approx(4.6)
    assert s.density == pytest.approx(0.184)


def test_subset_stats_singleton_sentinel(cluster_outlier_5):
    s = subset_stats(cluster_outlier_5, [2])
    assert s.size == 1 and s.weight_sum == 0.0
    assert s.density == DENSE_BY_CONVENTION
    assert s.density >= 0.5  # sentinel compares above any threshold


def test_subset_stats_empty_rejected(cluster_outlier_5):
    with pytest.raises(EmptySubset):
        subset_stats(cluster_outlier_5, [])


def test_subset_stats_and_find_core_bit_equal_to_reference():
    rng = np.random.default_rng(7)
    cloud = metric_from_points(rng.normal(size=(300, 2)))
    for m in (cloud, Metric(np.asfortranarray(cloud.dist)), cloud.submetric(range(0, 300, 3))):
        subsets = [range(m.n), [m.n - 1], [0, m.n // 2]]
        subsets += [rng.choice(m.n, size=k, replace=False) for k in (3, 50, m.n - 1)]
        for subset in subsets:
            assert subset_stats(m, subset) == reference_subset_stats(m, subset)
        assert find_core(m, subset_stats(m, range(m.n))) == find_core(m)


def _stats_inputs(n):
    """A Euclidean metric, an unchecked asymmetric one and a Fortran-ordered
    matrix adopted as is, on n points."""
    rng = np.random.default_rng(n)
    cloud = metric_from_points(rng.normal(size=(n, 2)))
    asymmetric = Metric(rng.random((n, n)))
    fortran = Metric._adopt(np.asfortranarray(cloud.dist))
    return rng, (cloud, asymmetric, fortran)


@pytest.mark.parametrize("block", [1, 8, 64, 1000, metric_module.BLOCK_ENTRIES])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 600, 1860])
def test_subset_stats_copy_free_sum_is_bit_equal(monkeypatch, n, block):
    # blocks of one row up to 2^16 entries
    monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", block)
    rng, (cloud, asymmetric, fortran) = _stats_inputs(n)
    # a one-run submetric is a view whose rows lie n + 5 entries apart
    points = np.random.default_rng(n + 5).normal(size=(n + 5, 2))
    view = metric_from_points(points).submetric(range(3, n + 3))
    for m in (cloud, asymmetric, fortran, view):
        subsets = [range(n), sorted(rng.choice(n, size=max(n // 2, 1), replace=False))]
        for subset in subsets:
            stats = subset_stats(m, subset)
            assert stats == reference_subset_stats(m, subset)
            if m is not asymmetric:  # the strict upper sum, up to rounding
                upper = np.triu(m.dist[np.ix_(subset, subset)], 1).sum()
                assert stats.weight_sum == pytest.approx(upper, rel=1e-12, abs=0.0)


def test_subset_stats_peak_memory():
    n = 1860
    _, (m, _, _) = _stats_inputs(n)
    tracemalloc.start()
    try:
        subset_stats(m, range(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # n row sums; the n x n copy was 27.7 MB


def test_every_metric_is_exactly_symmetric():
    # subset_stats takes a block's weight as half the sum of its rows
    rng = np.random.default_rng(17)
    raw = metric_from_points(rng.normal(size=(30, 3))).dist
    raw = raw + rng.uniform(0.0, 1e-12, size=raw.shape)  # asymmetric within tolerance
    np.fill_diagonal(raw, -0.0)
    cases = [("validate_metric", validate_metric(raw)),
             ("parse_metric", parse_metric(f"30\n{' '.join(map(repr, raw.ravel().tolist()))}\n"))]
    for d in (1, 2, 9, 130):
        pts = rng.normal(size=(40, d)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        cases.append((f"metric_from_points d={d}", metric_from_points(pts)))
        cases.append((f"parse_point_cloud d={d}", parse_point_cloud(format_point_cloud(pts))))
    for family in FAMILIES:
        cases.append((family, generate(GeneratorSpec(family=family, n=40, seed=3))))
    cloud = metric_from_points(rng.normal(size=(100, 2)))
    # one run, two runs of 45 ids on average (>= SUBMETRIC_RUN_IDS), scattered ids
    for ids, kind in ((range(5, 95), "view"), ([*range(0, 40), *range(50, 100)], "run copy"),
                      (range(0, 100, 3), "gather")):
        cases.append((f"submetric {kind}", cloud.submetric(ids)))
    for label, m in cases:
        assert m.dist.tobytes() == np.ascontiguousarray(m.dist.T).tobytes(), label
        assert np.diag(m.dist).tobytes() == np.zeros(m.n).tobytes(), label  # +0, not -0


def test_find_core_cluster_outlier(cluster_outlier_5):
    res = find_core(cluster_outlier_5)
    assert res.core == (0, 1, 2, 3)
    assert res.center == 0
    assert subset_stats(cluster_outlier_5, res.core).diameter == pytest.approx(0.1)


def test_find_core_uniform_takes_everything():
    m = validate_metric(np.ones((4, 4)) - np.eye(4))
    res = find_core(m)
    assert res.core == (0, 1, 2, 3) and res.center == 0


def test_find_core_antipodal_pair():
    m = validate_metric([[0, 1], [1, 0]])
    assert find_core(m).core == (0, 1)


def test_find_core_zero_diameter_rejected():
    with pytest.raises(ZeroDiameter):
        find_core(validate_metric(np.zeros((3, 3))))


def _assert_core_as_reference(m, label):
    got, want = find_core(m), reference_find_core(m)
    assert (got.core, got.center) == (want.core, want.center), label


def test_find_core_ball_count_matches_reference(corpus):
    for label, m in corpus:
        if m.diameter() > 0.0:
            _assert_core_as_reference(m, label)
    # every ball holds every point, so the smallest center must win
    for n in range(2, 41):
        m = generate(GeneratorSpec(family="uniform_metric", n=n, seed=0))
        assert find_core(m).center == 0
        _assert_core_as_reference(m, f"uniform_metric n={n}")
    m = generate(hc_case_c_spec(1860)[0])
    _assert_core_as_reference(m, "hc_case_c_spec(1860)")
    # masks of a Fortran-ordered matrix and of a strided one-run view
    _assert_core_as_reference(Metric._adopt(np.asfortranarray(m.dist[:300, :300])), "fortran")
    _assert_core_as_reference(m.submetric(range(7, 607)), "view")


def test_density_floor_all_corpus(corpus):
    # W >= D * (n - 1) forces rho >= 1/n - 1/n^2 >= 1/(2n) for n >= 2.
    for label, m in corpus:
        s = subset_stats(m, range(m.n))
        if math.isfinite(s.density):
            assert s.density >= 1.0 / (2 * m.n), label
            assert s.density <= 0.5 + 1e-12, label


def test_metric_roundtrip_bit_identical(corpus):
    for label, m in corpus[:20]:
        again = parse_metric(format_metric(m))
        assert np.array_equal(again.dist, parse_metric(format_metric(again)).dist), label


def test_point_cloud_roundtrip():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    m = metric_from_points(pts)
    assert m.dist[0, 1] == pytest.approx(5.0)
    again = parse_point_cloud(format_point_cloud(pts))
    assert np.array_equal(m.dist, again.dist)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_point_cloud_rejects_non_finite_coordinates(token):
    with pytest.raises(NonFiniteDistance, match="point 0 coordinate 0"):
        parse_point_cloud(f"0 {token} 0\n1 1 0\n2 3 1\n3 0 2\n")
    with pytest.raises(NonFiniteDistance):
        metric_from_points(np.array([[0.0, 1.0], [2.0, float(token)]]))


@pytest.mark.filterwarnings("error")
def test_point_cloud_rejects_overflowing_distances():
    with pytest.raises(NonFiniteDistance, match="points 0 and 1 overflows"):
        parse_point_cloud("0 1e200 0\n1 0 0\n2 3 1\n")
    with pytest.raises(NonFiniteDistance):
        metric_from_points(np.array([[1e308], [-1e308]]))


@pytest.mark.parametrize("d", [*range(1, 11), 15, 16, 17, 64, 127, 128, 129, 200])
def test_metric_from_points_bit_equal_to_tensor_formula(monkeypatch, d):
    rng = np.random.default_rng(d)
    n = 600 if d < 64 else 120
    if d >= 64:  # the reference's n x n x d tensors stay small: 7 rows a block
        monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", 7 * n)
    assert n > metric_module.BLOCK_ENTRIES // n  # more than one row block
    pts = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    pts[n // 2] = pts[0]  # a repeated point
    got = metric_from_points(pts).dist
    assert got.tobytes() == reference_metric_from_points(pts).tobytes()
    # NumPy's pairwise sum over the tensor's last axis, up to rounding
    diff = pts[:, None, :] - pts[None, :, :]
    np.testing.assert_allclose(got, np.sqrt((diff * diff).sum(axis=-1)), rtol=1e-12, atol=0.0)


def test_metric_from_points_one_row_per_block(monkeypatch):
    monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", 1)
    for d in (0, 1, 3, 9, 130):
        pts = np.random.default_rng(3).normal(size=(40, d))
        assert metric_from_points(pts).dist.tobytes() == reference_metric_from_points(pts).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 9, 130])
@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_metric_from_points_extreme_scales(d, scale):
    # squares that underflow to subnormals and zeros, and sums near the top
    # of the range
    pts = np.random.default_rng(d).normal(size=(50, d)) * scale
    assert metric_from_points(pts).dist.tobytes() == reference_metric_from_points(pts).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [7, 9, 130])
def test_point_cloud_rejects_overflowing_sums(d):
    # every square is finite; their sum overflows
    pts = np.zeros((3, d))
    pts[1] = 1e154
    with pytest.raises(NonFiniteDistance, match="points 0 and 1 overflows"):
        metric_from_points(pts)


TINY, HUGE = 2.0**-511, 2.0**511  # the 1-D path's bounds on gaps and range


def _below(x):
    return float(np.nextafter(x, 0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "xs, exact",
    [
        ([3.0], True),
        ([0.0, -0.0, 1.0, 1.0, -0.0, 3.5, 0.0, -2.25], True),  # duplicates, +-0
        ([0.0, TINY, 2.0 * TINY, 1.0], True),  # the smallest gap allowed
        ([0.0, _below(TINY), 1.0], False),
        ([5.0, 5.0 + 2.0**-50, 0.0, -TINY], True),
        ([0.0, 1e-170, 1.0], False),  # the square underflows to 0
        ([-1e-160, 1e-160, 0.0], False),
        ([0.0, _below(HUGE)], True),  # the largest range allowed
        ([0.0, HUGE], False),
        ([-0.5 * HUGE, 0.5 * HUGE], False),  # fl(max - min) = 2^511
        ([-1e150, 1e150, 3.0, -7.0], True),
        ([1e153, -1e153, 0.0], True),
        ([0.0, 1e154], False),
    ],
)
def test_one_dim_distances_bit_equal_to_square_root(monkeypatch, xs, exact):
    pts = np.array(xs)[:, None]
    assert metric_module._abs_differences_exact(pts[:, 0]) is exact
    got = metric_from_points(pts).dist
    assert got.tobytes() == reference_metric_from_points(pts).tobytes()
    monkeypatch.setattr(metric_module, "_abs_differences_exact", lambda x: False)
    assert got.tobytes() == metric_from_points(pts).dist.tobytes()


def test_one_dim_path_needs_its_rule():
    # below 2^-511 the square loses bits: sqrt(fl(d * d)) != |d|
    pts = np.array([[0.0], [1e-170], [3e-155], [1.0]])
    general = metric_from_points(pts).dist
    assert general[0, 1] == 0.0 and general[0, 2] != 3e-155
    assert np.array_equal(general, reference_metric_from_points(pts))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("low, high", [(-150, 150), (-150, -100), (100, 150), (-20, 20)])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_one_dim_path_on_wide_magnitudes(monkeypatch, low, high, rows):
    rng = np.random.default_rng([low + 200, high + 200])
    n = 300
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)
    x[:20] = x[20:40]  # repeated points
    x[40], x[41] = 0.0, -0.0
    pts = x[:, None]
    if rows is not None:
        monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
    assert metric_module._abs_differences_exact(x)
    got = metric_from_points(pts).dist
    assert got.tobytes() == reference_metric_from_points(pts).tobytes()
    monkeypatch.setattr(metric_module, "_abs_differences_exact", lambda x: False)
    assert got.tobytes() == metric_from_points(pts).dist.tobytes()


@pytest.mark.filterwarnings("error")
def test_one_dim_overflow_takes_the_general_path():
    # every square but that of the named pair's difference is finite
    for text, pair in (("0 1e200\n1 -1e200\n", "0 and 1"),
                       ("0 1\n1 2\n2 1e154\n3 -1e154\n", "2 and 3")):
        with pytest.raises(NonFiniteDistance) as exc:
            parse_point_cloud(text)
        assert str(exc.value) == f"distance between points {pair} overflows"
        pts = np.array([[float(line.split()[1])] for line in text.splitlines()])
        assert not metric_module._abs_differences_exact(pts[:, 0])


def test_case_c_clouds_take_the_one_dim_path():
    from peelembed.instances import generate, hc_case_c_spec, la_case_c_spec

    for spec in (hc_case_c_spec(1860)[0], la_case_c_spec(250)[0]):
        x = generate(spec).dist[0]
        assert metric_module._abs_differences_exact(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 9])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_row_minus_column_blocks_bit_equal_to_tensor_formula(monkeypatch, d, rows):
    # entry (i, j) is built from x_j - x_i, the tensor's from x_i - x_j:
    # unsorted, mixed-sign coordinates with repeats and both zeros
    rng = np.random.default_rng(10 + d)
    n = 250
    pts = rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(0.0, 50.0, size=(n, d))
    pts[:30] = pts[60:90]
    pts[100, 0], pts[101, 0] = 0.0, -0.0
    pts[110:115] = pts[115]  # a point five times over
    if rows is not None:
        monkeypatch.setattr(metric_module, "BLOCK_ENTRIES", rows * n)
    want = reference_metric_from_points(pts).tobytes()
    assert metric_from_points(pts).dist.tobytes() == want
    if d == 1:  # the square-root branch too
        assert metric_module._abs_differences_exact(pts[:, 0])
        monkeypatch.setattr(metric_module, "_abs_differences_exact", lambda x: False)
        assert metric_from_points(pts).dist.tobytes() == want


def test_metric_from_points_peak_memory():
    n, d = 2000, 2
    pts = np.random.default_rng(0).normal(size=(n, d))
    tracemalloc.start()
    try:
        metric_from_points(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n * 8  # three n x n float matrices


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n0 2\n", "appears twice"),
        ("0 0 0\n1 1\n2 3 1\n", "1 coordinates, expected 2"),
        ("0 0 0\n1 1 x\n", "line 2"),
        ("0.5 1 2\n", "line 1"),
        ("0 1\n2 3\n", "0..n-1"),
        ("# only a comment\n", "empty"),
    ],
)
def test_point_cloud_rejects_malformed_text(text, message):
    with pytest.raises(InputParse, match=message):
        parse_point_cloud(text)


@pytest.mark.parametrize(
    "text",
    ["", "2\n0 1\n1\n", "2\n0 1\n1 0 7\n", "2\n0 x\nx 0\n", "two\n", "0\n"],
)
def test_parse_metric_rejects_malformed_text(text):
    with pytest.raises(InputParse):
        parse_metric(text)


def test_submetric_induces_sorted_ids(cluster_outlier_5):
    sub = cluster_outlier_5.submetric([4, 0, 2])
    assert sub.n == 3
    assert sub.dist[0, 1] == 0.1  # points 0 and 2
    assert sub.dist[0, 2] == 1.0  # points 0 and 4


def _ids_in_runs(k, runs):
    """k ascending ids in ``runs`` runs of near-equal length, one id missing
    between runs."""
    ids, start = [], 0
    for r in range(runs):
        size = k // runs + (r < k % runs)
        ids.extend(range(start, start + size))
        start += size + 1
    return ids


@pytest.mark.parametrize("run_ids", [1, metric_module.SUBMETRIC_RUN_IDS])
def test_submetric_bit_equal_to_gather(monkeypatch, run_ids):
    n, k, cut = 400, 320, metric_module.SUBMETRIC_RUN_IDS
    _, (cloud, asymmetric, fortran) = _stats_inputs(n)
    rng = np.random.default_rng(1)
    two_runs = [p for p in range(n) if p != 200]
    id_sets = [
        [7], range(n), range(0, 300), range(100, n), range(50, 350), two_runs,
        _ids_in_runs(k, k // cut), _ids_in_runs(k, k // cut + 1),  # at and past the cut-off
        sorted(rng.choice(n, size=150, replace=False)),
        rng.permutation(two_runs).tolist(),  # unsorted
    ]
    # with the cut-off at 1 id per run every id set is copied by slices
    monkeypatch.setattr(metric_module, "SUBMETRIC_RUN_IDS", run_ids)
    for m in (cloud, asymmetric, fortran):
        for ids in id_sets:
            sub = m.submetric(ids)
            want = reference_submetric(m, ids)
            assert sub.n == len(want)
            if np.all(np.diff(sorted(ids)) == 1):  # one run: a view of m's matrix
                assert np.shares_memory(sub.dist, m.dist)
            else:
                assert sub.dist.flags.c_contiguous
            assert not sub.dist.flags.writeable
            assert sub.dist.tobytes() == np.ascontiguousarray(want).tobytes()
        for ids in ([-1, 0], [n - 1, n]):
            with pytest.raises(IndexError):
                m.submetric(ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_core_guarantee_random_euclidean(n, seed):
    rng = np.random.default_rng(seed)
    m = metric_from_points(rng.standard_normal((n, 2)))
    s = subset_stats(m, range(m.n))
    if s.diameter == 0.0:
        return
    core = subset_stats(m, find_core(m).core)
    root = math.sqrt(s.density)
    assert core.diameter <= 4.0 * s.diameter * root + 1e-9
    assert core.size >= m.n * (1.0 - root) - 1e-9
