"""Batched move scoring of the local searches against the reference loops.

The reduced searches and the partition search score every move of a sweep in
one numpy pass; the loops in ``structural.py`` rebuild and score each
candidate from scratch.  Both run on the quantized metric.  The reduced
searches take each move's gain from per-row tables, O(1) per move, and the
partition search each move's drop in penalty; both are checked to equal the
reference values' changes bit for bit there, and the partition search's
decisions to equal the float decisions it made before.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structural import (
    exact_feasible,
    family_metrics,
    reference_arrangement_values,
    reference_caterpillar_values,
    reference_crossing_matrix,
    reference_grid_partitions,
    reference_hc_reduced,
    reference_hc_value,
    reference_la_reduced,
    reference_la_value,
    reference_move,
    reference_move_gains,
    reference_reduced_restarts,
    reference_search_local,
    reference_single_moves,
    reference_swap_gain,
    reference_swap_hill_climb,
    reference_swap_table,
    reference_weight_cells,
    score_moves,
)
from peelembed import hc_dense
from peelembed.hc_dense import _caterpillar_gains, solve_hc_dense
from peelembed.instances import FAMILIES as ALL_FAMILIES
from peelembed.instances import GeneratorSpec, generate, small_corpus
from peelembed import la_dense, local_search, partition_search
from peelembed.la_dense import (
    _embed_assignment,
    _embed_rows,
    _prefix_cut_gains,
    _swap_gains,
    _swap_hill_climb,
    solve_la_dense,
)
from peelembed.local_search import SolveConfig, quantize, reduced_restarts
from peelembed.metric import Metric, validate_metric
from peelembed.objectives import LinearArrangement, evaluate_hc, evaluate_la, ladder_tree
from peelembed.partition_search import (
    PartitionSpec,
    _drops,
    _penalty,
    _stats,
    grid_partitions,
    search_partition,
)

FAMILIES = (
    "euclidean_gaussian",
    "clustered",
    "uniform_metric",
    "path_metric",
    "cluster_plus_outliers",
)

# (module, gain function, reference scorer, reference value, table entries
# of one row) of each reduced search
HC = (hc_dense, _caterpillar_gains, reference_caterpillar_values, reference_hc_value,
      lambda n, slots: n * slots + slots * slots)
LA = (la_dense, _prefix_cut_gains, reference_arrangement_values, reference_la_value,
      lambda n, k: n * (n + 1))


def _metrics(sizes):
    return [
        (f"{family}-n{n}", generate(GeneratorSpec(family=family, n=n, seed=n)))
        for family in FAMILIES
        for n in sizes
    ]


def _drop_cases(k):
    """(label, q, unit, cell, rows, active) of random rows of every family at
    n = 5, 12 and 20, each row with its own weight bounds of random width
    around its crossing weights, on the integer metric and its scale."""
    rng = np.random.default_rng(k)
    for label, m in _metrics((5, 12, 20)):
        q = quantize(m.dist)
        unit = m.n * q.max()
        rows = rng.integers(0, k, size=(6, m.n)).astype(np.uint8)
        rows[3:] = rows[:3]  # repeated states
        weights = _stats(q, rows, k)[1].reshape(len(rows), k * k)
        width = rng.choice([0.0, 1.0, 1e3, unit], size=weights.shape)
        wlo, whi = weights - width, weights + width[::-1]
        active = rng.random(k * k) < 0.7
        lo, hi = np.full(k, unit), np.full(k, unit * m.n / 2)
        cell = (lo, hi, wlo[:, None, None, active], whi[:, None, None, active])
        yield label, q, unit, cell, rows, active


@pytest.mark.parametrize("k", [2, 3, 6])
def test_moved_states_match_reference_updates(k):
    # bit for bit: on the integer metric each cell p * k + b is the drop in
    # penalty of moving p to b, the moved sizes and crossing matrix rebuilt
    # by the reference loop's updates, and each stay cell is 0
    for label, q, unit, cell, rows, active in _drop_cases(k):
        got = _drops(q, unit, cell, rows, active)
        n = rows.shape[1]
        assert got.shape == (len(rows), n * k), label
        lo, hi, wlo, whi = cell
        for r, assign in enumerate(rows):
            sizes, cross, part_dist = (x[0] for x in _stats(q, assign[None], k))
            own = (lo, hi, wlo[r, 0], whi[r, 0])

            def penalty(sizes, cross):
                return _penalty(unit, own, sizes[None], cross.ravel()[None, active], [0])[0]

            now = penalty(sizes, cross)
            for p, b in itertools.product(range(n), range(k)):
                if b == assign[p]:
                    assert got[r, p * k + b] == 0.0, (label, r, p)
                    continue
                sz, cr = reference_move(sizes, cross, part_dist, p, assign[p], b)
                want = now - penalty(sz, cr)
                assert got[r, p * k + b] == want, (label, r, p, b)


def test_drop_table_stays_are_zero_and_exact_ties_take_the_earlier_cell(monkeypatch):
    # Every table the local regime climbs holds 0 in each stay cell
    # p * k + a, and each moving row takes its first largest drop; on
    # uniform_metric and path_metric many drops tie exactly.
    monkeypatch.setattr(partition_search, "EXHAUSTIVE_N", 0)
    seen = {"rows": 0, "ties": 0}

    def ascend(rows, sweeps, entries, gains, move, real=partition_search.ascend):
        tables = {}

        def recorded_gains(ids):
            table = gains(ids)
            tables.update(zip(ids.tolist(), table))
            return table

        def recorded_move(ids, picks):
            for i, pick in zip(ids.tolist(), picks.tolist()):
                table = tables[i]
                assert table[pick] == table.max() > 0.0 and pick == table.argmax()
                seen["rows"] += 1
                seen["ties"] += (table == table.max()).sum() > 1
            move(ids, picks)

        real(rows, sweeps, entries, recorded_gains, recorded_move)

    def drops(q, unit, cell, rows, active, real=_drops):
        table = real(q, unit, cell, rows, active)
        k = table.shape[1] // rows.shape[1]
        stays = table[np.arange(len(rows))[:, None], np.arange(rows.shape[1]) * k + rows]
        assert not stays.any()
        return table

    monkeypatch.setattr(partition_search, "ascend", ascend)
    monkeypatch.setattr(partition_search, "_drops", drops)
    for family in ("uniform_metric", "path_metric", "clustered"):
        m = generate(GeneratorSpec(family=family, n=9, seed=1))
        solve_hc_dense(m, SolveConfig(0.5, "faithful", restarts=2), seed=1)
    assert seen["rows"] > 100 and seen["ties"] > 10, seen


def test_single_moves_scan_order():
    # the drop table's move cells p * k + b run in ascending p, then
    # ascending target, in the order the reduced searches' reference loop
    # lists its moves, which skips stays
    assign = np.array([1, 0, 2])
    want = [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert [divmod(c, 3) for c in range(9) if c % 3 != assign[c // 3]] == want
    assert list(zip(*reference_single_moves(assign, 3))) == want


def _check_float_gains(objective, parts):
    # On the float metric each gain is the reference's up to the rounding of
    # its terms, whose magnitudes sum to at most 13 n W.
    _, gains, _, value, _ = objective
    rng = np.random.default_rng(parts)
    for label, m in _metrics((5, 12, 20)):
        assign = rng.integers(0, parts, size=m.n)
        points, targets = reference_single_moves(assign, parts)
        got = gains(m.dist, parts)(assign[None])[0, points * parts + targets]
        want = reference_move_gains(value, m, assign, parts)
        weight = m.dist.sum() / 2.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * 13 * m.n * weight,
                                   err_msg=label)


@pytest.mark.parametrize("slots", [2, 3, 5])
def test_hc_move_values_match_reference(slots):
    _check_float_gains(HC, slots)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_la_move_values_match_reference(k):
    _check_float_gains(LA, k)


def test_identical_trees_score_identically():
    # Point 0 alone ahead of a single ladder is the ladder over all points,
    # whichever slot 0 sits in: moving it between those slots rebuilds the
    # same tree, so the move gains exactly 0 and is never taken.
    q = quantize(generate(GeneratorSpec(family="euclidean_gaussian", n=9, seed=3)).dist)
    rows = np.full((3, 9), 2)
    rows[0, 0], rows[1, 0] = 0, 1
    gains = _caterpillar_gains(q, 3)(rows)  # point 0's cells first
    assert np.all(gains[:, :3] == 0.0) and np.any(gains[:, 3:] != 0.0)
    # batch position does not change a row's gains
    alone = _caterpillar_gains(q, 3)(rows[1:2])
    assert alone.tobytes() == gains[1:2].tobytes()


def test_swap_gains_match_per_pair_delta():
    rng = np.random.default_rng(5)
    for label, m in _metrics((5, 12, 20)):
        pos = rng.permutation(m.n).astype(float) + 1.0
        gains = _swap_gains(m.dist, pos)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                want = reference_swap_gain(m, pos, i, j)
                assert gains[i, j] == pytest.approx(want, rel=1e-9, abs=1e-9), label
                assert gains[j, i] == pytest.approx(want, rel=1e-9, abs=1e-9), label


@pytest.mark.parametrize("n", [2, 3, 7, 40, 120])
def test_swap_tables_match_the_formula_order(n):
    # The table adds its terms in another order than the formula, from two
    # arrays instead of four; on the quantized metric every term is exact,
    # so every table has the same bits, one row or a stack of rows.
    rng = np.random.default_rng(n)
    for label, m in family_metrics((n,)):
        q = quantize(m.dist)
        stack = np.array([rng.permutation(n) + 1.0 for _ in range(33)])
        stack[0] = np.arange(1.0, n + 1.0)
        for pos in (stack[1], stack[:1], stack):
            got = _swap_gains(q, pos)
            assert got.shape == pos.shape + (n,), label
            assert got.tobytes() == reference_swap_table(q, pos).tobytes(), (label, pos.shape)


def test_embedded_rows_match_each_row_embedded():
    # one argsort of all rows gives each row's consecutive-parts embedding
    rng = np.random.default_rng(6)
    for n, k in ((1, 2), (2, 2), (12, 2), (12, 3), (30, 6)):
        rows = rng.integers(0, k, size=(33, n))
        rows[0] = 0  # one part only
        got = _embed_rows(rows)
        assert got == [_embed_assignment(row) for row in rows], (n, k)
        assert all(type(slot) is int for arr in got for slot in arr.position)
    m = generate(GeneratorSpec(family="clustered", n=12, seed=1))
    rows = reduced_restarts(12, 3, 0, 32, _prefix_cut_gains(quantize(m.dist), 3), 12 * 13)
    assert _embed_rows(rows) == [_embed_assignment(row) for row in rows]


def test_swap_hill_climb_matches_reference(monkeypatch):
    # All starts climb in lockstep on the quantized metric, as the per-pair
    # reference climbs each; batches of one row, and one batch of every row,
    # show that a row's climb does not depend on its batch.  A start at a
    # local maximum comes back unchanged.
    rng = np.random.default_rng(8)
    for label, m in _metrics((7, 40)):
        q = quantize(m.dist)
        identity = LinearArrangement.from_order(range(m.n))
        starts = [identity] + [LinearArrangement.from_order(rng.permutation(m.n))
                               for _ in range(2)]
        want = [reference_swap_hill_climb(Metric(q), arr, 40) for arr in starts]
        for rows in (None, 1, len(starts) + 1):
            with monkeypatch.context() as patch:
                if rows is not None:
                    patch.setattr(local_search, "BATCH_ENTRIES", m.n * m.n * rows)
                got = _swap_hill_climb(q, starts, 40)
            assert got == want, (label, rows)
        # a start climbed to the top cannot gain, and no sweeps change none
        top = _swap_hill_climb(q, starts[1:2], 10_000)[0]
        assert _swap_hill_climb(q, [top, starts[2], top], 40) == [top, want[2], top], label
        assert _swap_hill_climb(q, starts, 0) == starts, label


def _restart_cases():
    rng = np.random.default_rng(23)
    for i, family in enumerate(ALL_FAMILIES):
        for case in range(2):
            n = int(rng.integers(5, 31))
            parts = int(rng.integers(2, 7))
            # two_scale needs weight_ratio < n / 12
            m = generate(GeneratorSpec(family=family, n=n, seed=case, weight_ratio=0.25))
            restarts = (0, 1, 3, 32)[(i + case) % 4]
            # a budget of 2 sweeps cuts most restarts off mid-run
            moves = (None, 2)[case]
            yield f"{family}-n{n}-k{parts}-r{restarts}", m, parts, restarts, moves


@pytest.mark.parametrize("batch", ["default", "one row", "split"])
def test_lockstep_restarts_match_per_restart_loop(batch, monkeypatch):
    # Bit for bit on the quantized metric, for both objectives, against the
    # per-restart loop scoring every moved copy with the reference scorer;
    # batches of one row, or of two rows that split the restarts, show that a
    # row's gains do not depend on its batch.
    for label, m, parts, restarts, moves in _restart_cases():
        q = quantize(m.dist)
        for module, gains, scorer, _, entries in (HC, LA):
            with monkeypatch.context() as patch:
                if moves is not None:
                    patch.setattr(local_search, "moves", lambda n: moves)
                want = list(reference_reduced_restarts(m.n, parts, 3, restarts,
                                                       lambda rows: scorer(q, rows, parts)))
                if batch != "default":
                    rows = {"one row": 1, "split": 2}[batch]
                    patch.setattr(local_search, "BATCH_ENTRIES", entries(m.n, parts) * rows)
                got = reduced_restarts(m.n, parts, 3, restarts, gains(q, parts),
                                       entries(m.n, parts))
            assert got.shape == (restarts, m.n), label
            for row, (g, w) in enumerate(zip(got, want)):
                assert g.tobytes() == w.tobytes(), (label, module.__name__, row)


def test_quantize_takes_the_scale_to_its_bound():
    # s = floor(log2(2^53 / (16 n^3))): integers in [0, 2^s], the largest
    # entry at 2^s, and a tiny or huge diameter does not overflow the scale
    for n in (3, 7, 16, 240, 2000):
        s = int(np.floor(np.log2(2.0**53 / (16.0 * n**3))))
        dist = np.ones((n, n)) - np.eye(n)
        dist[0, 2:] = dist[2:, 0] = 0.75
        for scale in (1e-300, 1.0, 1e300):
            q = quantize(dist * scale)
            assert q.max() == 2.0**s and q[0, 2] == 0.75 * 2.0**s, (n, scale)
            assert q.min() == 0.0 and np.all(q == np.rint(q)), (n, scale)


def _gain_cases(sizes):
    # uniform_metric and path_metric tie many moves exactly; the scales
    # check that quantizing takes out the size of the weights
    return given(
        st.sampled_from(FAMILIES),
        st.sampled_from(sizes),
        st.integers(2, 6),
        st.sampled_from([1e-150, 1e-9, 1.0, 1e9, 1e150]),
        st.integers(0, 2**32 - 1),
    )


def _quantized(family, n, scale, seed):
    m = validate_metric(generate(GeneratorSpec(family=family, n=n, seed=seed % 97)).dist * scale)
    return quantize(m.dist)


def _check_gains(objective, dist, parts, assigns, moves=None):
    """The gains, taken for all rows at once and a row at a time, equal the
    reference value of each moved assignment less that of the assignment on
    ``Metric(dist)``, bit for bit; ``moves`` picks some of the moves."""
    _, gains, _, value, _ = objective
    points, targets = reference_single_moves(assigns, parts)
    if moves is not None:
        points, targets = points[moves], targets[:, moves]
    got = gains(dist, parts)(assigns)
    rowwise = np.concatenate([gains(dist, parts)(assigns[r:r + 1]) for r in range(len(assigns))])
    assert got.tobytes() == rowwise.tobytes()
    m = Metric(dist)
    for assign, row_targets, row_gains in zip(assigns, targets, got):
        want = reference_move_gains(value, m, assign, parts, zip(points, row_targets))
        # == rather than bytes: LA turns the sign of a zero change
        np.testing.assert_array_equal(row_gains[points * parts + row_targets], want)


@settings(max_examples=60, deadline=None, derandomize=True)
@_gain_cases([2, 5, 12, 20, 30])
def test_caterpillar_screen_equals_scorer_on_quantized(family, n, slots, scale, seed):
    assigns = np.random.default_rng(seed).integers(0, slots, size=(3, n))
    _check_gains(HC, _quantized(family, n, scale, seed), slots, assigns)


@settings(max_examples=60, deadline=None, derandomize=True)
@_gain_cases([2, 3, 5, 12, 20, 30])
def test_prefix_cut_screen_equals_scorer_on_quantized(family, n, k, scale, seed):
    assigns = np.random.default_rng(seed).integers(0, k, size=(3, n))
    _check_gains(LA, _quantized(family, n, scale, seed), k, assigns)


def test_screens_equal_scorers_at_the_largest_n():
    # n = 2000, the ladder's largest, on uniform_metric: every entry is 2^s,
    # the heaviest weights the bound allows; one row, a handful of moves
    q = quantize(generate(GeneratorSpec(family="uniform_metric", n=2000, seed=1)).dist)
    assert q.max() == q[0, 1] == 2.0**16
    rng = np.random.default_rng(0)
    for objective, parts in ((HC, 3), (LA, 4)):
        assigns = rng.integers(0, parts, size=(1, 2000))
        moves = rng.choice(2000 * (parts - 1), size=4, replace=False)
        _check_gains(objective, q, parts, assigns, moves)


def _restarts_case(n, family, parts, restarts, batch, objective):
    """Bit for bit against the per-restart loop scoring every moved copy with
    the reference scorer, on the quantized metric; batches of one row take
    each row's gains on its own."""
    _, gains, scorer, _, entries = objective
    q = quantize(generate(GeneratorSpec(family=family, n=n, seed=n + parts)).dist)
    want = list(reference_reduced_restarts(n, parts, 3, restarts,
                                           lambda rows: scorer(q, rows, parts)))
    with pytest.MonkeyPatch.context() as patch:
        if batch == "one row":
            patch.setattr(local_search, "BATCH_ENTRIES", 1)
        got = reduced_restarts(n, parts, 3, restarts, gains(q, parts), entries(n, parts))
    for row, (g, w) in enumerate(zip(got, want)):
        assert g.tobytes() == w.tobytes(), row


@pytest.mark.parametrize("n", [9, 12, 20, 40])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(2, 5),
    st.sampled_from([1, 3, 8]),
    st.sampled_from(["default", "one row"]),
)
def test_screened_restarts_match_per_restart_loop(n, family, slots, restarts, batch):
    _restarts_case(n, family, slots, restarts, batch, HC)


@pytest.mark.parametrize("n", [9, 12, 20, 40])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(2, 5),
    st.sampled_from([1, 3, 8]),
    st.sampled_from(["default", "one row"]),
)
def test_screened_la_restarts_match_per_restart_loop(n, family, k, restarts, batch):
    _restarts_case(n, family, k, restarts, batch, LA)


@pytest.mark.parametrize("slots", [2, 3, 5, 7])
def test_caterpillar_values_match_gather_formula(slots):
    # Whole stacks of rows, the first with one slot holding every point: each
    # gain is the change of the gather formula's value, bit for bit.
    rng = np.random.default_rng(slots)
    for label, m in _metrics((5, 12, 30)):
        q = quantize(m.dist)
        assigns = rng.integers(0, slots, size=(40, m.n))
        assigns[0] = slots - 1
        points, targets = reference_single_moves(assigns, slots)
        got = np.take_along_axis(_caterpillar_gains(q, slots)(assigns), points * slots + targets,
                                 axis=1)

        def score(rows):
            return reference_caterpillar_values(q, rows, slots)

        want = score_moves(assigns, points, targets, score) - score(assigns)[:, None]
        assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("parts", [2, 3, 5])
def test_gain_tables_are_the_move_lists(parts):
    # Both reduced searches read their moves straight off their gain tables,
    # built for a stack of rows and a row at a time alike: own-part cells are
    # exactly 0, the other cells, read in the old move order, are the
    # reference scorer's gains (== rather than bytes: LA turns the sign of a
    # zero change), and the first largest cell, when it gains, is the move
    # that the old order's first largest gain named.
    rng = np.random.default_rng(parts)
    for label, m in _metrics((3, 4, 7, 13, 25, 40)):
        q = quantize(m.dist)
        assigns = rng.integers(0, parts, size=(6, m.n))
        assigns[0] = parts - 1  # every point in one part
        points, targets = reference_single_moves(assigns, parts)
        for module, gains, scorer, _, _ in (HC, LA):
            where = (label, module.__name__)
            table = gains(q, parts)(assigns)
            rowwise = np.concatenate([gains(q, parts)(row[None]) for row in assigns])
            assert table.shape == (len(assigns), m.n * parts), where
            assert table.tobytes() == rowwise.tobytes(), where
            own = np.take_along_axis(table, np.arange(m.n) * parts + assigns, axis=1)
            assert np.all(own == 0.0), where
            want = (score_moves(assigns, points, targets, lambda rows: scorer(q, rows, parts))
                    - scorer(q, assigns, parts)[:, None])
            got = np.take_along_axis(table, points * parts + targets, axis=1)
            np.testing.assert_array_equal(got, want, err_msg=str(where))
            for row, old, old_targets in zip(table, want, targets):
                pick, first = int(row.argmax()), int(old.argmax())
                assert (row[pick] > 0.0) == (old[first] > 0.0), where
                if row[pick] > 0.0:
                    assert divmod(pick, parts) == (points[first], old_targets[first]), where


def test_swap_tables_are_symmetric_with_a_zero_diagonal():
    # On the quantized metric, so the swap climb's first largest gain in
    # row-major order is the first largest of the pairs i < j.
    rng = np.random.default_rng(2)
    for label, m in _metrics((3, 4, 7, 13, 25, 40)):
        pos = np.array([rng.permutation(m.n) + 1.0 for _ in range(6)])
        pos[0] = np.arange(1.0, m.n + 1.0)
        tables = _swap_gains(quantize(m.dist), pos)
        assert tables.tobytes() == np.swapaxes(tables, 1, 2).copy().tobytes(), label
        assert np.all(np.diagonal(tables, axis1=1, axis2=2) == 0.0), label
        i, j = np.triu_indices(m.n, 1)
        for table in tables:
            pick, first = int(table.argmax()), int(table[i, j].argmax())
            assert (table.flat[pick] > 0.0) == (table[i[first], j[first]] > 0.0), label
            if table.flat[pick] > 0.0:
                assert divmod(pick, m.n) == (i[first], j[first]), label


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_dense_witnesses_match_reference_loops(eps):
    # every sweep of either reduced search takes the gain tables
    cfg = SolveConfig(eps, restarts=3)
    for label, m in _metrics((7, 10)):
        for seed in (0, 1):
            got, _ = solve_hc_dense(m, cfg, seed=seed)
            want = reference_hc_reduced(m, cfg, seed)
            assert got.serialize() == want.serialize(), (label, seed)
            assert solve_la_dense(m, cfg, seed=seed)[0] == reference_la_reduced(
                m, cfg, seed
            ), (label, seed)


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_screened_la_witnesses_match_reference_loop(eps, monkeypatch):
    # every LA gain table and swap climb takes one row at a time
    monkeypatch.setattr(local_search, "BATCH_ENTRIES", 1)
    cfg = SolveConfig(eps, restarts=3)
    for label, m in _metrics((7, 10)):
        for seed in (0, 1):
            got = solve_la_dense(m, cfg, seed=seed)[0]
            assert got == reference_la_reduced(m, cfg, seed), (label, seed)


# sha256 of the serialized witness of each default-budget dense solve at
# n=60, eps 0.5, seed 0, recorded from the search that still scored each
# move's full value, so that taking gains alone changed no witness
PINNED_WITNESSES = {
    ("clustered", "hc"): "46c9194312ee51376d3b3488069f1d81e5c9a77b90cb05a04009a800e6a2372a",
    ("clustered", "la"): "adb8adbee9344008aa2bda044d36d0e283841b43c60d5f0560a5a822f81f8cdd",
    ("uniform_metric", "hc"): "fd6cf2567dd8cd9f6ce6257c780f95d190f583dd4c922dc587cd6a040323f3c3",
    ("uniform_metric", "la"): "bb07d88f2280961af684c5760ca5ff9c42d2b7832bcf65a9c0eca3becdf5eab9",
}


@pytest.mark.parametrize("family, objective", sorted(PINNED_WITNESSES))
def test_default_budget_witnesses_are_pinned(family, objective):
    # the reference loops run at n <= 10; this pins the full search, 32
    # restarts sweeping in lockstep and the LA swap climb, at a larger n
    m = generate(GeneratorSpec(family=family, n=60, seed=0))
    solve = {"hc": solve_hc_dense, "la": solve_la_dense}[objective]
    witness = solve(m, SolveConfig(0.5), seed=0)[0].serialize()
    assert hashlib.sha256(witness.encode()).hexdigest() == PINNED_WITNESSES[family, objective]


# sha256 of the serialized witness of each default-budget faithful solve on
# clustered at eps 0.5, seed 0, recorded from the grid search that ran one
# search_partition call per cell: LA n=13 and HC n=13 search their grids in
# the local regime, the others in the exhaustive one
PINNED_FAITHFUL_WITNESSES = {
    ("hc", 7): "090d467c4cc3ff08ce6c54ee41a1dc62780e77b25cbe00e3c7d00e49254f9f71",
    ("hc", 13): "8173ee1be115db33bcf0543c211e73baec0783107c75d833f53193991ed5b05c",
    ("la", 10): "86a3a2845e0e7148152e602fee4ad14c94a21ecde89b683117ff481c89282a53",
    ("la", 13): "b28021295cc7222ee882c6a155c59a8ddb36800aaff37e54fe48bbbac2c5a5a0",
}


@pytest.mark.parametrize("objective, n", sorted(PINNED_FAITHFUL_WITNESSES))
def test_default_budget_faithful_witnesses_are_pinned(objective, n):
    m = generate(GeneratorSpec(family="clustered", n=n, seed=0))
    solve = {"hc": solve_hc_dense, "la": solve_la_dense}[objective]
    witness = solve(m, SolveConfig(0.5, "faithful"), seed=0)[0].serialize()
    assert hashlib.sha256(witness.encode()).hexdigest() == PINNED_FAITHFUL_WITNESSES[objective, n]


@pytest.mark.parametrize("regime", ["exhaustive", "local"])
def test_grid_partitions_match_per_cell_reference(regime, monkeypatch):
    # The grids of faithful HC and LA solves with 1-4 restarts: one search per
    # grid yields the assignments that one search per cell found, in order,
    # in chunks of the default size and of a single cell.  In the local
    # regime some HC sweep scores more distinct row states than the grid has
    # starts, so rows of one start took different moves in different cells.
    if regime == "local":
        monkeypatch.setattr(partition_search, "EXHAUSTIVE_N", 0)
    states = []  # distinct states of each set of rows the local regime scores

    def distinct(rows, real=partition_search._distinct):
        states.append(len(real(rows)[0]))
        return real(rows)

    monkeypatch.setattr(partition_search, "_distinct", distinct)
    grids = []
    for module in (hc_dense, la_dense):
        def record(m, parts, size_cells, levels, *rest, real=module.grid_partitions):
            grids.append((m, parts, size_cells(), levels, *rest))
            return real(m, parts, size_cells, levels, *rest)

        monkeypatch.setattr(module, "grid_partitions", record)
    for restarts, (_, m) in zip((4, 3, 1, 2, 1), _metrics((7,))):
        solve_hc_dense(m, SolveConfig(0.5, "faithful", restarts), seed=1)
        solve_la_dense(m, SolveConfig(0.45, "faithful", restarts), seed=1)
    assert len(grids) == 10 and all(
        len(sizes) * len(reference_weight_cells(m, parts, levels, eps_err)) > 50
        for m, parts, sizes, levels, eps_err, *_ in grids)
    hits = splits = 0
    for m, parts, sizes, levels, eps_err, restarts, seed in grids:
        args = (levels, eps_err, restarts, seed)
        want = reference_grid_partitions(m, parts, sizes, *args)
        states.clear()
        assert list(grid_partitions(m, parts, lambda: sizes, *args)) == want, (m, parts)
        splits += max(states, default=0) > restarts
        with monkeypatch.context() as patch:
            patch.setattr(partition_search, "BATCH_ENTRIES", 1)
            assert list(grid_partitions(m, parts, lambda: sizes, *args)) == want, (m, parts)
        hits += len(want)
    assert hits >= 20, hits
    assert (splits > 0) == (regime == "local"), splits


# (objective, family, n, seed) of the faithful corpus: the solves of
# tests/golden/faithful_local.txt and PINNED_FAITHFUL_WITNESSES, and each
# size on uniform_metric and path_metric, whose weights sit on grid
# boundaries
FAITHFUL_CORPUS = sorted({
    (objective, family, n, seed)
    for objective, first, n, seed in [
        ("la", "clustered", 13, 0), ("la", "euclidean_uniform_box", 16, 0),
        ("hc", "clustered", 13, 1), ("hc", "uniform_metric", 13, 0),
        ("hc", "clustered", 7, 0), ("hc", "clustered", 13, 0), ("la", "clustered", 10, 0)]
    for family in (first, "uniform_metric", "path_metric")})


class _Grid(Exception):
    pass


@pytest.mark.parametrize("eps", [0.4, 0.5, 2 / 3, 1.0])
def test_faithful_grids_decide_as_float_sums(eps, monkeypatch):
    # No flips: every faithful grid of the corpus yields, in order, the hits
    # of the per-cell float decisions of reference_grid_partitions, every
    # exhaustive grid with the default budget and the local ones, where
    # the per-cell loop is slow, at eps 1.0 with 2 restarts.  On a
    # copy of the code before the integer metric, the default-budget solves
    # of the corpus and of the search workload's faithful requests at seeds
    # 1 and 7 flipped no hit at any of these eps.
    grids = []

    def record(m, parts, size_cells, *rest):
        grids.append((m, parts, size_cells(), *rest))
        raise _Grid

    for module in (hc_dense, la_dense):
        monkeypatch.setattr(module, "grid_partitions", record)
    checked = 0
    for objective, family, n, seed in FAITHFUL_CORPUS:
        m = generate(GeneratorSpec(family=family, n=n, seed=seed))
        solve = {"hc": solve_hc_dense, "la": solve_la_dense}[objective]
        with pytest.raises(_Grid):
            solve(m, SolveConfig(eps, "faithful"), seed=seed)
        m, parts, sizes, levels, eps_err, restarts, seed = grids.pop()
        if not partition_search.exhaustive(m.n, parts):
            if eps < 1.0:
                continue
            restarts = 2
        args = (levels, eps_err, restarts, seed)
        want = reference_grid_partitions(m, parts, sizes, *args)
        assert list(grid_partitions(m, parts, lambda: sizes, *args)) == want, (family, n)
        checked += 1
    assert checked >= 6, checked


def test_default_budget_faithful_hc_grid_matches_per_cell_reference(monkeypatch):
    # The grid of a default-budget faithful HC solve at n=13, in the local
    # regime: 525 cells of 32 restarts each, whose rows split into many
    # groups, yield what one search per cell finds, in order.
    grids = []

    def record(m, parts, size_cells, *rest, real=hc_dense.grid_partitions):
        grids.append((m, parts, size_cells(), *rest))
        return real(m, parts, size_cells, *rest)

    monkeypatch.setattr(hc_dense, "grid_partitions", record)
    m = generate(GeneratorSpec(family="clustered", n=13, seed=0))
    solve_hc_dense(m, SolveConfig(0.5, "faithful"), seed=0)
    (m, parts, sizes, *rest), = grids
    assert not partition_search.exhaustive(m.n, parts)
    want = reference_grid_partitions(m, parts, sizes, *rest)
    assert len(want) >= 20 and list(grid_partitions(m, parts, lambda: sizes, *rest)) == want


def test_reduced_search_scores_the_quantized_metric(monkeypatch):
    # a solve quantizes once when it searches (both) or climbs (LA, always),
    # and its gain tables and swap climb see only that copy; otherwise it
    # quantizes nothing
    m = _metrics((12,))[0][1]
    for module, solve, factories, cases in (
        (hc_dense, solve_hc_dense, ("_caterpillar_gains",),
         [(SolveConfig(0.5, restarts=r), r > 0) for r in (0, 2)]),
        (la_dense, solve_la_dense, ("_prefix_cut_gains", "_swap_gains"),
         [(SolveConfig(0.5, restarts=r), True) for r in (0, 2)]),
    ):
        made, seen = [], []
        real_quantize = module.quantize
        monkeypatch.setattr(module, "quantize", lambda d: made.append(real_quantize(d)) or made[-1])
        for factory in factories:
            monkeypatch.setattr(module, factory, lambda d, *rest, real=getattr(module, factory):
                                seen.append(d) or real(d, *rest))
        for cfg, searches in cases:
            made.clear()
            seen.clear()
            solve(m, cfg, seed=0)
            assert len(made) == searches, cfg
            assert bool(seen) == searches and all(d is made[0] for d in seen), cfg


def _transposed_swap_gains(dist, pos):
    """``_swap_gains`` with S = D A taken as (A D)^T, equal as A and D are
    symmetric, but summed by BLAS in another order."""
    gaps = np.abs(pos[..., :, None] - pos[..., None, :])
    s = np.swapaxes(gaps @ dist, -1, -2)
    diag = np.diagonal(s, axis1=-2, axis2=-1)
    gains = s + np.swapaxes(s, -1, -2)
    gains -= diag[..., :, None]
    gains -= diag[..., None, :]
    gains += 2.0 * dist * gaps
    return gains


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_la_witness_does_not_depend_on_the_swap_product_order(eps, monkeypatch):
    # The swap climb decides on exact gains of the quantized metric, so
    # summing its product in another order changes no witness bit.
    cfg = SolveConfig(eps, restarts=8)
    cases = small_corpus() + _metrics((40, 90))
    want = [solve_la_dense(m, cfg, seed=1)[0].serialize() for _, m in cases]
    monkeypatch.setattr(la_dense, "_swap_gains", _transposed_swap_gains)
    for (label, m), witness in zip(cases, want):
        assert solve_la_dense(m, cfg, seed=1)[0].serialize() == witness, label


def test_quantize_is_the_one_line_form():
    # in place on one copy, the same operations as the one-line form: the
    # same bits, on a read-only matrix and a read-only view of it alike
    for label, m in _metrics((5, 40)):
        for dist in (m.dist, m.dist[1:, 1:]):
            assert not dist.flags.writeable
            before = dist.copy()
            n = len(dist)
            s = int(np.floor(np.log2(2.0**53 / (16.0 * n**3))))
            want = np.rint(dist / dist.max() * 2.0**s)
            assert quantize(dist).tobytes() == want.tobytes(), label
            assert dist.tobytes() == before.tobytes(), label


@pytest.mark.parametrize("family", ["clustered", "euclidean_gaussian"])
def test_dense_solvers_build_and_score_each_distinct_restart_once(family, monkeypatch):
    # 32 restarts end in far fewer distinct rows on these families; each
    # distinct row is built, climbed and scored once, and the pick is the
    # reference loop's, which builds and scores every restart
    m = generate(GeneratorSpec(family=family, n=12, seed=1))
    calls = {}

    def record(module, name):  # calls[name] gets (args, result) of each call
        real, log = getattr(module, name), calls.setdefault(name, [])

        def wrapped(*args):
            log.append((args, real(*args)))
            return log[-1][1]
        monkeypatch.setattr(module, name, wrapped)

    for module, names in ((hc_dense, ("reduced_restarts", "evaluate_hc")),
                          (la_dense, ("reduced_restarts", "evaluate_la", "_swap_hill_climb"))):
        for name in names:
            record(module, name)

    cfg = SolveConfig(0.5)
    tree, _ = solve_hc_dense(m, cfg, seed=0)
    rows = {row.tobytes() for row in calls["reduced_restarts"][0][1]}
    scored = [args[1] for args, _ in calls["evaluate_hc"]]
    assert len(rows) < cfg.restarts
    assert len(scored) == len(rows) + 1  # the ladder and each distinct row
    assert len({id(t) for t in scored}) == len(scored)
    assert tree.serialize() == reference_hc_reduced(m, cfg, 0).serialize()

    arr, _ = solve_la_dense(m, cfg, seed=0)
    identity = LinearArrangement.from_order(range(m.n)).position
    rows = calls["reduced_restarts"][1][1]
    embedded = {identity, *(la_dense._embed_assignment(row).position for row in rows)}
    [((_, starts, _), climbed)] = calls["_swap_hill_climb"]
    assert len(embedded) < cfg.restarts + 1
    assert sorted(s.position for s in starts) == sorted(embedded)
    scored = [args[1].position for args, _ in calls["evaluate_la"]]
    assert sorted(scored) == sorted({identity, *(a.position for a in climbed)})
    assert arr == reference_la_reduced(m, cfg, 0)


def test_partition_search_matches_reference_loop(monkeypatch):
    # One restart per search, so each restart's outcome is compared on its
    # own.  A random planted assignment meets each spec: its part sizes are
    # the upper bounds, and its crossing weights either exact bounds or none.
    monkeypatch.setattr(partition_search, "EXHAUSTIVE_N", 0)  # the local regime at every n
    rng = np.random.default_rng(17)
    found = cases = 0
    flips = []
    for family in ALL_FAMILIES:
        for case in range(6):
            n = int(rng.integers(5, 31))
            k = int(rng.integers(2, min(6, n) + 1))
            # two_scale needs weight_ratio < n / 12
            m = generate(GeneratorSpec(family=family, n=n, seed=case, weight_ratio=0.25))
            eps_err = float(rng.choice([1e-3, 0.01, 0.05]))
            planted = rng.integers(0, k, size=n)
            sizes = [(0.0, f) for f in np.bincount(planted, minlength=k) / n]
            wb = None
            if case % 2:
                cross = reference_crossing_matrix(m, planted, k) / (n * n * m.diameter())
                wb = [[(w, w) for w in row] for row in cross]
            spec = PartitionSpec.build(k, size_bounds=sizes, weight_bounds=wb)
            for seed in (0, 1):
                got = search_partition(m, spec, eps_err, restarts=1, seed=seed)
                want = reference_search_local(m, spec, eps_err, 1, seed)
                if got != want:
                    flips.append((family, n, k, seed))
                    assert got is not None and exact_feasible(m, spec, eps_err, got).all()
                found += want is not None
                cases += 1
    assert found >= cases / 3, (found, cases)
    # The one flip: at the first move, two moves to part 0 leave size
    # vectors of exactly equal penalty, and their float penalties round
    # 6e-14 apart, past the loop's 1e-15 tolerance, so the loop took the
    # later one; the integer search takes the earlier, as on any exact tie.
    assert flips == [("euclidean_gaussian", 24, 6, 1)], flips


@pytest.mark.parametrize("grid_mode", ["reduced", "faithful"])
def test_dense_value_is_the_witness_value(grid_mode):
    single, zeros = validate_metric([[0.0]]), validate_metric(np.zeros((4, 4)))
    pair = validate_metric([[0.0, 1.0], [1.0, 0.0]])
    searched = [(label, m, 0.5) for label, m in _metrics((6,))]
    solvers = {  # solver -> (evaluator, (label, metric, eps) cases)
        solve_la_dense: (evaluate_la, [
            ("one point", single, 0.5), ("n < k", pair, 0.3), ("zero diameter", zeros, 0.5),
        ]),
        solve_hc_dense: (evaluate_hc, [
            ("one point", single, 0.5), ("n <= slots, enumerated", _metrics((5,))[0][1], 0.25),
            ("zero diameter", zeros, 0.5),
        ]),
    }
    for solve, (evaluate, early) in solvers.items():
        for label, m, eps in early + searched:
            witness, value = solve(m, SolveConfig(eps, grid_mode, restarts=2), seed=1)
            assert value == evaluate(m, witness), (solve.__name__, label)


def test_coincidence_check_decides_as_the_diameter(monkeypatch):
    near = np.zeros((6, 6))
    near[1, 2] = near[2, 1] = 5e-10  # within the triangle tolerance of row 0's zeros
    inputs = [("zeros 4x4", validate_metric(np.zeros((4, 4))), False),
              ("one point", validate_metric([[0.0]]), False),
              ("row 0 zero", validate_metric(near), True)]
    cases = [  # (solver, config, module whose search must run on "row 0 zero")
        (solve_la_dense, SolveConfig(0.5), la_dense),
        (solve_hc_dense, SolveConfig(0.5), hc_dense),
        (solve_hc_dense, SolveConfig(0.2), None),  # n <= slots: enumerated
    ]
    searched = []
    for module in (la_dense, hc_dense):
        def spy(m, cfg, seed, search=module._solve_reduced):
            searched.append(m)
            return search(m, cfg, seed)

        monkeypatch.setattr(module, "_solve_reduced", spy)
    for label, m, positive in inputs:
        assert m.coincident() is (m.diameter() <= 0.0) is not positive, label
        for solve, cfg, module in cases:
            searched.clear()
            got = solve(m, cfg, seed=0)
            assert len(searched) == (positive and module is not None), (label, cfg)
            with monkeypatch.context() as mp:
                mp.setattr(Metric, "coincident", lambda self: self.diameter() <= 0.0)
                want = solve(m, cfg, seed=0)
            assert got == want, (label, solve.__name__, cfg)
    # the enumerated trees compete: some beat the ladder on "row 0 zero"
    _, value = solve_hc_dense(inputs[2][1], SolveConfig(0.2))
    assert value > evaluate_hc(inputs[2][1], ladder_tree(range(6)))


def _solve_peak(m, restarts, monkeypatch, eps=0.5):
    """tracemalloc peak of each dense solver, one sweep per restart."""
    monkeypatch.setattr(local_search, "moves", lambda n: 1)
    cfg = SolveConfig(eps, restarts=restarts)
    for solve in (solve_hc_dense, solve_la_dense):
        tracemalloc.start()
        try:
            solve(m, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield solve.__name__, peak


def test_one_restart_memory_is_bounded(monkeypatch):
    # Unbatched, one HC sweep at n=300 would hold 600 candidates x 300^2
    # entries (over 400 MB per temporary); batches keep it to a few MB each.
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=300, seed=0))
    for solver, peak in _solve_peak(m, 1, monkeypatch):
        assert peak < 32e6, (solver, peak)


def test_lockstep_restart_memory_is_bounded(monkeypatch):
    # 32 restarts sweep together: all their moved rows at once would be
    # 32 x 600 rows of 300 ids for HC (46 MB); each batch builds only its own.
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=300, seed=0))
    for solver, peak in _solve_peak(m, 32, monkeypatch):
        assert peak < 32e6, (solver, peak)


def test_faithful_grid_memory_is_bounded():
    # Default-budget faithful grids in the local regime: HC at n=13 sweeps 32
    # restarts of each of its 525 cells.  One sweep of all 16800 rows at once
    # would hold (16800, 26, 3, 3) crossing temporaries of 31 MB each; each
    # chunk of cells builds only its own, and LA at n=30 likewise.
    for solve, n in ((solve_hc_dense, 13), (solve_la_dense, 30)):
        m = generate(GeneratorSpec(family="clustered", n=n, seed=0))
        tracemalloc.start()
        try:
            solve(m, SolveConfig(0.5, "faithful"), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (solve.__name__, peak)


def test_exhaustive_grid_memory_is_bounded():
    # HC's faithful grid at n=11 enumerates all 3^11 assignments once.  The
    # assignments as Python tuples, or a scaled second copy of their sizes
    # and crossing weights, took the peak to 40.7 MB; held once, 23.5 MB.
    m = generate(GeneratorSpec(family="clustered", n=11, seed=0))
    tracemalloc.start()
    try:
        solve_hc_dense(m, SolveConfig(0.5, "faithful"), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


def test_lockstep_climb_memory_is_bounded():
    # 33 starts climb together: one unbatched sweep would hold several
    # (33, 300, 300) gap and product temporaries (24 MB each) and gains of
    # every pair of every start (12 MB); each batch scans its own rows.
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=300, seed=0))
    rng = np.random.default_rng(0)
    starts = [LinearArrangement.from_order(rng.permutation(m.n)) for _ in range(33)]
    q = quantize(m.dist)
    tracemalloc.start()
    try:
        _swap_hill_climb(q, starts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_swap_table_and_la_value_memory_is_bounded():
    # One swap table at n=400 holds two n x n arrays, the gaps that become
    # the table and the product (2.05 n^2 doubles; four arrays, 4.00, when
    # it summed the formula out of place).  The LA value holds one array of
    # products (1.10; 2.00 with the gaps and their product apart).
    n = 400
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=n, seed=0))
    q = quantize(m.dist)
    pos = np.random.default_rng(0).permutation(n) + 1.0
    arr = LinearArrangement.from_positions(pos.astype(int).tolist())
    square = n * n * 8
    peak = _peak(lambda: _swap_gains(q, pos))
    assert peak < 2.5 * square, peak / square
    peak = _peak(lambda: evaluate_la(m, arr))
    assert peak < 1.5 * square, peak / square


def test_screened_la_sweep_memory_is_bounded(monkeypatch):
    # One sweep of 32 restarts at n=300: the gain tables, (n + 1, n) per
    # row, go through a row at a time.
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=300, seed=0))
    gains, swept = _prefix_cut_gains(m.dist, 2), [0]

    def counted(assigns):
        swept[0] += len(assigns)
        return gains(assigns)

    monkeypatch.setattr(local_search, "moves", lambda n: 1)
    tracemalloc.start()
    try:
        reduced_restarts(m.n, 2, 0, 32, counted, m.n * (m.n + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swept[0] == 32
    assert peak < 16e6, peak


def test_small_eps_memory_is_bounded(monkeypatch):
    # eps 0.02 gives HC 51 slots: a sweep at n=60 lists 3000 moves per
    # restart, and the gain tables of each restart grow with n x slots and
    # slots^2; batches of restarts keep them to a few MB.
    m = generate(GeneratorSpec(family="euclidean_gaussian", n=60, seed=0))
    for solver, peak in _solve_peak(m, 32, monkeypatch, eps=0.02):
        assert peak < 16e6, (solver, peak)
