"""Tests for incremental diagram maintenance (insert/delete)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagram.global_diagram import quadrant_diagram_for_mask
from repro.diagram.maintenance import delete_point, insert_point
from repro.diagram.quadrant_scanning import quadrant_scanning
from repro.errors import QueryError

from tests.conftest import points_2d

coordinate = st.tuples(st.integers(0, 8), st.integers(0, 8))


def _same(a, b):
    return a.grid.axes == b.grid.axes and dict(a.cells()) == dict(b.cells())


class TestInsert:
    def test_new_dominating_point(self):
        updated = insert_point(quadrant_scanning([(5, 5)]), (2, 2))
        assert updated.result_at((0, 0)) == (1,)
        assert updated.result_at((1, 1)) == (0,)

    def test_new_dominated_point_changes_nothing_below(self):
        updated = insert_point(quadrant_scanning([(2, 2)]), (5, 5))
        assert updated.result_at((0, 0)) == (0,)
        assert updated.result_at((1, 1)) == (1,)

    def test_duplicate_point_joins_results(self):
        updated = insert_point(quadrant_scanning([(3, 3)]), (3, 3))
        assert updated.result_at((0, 0)) == (0, 1)

    def test_ids_are_appended(self, staircase):
        updated = insert_point(quadrant_scanning(staircase), (0, 0))
        assert updated.result_at((0, 0)) == (3,)
        assert len(updated.grid.dataset) == 4

    def test_rejects_non_quadrant(self, staircase):
        reflected = quadrant_diagram_for_mask(
            staircase, 1, quadrant_scanning
        )
        with pytest.raises(QueryError):
            insert_point(reflected, (0, 0))

    @given(points_2d(max_size=9), coordinate)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_rebuild(self, pts, newp):
        updated = insert_point(quadrant_scanning(pts), newp)
        rebuilt = quadrant_scanning(pts + [newp])
        assert _same(updated, rebuilt)

    @given(points_2d(max_size=6), st.lists(coordinate, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_chained_inserts(self, pts, additions):
        diagram = quadrant_scanning(pts)
        for newp in additions:
            diagram = insert_point(diagram, newp)
        assert _same(diagram, quadrant_scanning(pts + additions))


class TestDelete:
    def test_deleting_the_dominator_exposes_points(self):
        diagram = quadrant_scanning([(1, 1), (2, 3), (3, 2)])
        updated = delete_point(diagram, 0)
        assert updated.result_at((0, 0)) == (0, 1)  # old ids 1, 2 remapped

    def test_deleting_a_dominated_point_is_a_projection(self):
        diagram = quadrant_scanning([(1, 1), (5, 5)])
        updated = delete_point(diagram, 1)
        assert updated.result_at((0, 0)) == (0,)
        assert updated.grid.shape == (2, 2)

    def test_id_remapping(self):
        diagram = quadrant_scanning([(9, 9), (1, 1), (2, 2)])
        updated = delete_point(diagram, 0)
        # Old ids 1, 2 are now 0, 1.
        assert updated.result_at((0, 0)) == (0,)

    def test_validation(self, staircase):
        diagram = quadrant_scanning(staircase)
        with pytest.raises(QueryError):
            delete_point(diagram, 99)
        with pytest.raises(QueryError):
            delete_point(quadrant_scanning([(1, 1)]), 0)

    @given(points_2d(min_size=2, max_size=9), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_rebuild(self, pts, seed):
        victim = seed % len(pts)
        updated = delete_point(quadrant_scanning(pts), victim)
        rebuilt = quadrant_scanning(
            [q for i, q in enumerate(pts) if i != victim]
        )
        assert _same(updated, rebuilt)

    @given(points_2d(min_size=1, max_size=7), coordinate)
    @settings(max_examples=25, deadline=None)
    def test_insert_then_delete_is_identity(self, pts, newp):
        diagram = quadrant_scanning(pts)
        round_trip = delete_point(insert_point(diagram, newp), len(pts))
        assert _same(round_trip, diagram)

    def test_chain_of_hidden_points_resurfaces_in_order(self):
        # p0 hides both p1 and p2, and p1 hides p2: deleting p0 must
        # resurface p1 only.
        diagram = quadrant_scanning([(1, 1), (2, 2), (3, 3)])
        updated = delete_point(diagram, 0)
        assert updated.result_at((0, 0)) == (0,)


class TestSkybandGuard:
    def test_maintenance_rejects_skyband_diagrams(self):
        from repro.diagram.skyband import skyband_sweep

        diagram = skyband_sweep([(1, 1), (2, 2)], k=2)
        with pytest.raises(QueryError, match="skyband"):
            insert_point(diagram, (0, 0))
        with pytest.raises(QueryError, match="skyband"):
            delete_point(diagram, 0)


class TestAuditedInterleaving:
    """Stateful drill: audit after every maintenance step (ISSUE PR 3)."""

    def test_interleaved_ops_audit_and_match_rebuild(self):
        import random

        from repro.skyline.queries import quadrant_skyline

        rng = random.Random(42)
        points = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]
        diagram = quadrant_scanning(points)
        for step in range(30):
            if len(points) > 1 and rng.random() < 0.4:
                victim = rng.randrange(len(points))
                diagram = delete_point(diagram, victim)
                del points[victim]
            else:
                p = (float(rng.randint(0, 9)), float(rng.randint(0, 9)))
                diagram = insert_point(diagram, p)
                points.append(p)
            # Self-audit: structural invariants + recurrence samples.
            fingerprint = diagram.audit()
            assert isinstance(fingerprint, str) and len(fingerprint) == 64
            # Differential: the maintained diagram equals a full rebuild.
            assert _same(diagram, quadrant_scanning(points))
            # Spot-check one query against direct evaluation.
            q = (rng.uniform(-1, 10), rng.uniform(-1, 10))
            assert diagram.query(q) == quadrant_skyline(points, q)

    def test_budgeted_insert_raises_and_preserves_original(self):
        from repro.errors import BudgetExceededError
        from repro.resilience import BuildBudget

        diagram = quadrant_scanning([(1.0, 5.0), (3.0, 3.0), (5.0, 1.0)])
        before = dict(diagram.cells())
        with pytest.raises(BudgetExceededError) as excinfo:
            insert_point(diagram, (2.0, 2.0), budget=BuildBudget(max_cells=2))
        assert excinfo.value.progress.cells_done > 2
        # Copy-on-write: the original diagram is untouched.
        assert dict(diagram.cells()) == before
        diagram.audit()

    def test_budgeted_delete_raises_and_preserves_original(self):
        from repro.errors import BudgetExceededError
        from repro.resilience import BuildBudget

        diagram = quadrant_scanning([(1.0, 5.0), (3.0, 3.0), (5.0, 1.0)])
        before = dict(diagram.cells())
        with pytest.raises(BudgetExceededError):
            delete_point(diagram, 0, budget=BuildBudget(max_cells=1))
        assert dict(diagram.cells()) == before

    def test_unbudgeted_maintenance_unchanged(self, staircase):
        updated = insert_point(quadrant_scanning(staircase), (4.0, 4.0))
        assert _same(updated, quadrant_scanning(staircase + [(4.0, 4.0)]))


class TestDirtyRegionScan:
    """Regression: re-scan work is proportional to the dirty region.

    Maintenance promises to re-scan *only* the dirty lower-left block —
    for an insert, the rows strictly below the new point's y-rank; for a
    delete, the row prefix below the victim's y grid line.  The build
    report's ``rows_scanned`` is the witness.
    """

    # Anti-diagonal staircase: distinct coordinates, so ranks are easy
    # to reason about (y values 1..8 → y-rank == y).
    POINTS = [(float(i), float(9 - i)) for i in range(1, 9)]

    def test_insert_scans_exactly_the_rows_below_the_new_rank(self):
        diagram = quadrant_scanning(self.POINTS)
        for newp, expected in (((4.5, 0.5), 1), ((4.5, 4.5), 5),
                               ((4.5, 8.5), 9)):
            updated = insert_point(diagram, newp)
            _, ry = updated.grid.rank_of(len(self.POINTS))
            assert updated.build_report.rows_scanned == ry == expected
            assert updated.build_report.rows_scanned < updated.grid.shape[1]

    def test_delete_scans_exactly_the_prefix_below_the_victim(self):
        diagram = quadrant_scanning(self.POINTS)
        # victim id → y coordinate 8, 4, 1 → dirty prefix 8, 4, 1 rows.
        for victim, expected in ((0, 8), (4, 4), (7, 1)):
            updated = delete_point(diagram, victim)
            assert updated.build_report.rows_scanned == expected

    def test_low_insert_beats_full_rebuild_rows(self):
        # A fresh build scans every row; inserting a bottom point must
        # scan only the single dirty row however large the diagram is.
        diagram = quadrant_scanning(self.POINTS)
        fresh = quadrant_scanning(self.POINTS + [(4.5, 0.5)])
        updated = insert_point(diagram, (4.5, 0.5))
        assert updated.build_report.rows_scanned == 1
        assert fresh.build_report.rows_scanned == fresh.grid.shape[1]
        assert _same(updated, fresh)


class TestStreamingUpdates:
    """Engine-level update journal: coalescing, atomic swap, backoff."""

    POINTS = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)]

    def _db(self, **kwargs):
        from repro.index.engine import SkylineDatabase

        return SkylineDatabase(
            list(self.POINTS), precompute=["quadrant"], **kwargs
        )

    def test_insert_swaps_generation_and_matches_fresh_build(self):
        db = self._db()
        before = db.generation
        outcome = db.apply_update("insert", (3.0, 3.0))
        assert outcome["status"] == "journalled"
        assert outcome["applied"] == 1 and outcome["pending"] == 0
        after = db.generation
        assert after["seq"] == before["seq"] + 1
        assert after["sha"] != before["sha"]
        assert len(db.dataset) == 4
        maintained = db._gen.diagrams["quadrant:0"]
        fresh = quadrant_scanning(self.POINTS + [(3.0, 3.0)])
        assert maintained.store.fingerprint() == fresh.store.fingerprint()

    def test_delete_coalesces_with_its_pending_insert(self):
        db = self._db()
        db.apply_update("insert", (3.0, 3.0), flush=False)
        assert db.pending_updates == 1
        # Deleting the prospective id of the journalled insert cancels
        # both entries without ever touching the diagram.
        outcome = db.apply_update("delete", len(self.POINTS), flush=False)
        assert outcome["status"] == "coalesced"
        assert db.pending_updates == 0
        assert db.generation["seq"] == 0

    def test_malformed_updates_rejected_at_journal_time(self):
        db = self._db()
        with pytest.raises(QueryError):
            db.apply_update("upsert", (1.0, 1.0))
        with pytest.raises(QueryError):
            db.apply_update("insert", (1.0,))  # wrong dimensionality
        with pytest.raises(QueryError):
            db.apply_update("delete", 99)
        assert db.pending_updates == 0

    def test_failed_flush_serves_old_generation_stale_annotated(self):
        from repro.resilience import BuildBudget
        from repro.testing import faults

        clock = faults.SteppingClock()
        db = self._db(clock=clock)
        db.budget = BuildBudget(max_cells=1)  # updates now impossible
        outcome = db.apply_update("insert", (3.0, 3.0))
        assert outcome["applied"] == 0 and outcome["pending"] == 1
        assert "BudgetExceededError" in outcome["error"]
        assert db.generation["seq"] == 0
        assert len(db.dataset) == 3  # old dataset serves on
        # Queries stay exact against the OLD dataset, annotated stale.
        answer = db.query_annotated((10.0, 10.0), kind="quadrant")
        assert answer.result == db.query_from_scratch(
            (10.0, 10.0), kind="quadrant"
        )
        assert len(self.POINTS) not in answer.result  # no phantom new id
        assert answer.query_report.pending_updates == 1
        assert answer.served_from == "diagram"
        # A non-forced flush inside the backoff window is a no-op.
        retry = db.flush_updates()
        assert retry["applied"] == 0 and retry["backoff"] > 0
        # Lifting the budget and forcing heals byte-identically.
        db.budget = None
        healed = db.flush_updates(force=True)
        assert healed["applied"] == 1 and db.pending_updates == 0
        maintained = db._gen.diagrams["quadrant:0"]
        fresh = quadrant_scanning(self.POINTS + [(3.0, 3.0)])
        assert maintained.store.fingerprint() == fresh.store.fingerprint()

    def test_query_poke_applies_due_updates(self):
        from repro.resilience import BuildBudget
        from repro.testing import faults

        clock = faults.SteppingClock()
        db = self._db(clock=clock)
        db.budget = BuildBudget(max_cells=1)
        db.apply_update("insert", (3.0, 3.0))
        assert db.pending_updates == 1
        db.budget = None
        clock.advance(3600.0)  # well past the backoff deadline
        answer = db.query_annotated((10.0, 10.0), kind="quadrant")
        # The first query past the deadline applied the journal.
        assert answer.query_report.pending_updates == 0
        assert db.generation["seq"] == 1
        assert len(db.dataset) == 4

    def test_batched_updates_apply_as_one_generation(self):
        db = self._db()
        db.apply_update("insert", (3.0, 3.0), flush=False)
        db.apply_update("insert", (1.0, 1.0), flush=False)
        db.apply_update("delete", 0, flush=False)
        assert db.pending_updates == 3
        outcome = db.flush_updates()
        assert outcome["applied"] == 3
        assert db.generation["seq"] == 1  # one swap for the whole batch
        final = [p for i, p in enumerate(
            self.POINTS + [(3.0, 3.0), (1.0, 1.0)]
        ) if i != 0]
        maintained = db._gen.diagrams["quadrant:0"]
        fresh = quadrant_scanning(final)
        assert maintained.store.fingerprint() == fresh.store.fingerprint()

    def test_health_and_metrics_expose_update_state(self):
        db = self._db()
        db.apply_update("insert", (3.0, 3.0))
        health = db.health()
        assert health["generation"]["seq"] == 1
        assert health["updates"]["pending"] == 0
        assert health["updates"]["applied"] == 1
        assert health["updates"]["batches"] == 1
        snapshot = db.metrics.snapshot()
        assert snapshot["counters"]["updates_applied"] == 1
        assert snapshot["updates_by_generation"] == {
            db.generation["sha"]: 1
        }


class TestUpdateChaosScenarios:
    """The three PR 8 chaos drills, invoked directly (seeded)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_query_during_update(self, seed, tmp_path):
        import random

        from repro.testing.chaos import _scenario_query_during_update

        _scenario_query_during_update(
            random.Random(seed), 7, str(tmp_path)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_mid_update(self, seed, tmp_path):
        import random

        from repro.testing.chaos import _scenario_crash_mid_update

        _scenario_crash_mid_update(random.Random(seed), 7, str(tmp_path))

    @pytest.mark.parametrize("seed", range(3))
    def test_update_budget_exhausted(self, seed, tmp_path):
        import random

        from repro.testing.chaos import _scenario_update_budget_exhausted

        _scenario_update_budget_exhausted(
            random.Random(seed), 7, str(tmp_path)
        )

    def test_campaign_includes_update_scenarios(self):
        from repro.testing.chaos import run_chaos

        report = run_chaos(cases=28, seed=5, max_points=6)
        assert report.ok, report.summary()
        for name in ("query-during-update", "crash-mid-update",
                     "update-budget-exhausted"):
            assert report.by_scenario.get(name, 0) >= 1


class TestMaintenanceDifferential:
    """The maintenance:* verify family stays green on a smoke budget."""

    def test_fuzzed_sequences_fingerprint_identical(self):
        from repro.diagram.verify import differential_verify

        report = differential_verify(seed=11, budget=60)
        assert report.ok, report.mismatch.reproducer()
        assert report.by_check.get("maintenance", 0) >= 3


# ----------------------------------------------------------------------
# The seeded vectorized kernel behind every update
# ----------------------------------------------------------------------
DEGENERATE = {
    "duplicates": [(3.0, 4.0)] * 5 + [(1.0, 6.0), (6.0, 1.0), (3.0, 4.0)],
    "collinear": [(float(i), float(i)) for i in range(9)],
    "single": [(2.0, 3.0)],
    "boundary-heavy": [(float(x), float(y)) for x in range(4) for y in range(4)],
    "vertical-stack": [(2.0, float(y)) for y in range(7)],
    "horizontal-line": [(float(x), 5.0) for x in range(6)],
}


def _fresh_fingerprints(points, backend="dense"):
    from repro.diagram.pipeline import BuildOptions

    return {
        quadrant_scanning(
            points, build_options=BuildOptions(executor=executor, backend=backend)
        ).store.fingerprint()
        for executor in ("serial", "vectorized")
    }


class TestSeededKernel:
    """Maintained stores fingerprint like fresh serial and vectorized ones."""

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_degenerate_inserts_and_deletes(self, name):
        points = DEGENERATE[name]
        diagram = quadrant_scanning(points)
        for newp in ((3.0, 4.0), (0.0, 0.0), (9.0, 9.0), (2.0, 1.0)):
            updated = insert_point(diagram, newp)
            assert _fresh_fingerprints(points + [newp]) == {
                updated.store.fingerprint()
            }
        for victim in range(1, len(points)):
            updated = delete_point(diagram, victim)
            rest = [p for i, p in enumerate(points) if i != victim]
            assert _fresh_fingerprints(rest) == {updated.store.fingerprint()}

    @pytest.mark.parametrize("backend", ["dense", "rle"])
    def test_dirty_bounds_zero_and_full(self, backend):
        # dirty_hi = 0 copies every row; dirty_hi = sy re-scans every row
        # with an empty clean table.  Neither is reachable through one
        # public update (ranks start at 1, the top row is never dirty),
        # so drive the engine directly on an identity update.
        from repro.diagram.maintenance import _context, _rescan_update
        from repro.diagram.pipeline import BuildOptions

        points = [(1.0, 7.0), (3.0, 3.0), (3.0, 5.0), (6.0, 2.0), (6.0, 2.0)]
        options = BuildOptions(backend=backend)
        diagram = quadrant_scanning(points, build_options=options)
        sx, sy = diagram.grid.shape
        expected = _fresh_fingerprints(points, backend)
        for dirty_hi in (0, sy):
            updated = _rescan_update(
                _context(diagram, options, None, "identity"),
                diagram,
                diagram.grid,
                list(range(sx)),
                list(range(sy)),
                dirty_hi,
                None,
            )
            assert updated.build_report.rows_scanned == dirty_hi
            assert updated.store.backend_kind == backend
            assert {updated.store.fingerprint()} == expected

    @pytest.mark.parametrize("backend", ["dense", "rle"])
    def test_delete_dropping_a_column(self, backend):
        from repro.diagram.pipeline import BuildOptions

        points = [(1.0, 5.0), (3.0, 2.0), (6.0, 8.0), (9.0, 1.0), (4.0, 4.0)]
        diagram = quadrant_scanning(
            points, build_options=BuildOptions(backend=backend)
        )
        for victim in range(len(points)):
            updated = delete_point(diagram, victim)
            assert updated.grid.shape[0] == diagram.grid.shape[0] - 1
            rest = [p for i, p in enumerate(points) if i != victim]
            assert {updated.store.fingerprint()} == _fresh_fingerprints(
                rest, backend
            )

    def test_rle_chained_updates(self):
        from repro.diagram.pipeline import BuildOptions

        points = [(2.0, 8.0), (5.0, 4.0), (9.0, 1.0), (5.0, 4.0)]
        diagram = quadrant_scanning(
            points, build_options=BuildOptions(backend="rle")
        )
        for newp in ((4.0, 6.0), (7.0, 2.0), (1.0, 9.0)):
            diagram = insert_point(diagram, newp)
            points.append(newp)
            diagram = delete_point(diagram, 1)
            del points[1]
            assert diagram.store.backend_kind == "rle"
            assert {diagram.store.fingerprint()} == _fresh_fingerprints(
                points, "rle"
            )

    def test_apply_ops_matches_fresh_builds(self):
        from repro.diagram.maintenance import apply_ops

        points = DEGENERATE["boundary-heavy"] + [(1.5, 2.5)]
        ops = [
            ("insert", (0.5, 0.5)),
            ("delete", 3),
            ("insert", (2.0, 2.0)),
            ("delete", 0),
            ("insert", (3.5, 1.0)),
        ]
        updated = apply_ops(quadrant_scanning(points), ops)
        final = list(points)
        for op, value in ops:
            if op == "insert":
                final.append(value)
            else:
                del final[value]
        assert {updated.store.fingerprint()} == _fresh_fingerprints(final)

    @pytest.mark.parametrize("executor", [None, "serial", "process"])
    def test_report_names_the_kernel_that_ran(self, executor):
        from repro.diagram.maintenance import apply_ops
        from repro.diagram.pipeline import BuildOptions

        options = None if executor is None else BuildOptions(executor=executor)
        diagram = quadrant_scanning([(2.0, 8.0), (5.0, 4.0), (9.0, 1.0)])
        updates = (
            insert_point(diagram, (3.0, 3.0), build_options=options),
            delete_point(diagram, 1, build_options=options),
            apply_ops(
                diagram,
                [("insert", (3.0, 3.0)), ("delete", 0)],
                build_options=options,
            ),
        )
        for updated in updates:
            report = updated.build_report
            assert report.executor == "vectorized"
            assert report.workers == 1
            assert report.kind == "maintenance"

    @pytest.mark.parametrize("backend", ["dense", "rle"])
    def test_budget_trip_inside_dirty_block_is_exact(self, backend):
        from repro.diagram.pipeline import BuildOptions
        from repro.errors import BudgetExceededError
        from repro.resilience import BuildBudget, CoverageMiss

        points = [(float(i), float((7 * i) % 13)) for i in range(13)]
        diagram = quadrant_scanning(
            points, build_options=BuildOptions(backend=backend)
        )
        victim = points.index((3.0, 8.0))
        rest = [p for i, p in enumerate(points) if i != victim]
        fresh = quadrant_scanning(rest)
        sx, sy = fresh.grid.shape
        dirty_hi = delete_point(diagram, victim).build_report.rows_scanned
        assert 6 < dirty_hi < sy
        # Two-row blocks (aligned at row 0, scanned top-down): the clean
        # rows and about four dirty rows fit the budget, the next block
        # trips it — inside the dirty block.
        max_cells = (sy - dirty_hi + 4) * sx + 1
        budget = BuildBudget(max_cells=max_cells)
        spent = (sy - dirty_hi) * sx
        for trip_lo in range(2 * ((dirty_hi - 1) // 2), -1, -2):
            spent += (min(trip_lo + 2, dirty_hi) - trip_lo) * sx
            if spent > max_cells:
                break
        assert 0 < trip_lo < dirty_hi
        with pytest.raises(BudgetExceededError) as excinfo:
            delete_point(
                diagram,
                victim,
                budget=budget,
                build_options=BuildOptions(chunk_rows=2, backend=backend),
            )
        partial = excinfo.value.partial
        assert partial is not None
        built = sorted(partial._rows)
        assert built == list(range(trip_lo, sy))
        for j in built:
            for i in range(sx):
                row = partial._rows[j]
                assert partial._table[int(row[i])] == fresh.store.result_at(
                    (i, j)
                )
        # Rows below the trip are not guessed at.
        with pytest.raises(CoverageMiss):
            partial.query((0.5, -1.0))
