"""Tests for the unified build pipeline: BuildContext, executors, reports.

The load-bearing property is *byte-identity*: a sharded build (chunked
serial or process pool) must produce exactly the serial ResultStore —
same id grid, same table order, same fingerprint — and equal budget
accounting.  The serial scan's intern table is ordered by first
occurrence in scan order, chunk workers relabel their local tables to
that order, and the parent merges chunk tables through one shared
interner in global scan order, which reproduces the serial numbering.
"""

import hashlib
import importlib
import json
import warnings

import numpy as np
import pytest

from repro.datasets import generate
from repro.diagram.dynamic_scanning import dynamic_scanning
from repro.diagram.global_diagram import global_diagram, quadrant_diagram_for_mask
from repro.diagram.highdim import quadrant_scanning_nd
from repro.diagram.maintenance import delete_point, insert_point
from repro.diagram.pipeline import (
    EXECUTORS,
    BuildContext,
    BuildOptions,
    BuildReport,
    Interner,
    ProcessRowExecutor,
    SerialRowExecutor,
    relabel_scan_order,
    split_tuples,
    unique_rows,
)
from repro.diagram.quadrant_baseline import quadrant_baseline
from repro.diagram.quadrant_scanning import (
    quadrant_scanning,
    quadrant_scanning_reference,
)
from repro.diagram.skyband import skyband_baseline, skyband_sweep
from repro.errors import BudgetExceededError
from repro.index.engine import SkylineDatabase
from repro.resilience import BuildBudget

DATASETS = [
    generate("independent", n=12, dim=2, seed=7, domain=40),
    generate("anticorrelated", n=20, dim=2, seed=3, domain=60),
    generate("clustered", n=9, dim=2, seed=11, domain=25),
    [(2, 8), (5, 4), (9, 1)],
    [(0, 0), (10, 10), (5, 5)],
]


def _assert_same_store(a, b):
    assert a.store.table == b.store.table
    assert np.array_equal(a.store.ids, b.store.ids)
    assert a.store.fingerprint() == b.store.fingerprint()
    assert a.store == b.store


class TestBuildOptions:
    def test_defaults(self):
        options = BuildOptions()
        assert options.executor == "serial"
        assert options.workers is None
        assert options.chunk_rows is None

    def test_validation(self):
        with pytest.raises(ValueError, match="executor"):
            BuildOptions(executor="threads")
        with pytest.raises(ValueError, match="workers"):
            BuildOptions(workers=0)
        with pytest.raises(ValueError, match="chunk_rows"):
            BuildOptions(chunk_rows=0)


class TestRelabelScanOrder:
    def test_orders_table_by_first_occurrence(self):
        rows = np.array([[2, 0], [1, 2]], dtype=np.int32)
        table = [(9,), (8,), (7,)]
        relabeled, ordered = relabel_scan_order(rows, table)
        # Scan order (flip=False) reads row 0 left-to-right first.
        assert ordered == [(7,), (9,), (8,)]
        assert relabeled.tolist() == [[0, 1], [2, 0]]

    def test_flip_reads_reverse_scan_order(self):
        rows = np.array([[2, 0], [1, 2]], dtype=np.int32)
        table = [(9,), (8,), (7,)]
        relabeled, ordered = relabel_scan_order(rows, table, flip=True)
        # flip=True reads the grid bottom-right to top-left.
        assert ordered == [(7,), (8,), (9,)]
        assert relabeled.tolist() == [[0, 2], [1, 0]]

    def test_drops_unused_entries(self):
        rows = np.array([[1, 1]], dtype=np.int32)
        _, ordered = relabel_scan_order(rows, [(5,), (6,), (7,)])
        assert ordered == [(6,)]


class TestArrayHelpers:
    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_unique_rows_matches_numpy(self, dtype):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 3, size=(200, 3)).astype(dtype)
        first, inverse = unique_rows(rows)
        uniq, np_first, np_inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(rows[first], uniq)
        assert np.array_equal(first, np_first)
        assert np.array_equal(inverse, np_inverse.reshape(-1))

    def test_split_tuples(self):
        assert split_tuples([4, 5, 6, 7], [1, 0, 3]) == [(4,), (), (5, 6, 7)]
        assert split_tuples([], []) == []


class TestExecutorIdentity:
    """Serial vs sharded builds must be byte-identical."""

    @pytest.mark.parametrize("points", DATASETS)
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_quadrant_chunked_serial(self, points, chunk_rows):
        serial = quadrant_scanning(points)
        sharded = quadrant_scanning(
            points, build_options=BuildOptions(chunk_rows=chunk_rows)
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS)
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_dynamic_chunked_serial(self, points, chunk_rows):
        serial = dynamic_scanning(points)
        sharded = dynamic_scanning(
            points, build_options=BuildOptions(chunk_rows=chunk_rows)
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS[:2])
    def test_quadrant_process_pool(self, points):
        serial = quadrant_scanning(points)
        pooled = quadrant_scanning(
            points,
            build_options=BuildOptions(executor="process", workers=2),
        )
        _assert_same_store(serial, pooled)
        assert pooled.build_report.executor == "process"
        assert pooled.build_report.workers == 2

    @pytest.mark.parametrize("points", DATASETS[:1])
    def test_dynamic_process_pool(self, points):
        serial = dynamic_scanning(points)
        pooled = dynamic_scanning(
            points,
            build_options=BuildOptions(executor="process", workers=2),
        )
        _assert_same_store(serial, pooled)

    @pytest.mark.parametrize("points", DATASETS[:3])
    def test_global_chunked_matches_serial(self, points):
        serial = global_diagram(points)
        sharded = global_diagram(
            points, build_options=BuildOptions(chunk_rows=2)
        )
        _assert_same_store(serial, sharded)

    @pytest.mark.parametrize("points", DATASETS[:2])
    def test_chunked_matches_reference_oracle(self, points):
        sharded = quadrant_scanning(
            points, build_options=BuildOptions(chunk_rows=2)
        )
        assert sharded == quadrant_scanning_reference(points)

    def test_checkpoint_accounting_parity(self):
        points = DATASETS[0]
        serial_meter = BuildBudget().start()
        quadrant_scanning(points, budget=serial_meter)
        sharded_meter = BuildBudget().start()
        quadrant_scanning(
            points,
            budget=sharded_meter,
            build_options=BuildOptions(chunk_rows=2),
        )
        assert sharded_meter.checkpoints == serial_meter.checkpoints
        assert sharded_meter.cells_done == serial_meter.cells_done
        assert sharded_meter.distinct == serial_meter.distinct

    def test_dynamic_checkpoint_accounting_parity(self):
        points = DATASETS[1]
        serial_meter = BuildBudget().start()
        dynamic_scanning(points, budget=serial_meter)
        sharded_meter = BuildBudget().start()
        dynamic_scanning(
            points,
            budget=sharded_meter,
            build_options=BuildOptions(chunk_rows=3),
        )
        assert sharded_meter.checkpoints == serial_meter.checkpoints
        assert sharded_meter.cells_done == serial_meter.cells_done
        assert sharded_meter.distinct == serial_meter.distinct

    def test_sharded_budget_exhaustion_carries_no_partial(self):
        points = DATASETS[1]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(
                points,
                budget=BuildBudget(max_cells=5),
                build_options=BuildOptions(chunk_rows=1),
            )
        assert info.value.partial is None

    def test_serial_budget_exhaustion_keeps_partial(self):
        points = DATASETS[1]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_scanning(points, budget=BuildBudget(max_cells=5))
        assert info.value.partial is not None


DEGENERATE_DATASETS = {
    "duplicates": [(3.0, 4.0)] * 5 + [(1.0, 6.0), (6.0, 1.0), (3.0, 4.0)],
    "collinear": [(float(i), float(i)) for i in range(9)],
    "single": [(2.0, 3.0)],
    "boundary-heavy": [
        (float(x), float(y)) for x in range(4) for y in range(4)
    ],
    "vertical-stack": [(2.0, float(y)) for y in range(7)],
}


class TestVectorizedExecutor:
    """The whole-row numpy engine must be byte-identical to serial."""

    def test_registry_lists_all_three(self):
        assert EXECUTORS == ("serial", "process", "vectorized")
        BuildOptions(executor="vectorized")  # accepted by validation

    @pytest.mark.parametrize(
        "points",
        list(DEGENERATE_DATASETS.values()),
        ids=list(DEGENERATE_DATASETS),
    )
    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
    def test_degenerate_byte_identity(self, points, chunk_rows):
        serial = quadrant_scanning(points)
        chunked = quadrant_scanning(
            points, build_options=BuildOptions(chunk_rows=chunk_rows)
        )
        vectorized = quadrant_scanning(
            points,
            build_options=BuildOptions(
                executor="vectorized", chunk_rows=chunk_rows
            ),
        )
        _assert_same_store(serial, chunked)
        _assert_same_store(serial, vectorized)
        assert vectorized.build_report.executor == "vectorized"

    @pytest.mark.parametrize("points", DATASETS)
    def test_random_byte_identity(self, points):
        serial = quadrant_scanning(points)
        vectorized = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        _assert_same_store(serial, vectorized)

    def test_checkpoint_accounting_parity(self):
        points = DATASETS[0]
        serial = quadrant_scanning(points)
        vectorized = quadrant_scanning(
            points,
            build_options=BuildOptions(executor="vectorized", chunk_rows=3),
        )
        # Per-block checkpoints differ in granularity but the final
        # accounting (cells advanced, rows scanned, distinct results)
        # must agree with the serial build's.
        assert (
            serial.build_report.cells == vectorized.build_report.cells
        )
        assert (
            serial.build_report.rows_scanned
            == vectorized.build_report.rows_scanned
        )
        assert (
            serial.build_report.distinct_results
            == vectorized.build_report.distinct_results
        )

    def test_fallback_is_honest(self):
        # The d-dimensional scan has no array kernel: asking it for the
        # vectorized executor runs, and reports, the serial one.
        points = [(2, 8, 1), (5, 4, 7), (9, 1, 3), (4, 6, 2)]
        serial = quadrant_scanning_nd(points)
        fallback = quadrant_scanning_nd(
            points, build_options=BuildOptions(executor="vectorized")
        )
        _assert_same_store(serial, fallback)
        assert fallback.build_report.executor == "serial"

    def test_budget_trips_at_row_block_boundary(self):
        from repro.resilience import CoverageMiss

        points = DEGENERATE_DATASETS["boundary-heavy"]
        serial = quadrant_scanning(points)
        sx, sy = serial.store.shape
        # Allow exactly one 2-row block of cells: the second block's
        # checkpoint must trip, and the partial must cover a whole
        # number of blocks (budget enforcement is per row block).
        chunk_rows = 2
        budget = BuildBudget(max_cells=chunk_rows * sx)
        with pytest.raises(BudgetExceededError) as excinfo:
            quadrant_scanning(
                points,
                budget=budget,
                build_options=BuildOptions(
                    executor="vectorized", chunk_rows=chunk_rows
                ),
            )
        partial = excinfo.value.partial
        assert partial is not None
        # The scan consumes blocks topmost-first, so the covered prefix
        # must end exactly on a block boundary: sy - lo for some block
        # start lo (never a torn block).
        block_aligned = {sy - lo for lo in range(0, sy, chunk_rows)}
        assert partial.rows_built in block_aligned
        assert 0 < partial.rows_built < sy
        hits = 0
        for x in range(8):
            for y in range(8):
                query = (x + 0.5, y + 0.5)
                try:
                    answer = partial.query(query)
                except CoverageMiss:
                    continue
                hits += 1
                assert answer == serial.query(query)
        assert hits > 0, "partial diagram answered nothing in its region"

    def test_lazy_table_matches_materialized(self):
        from repro.diagram.store import ConsForestTable

        points = DATASETS[1]
        vectorized = quadrant_scanning(
            points, build_options=BuildOptions(executor="vectorized")
        )
        store = vectorized.store
        lazy = store._table
        assert isinstance(lazy, ConsForestTable)
        distinct = store.distinct_count  # O(1); must not materialize
        assert isinstance(store._table, ConsForestTable)
        per_id = [store.result_tuple(rid) for rid in range(distinct)]
        # Accessing .table upgrades the forest to a plain list in place.
        table = store.table
        assert isinstance(store._table, list)
        assert table == per_id
        assert len(table) == distinct
        serial = quadrant_scanning(points)
        assert table == serial.store.table


ALL_DATASETS = DATASETS + list(DEGENERATE_DATASETS.values())
ALL_IDS = [f"random{i}" for i in range(len(DATASETS))] + list(
    DEGENERATE_DATASETS
)


class TestDynamicKernel:
    """The vectorized Algorithm 7 must reproduce the serial sweep's store."""

    @pytest.mark.parametrize("points", ALL_DATASETS, ids=ALL_IDS)
    @pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
    def test_byte_identity(self, points, chunk_rows):
        serial = dynamic_scanning(points)
        vectorized = dynamic_scanning(
            points,
            build_options=BuildOptions(
                executor="vectorized", chunk_rows=chunk_rows
            ),
        )
        _assert_same_store(serial, vectorized)
        assert vectorized.build_report.executor == "vectorized"

    @pytest.mark.parametrize("points", ALL_DATASETS[:3], ids=ALL_IDS[:3])
    def test_rle_backend(self, points):
        serial = dynamic_scanning(points, build_options=BuildOptions(
            backend="rle"))
        vectorized = dynamic_scanning(points, build_options=BuildOptions(
            executor="vectorized", backend="rle"))
        assert vectorized.store.backend_kind == "rle"
        assert vectorized.store.fingerprint() == serial.store.fingerprint()

    def test_accounting_matches_serial(self):
        points = DATASETS[1]
        serial = dynamic_scanning(points)
        vectorized = dynamic_scanning(
            points,
            build_options=BuildOptions(executor="vectorized", chunk_rows=3),
        )
        for field in ("cells", "rows_scanned", "distinct_results"):
            assert getattr(vectorized.build_report, field) == getattr(
                serial.build_report, field
            )

    def test_budget_trips_at_row_block_boundary(self):
        from repro.resilience import CoverageMiss

        points = DEGENERATE_DATASETS["boundary-heavy"]
        serial = dynamic_scanning(points)
        sx, sy = serial.store.shape
        chunk_rows = 2
        with pytest.raises(BudgetExceededError) as excinfo:
            dynamic_scanning(
                points,
                budget=BuildBudget(max_cells=chunk_rows * sx),
                build_options=BuildOptions(
                    executor="vectorized", chunk_rows=chunk_rows
                ),
            )
        partial = excinfo.value.partial
        assert partial is not None
        # Blocks run bottom-up, so the partial covers whole blocks only.
        assert partial.rows_built == 2 * chunk_rows
        subcells = serial.subcells
        hits = 0
        for i in range(sx):
            for j in range(sy):
                query = subcells.representative((i, j))
                try:
                    answer = partial.query(query)
                except CoverageMiss:
                    continue
                hits += 1
                assert answer == serial.query(query)
        assert hits == partial.rows_built * sx


def _perfbench_anticorrelated(n: int, seed: int) -> list[tuple]:
    """The benchmark's stratified anticorrelated generator (spread 0.05)."""
    rng = np.random.default_rng(seed)
    t = (rng.permutation(n) + rng.random(n)) / n
    coords = np.column_stack([t, 1.0 - t]) + rng.normal(0.0, 0.05, (n, 2))
    return [tuple(map(float, row)) for row in np.clip(coords, 0.0, 1.0)]


def _repr_digest(store):
    """The store digest as first recorded: the table hashed as its repr.

    ``ResultStore.fingerprint`` now hashes the table's CSR arrays; the
    goldens below were recorded with this formula and are kept verbatim.
    """
    digest = hashlib.sha256()
    digest.update(repr(store.shape).encode())
    store.backend.fingerprint_section(digest)
    digest.update(repr(store.table_view()).encode())
    return digest.hexdigest()


#: Global-diagram store digests (:func:`_repr_digest`) recorded with the
#: tuple-merging union (one heap merge and intern per id combination)
#: that the array kernel replaced: ids, table order and contents must
#: not move.
GLOBAL_GOLDEN = {
    "random0": "e17bd0fa58d252b7afce39fdf57c574c2168b98648cc9e4f33e1e573218cc0ca",
    "random1": "4c54610455b81556f11e946d6fc69f9418843b51c4af858692b590e3884e8818",
    "random2": "078f09f701e2c41dc63bb744b1bf70da902e0a1464681ec86047d1945b26d360",
    "random3": "a1438b6126581d4a9eb87926794bffa41753096d26853f319a99fb73476e69d7",
    "random4": "9f96de7675b41080eb91fa0ee46e53bdc77cd64c7ecb981ff2b8d3ba81194179",
    "duplicates": "8358870d8af0d99275cf6f0965ae0e0c94826b16a3e38ca867df0920b73f339d",
    "collinear": "876dc189134931168f4529eaf93311c0d87f8343b11c3998e0b81d2e8e370abc",
    "single": "4f030339e85efa8d513deb3a2ee269b5ce6ee75bfe0246752a20b57cc44cca80",
    "boundary-heavy": "bea4d54f9a8a9bdd7f1c04c27b0a1b539b0fbe137f22cef5e16f46535958e288",
    "vertical-stack": "42e7cacc135b1ff814720cae4faafe4b3cf7b563a46385ddbdb051e7a6f4ce3a",
}


class TestGlobalUnion:
    """The array union kernel against fingerprints of the tuple merge."""

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    @pytest.mark.parametrize("name", list(GLOBAL_GOLDEN))
    def test_golden_fingerprint(self, name, executor):
        points = dict(zip(ALL_IDS, ALL_DATASETS))[name]
        diagram = global_diagram(
            points, build_options=BuildOptions(executor=executor)
        )
        assert _repr_digest(diagram.store) == GLOBAL_GOLDEN[name]
        assert diagram.build_report.executor == executor

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_golden_fingerprint_anticorrelated_300(self, executor):
        points = _perfbench_anticorrelated(300, seed=1)
        diagram = global_diagram(
            points, build_options=BuildOptions(executor=executor)
        )
        assert _repr_digest(diagram.store) == (
            "eb062b0711e7f1d21c13646ecde54be627f0e08079900cff81956205a7ec0019"
        )

    def test_golden_fingerprint_3d(self):
        points = generate("independent", n=10, dim=3, seed=5, domain=12)
        diagram = global_diagram(points, algorithm=quadrant_scanning_nd)
        assert _repr_digest(diagram.store) == (
            "2724ddfd62b585b12f97fd7033b75301fb2e8ba1cc79aa40e23603c4d19a4ac2"
        )

    @pytest.mark.parametrize("keys", ["zero", "parity"])
    def test_hash_collisions_are_resolved_exactly(self, monkeypatch, keys):
        # Degenerate set hashes make different unions collide: the exact
        # verification must still give every union its own id.
        module = importlib.import_module("repro.diagram.global_diagram")
        monkeypatch.setattr(
            module,
            "_point_keys",
            lambda n: (np.zeros(n) if keys == "zero" else np.arange(n) % 2)
            .astype(np.uint64),
        )
        for name in ("random0", "random1", "duplicates", "boundary-heavy"):
            points = dict(zip(ALL_IDS, ALL_DATASETS))[name]
            diagram = global_diagram(
                points, build_options=BuildOptions(executor="vectorized")
            )
            assert _repr_digest(diagram.store) == GLOBAL_GOLDEN[name]

    def test_distinct_budget_trips_in_union_phase(self):
        points = DATASETS[1]
        full = global_diagram(points)
        largest_quadrant = max(
            quadrant_diagram_for_mask(
                points, mask, quadrant_scanning
            ).store.distinct_count
            for mask in range(4)
        )
        assert largest_quadrant < full.store.distinct_count - 1
        phases = []
        options = BuildOptions(
            telemetry=lambda phase, payload: phases.append(
                (payload["kind"], phase)
            )
        )
        with pytest.raises(BudgetExceededError, match="distinct") as info:
            global_diagram(
                points,
                budget=BuildBudget(
                    max_distinct=full.store.distinct_count - 1
                ),
                build_options=options,
            )
        assert info.value.partial is None
        own = [phase for kind, phase in phases if kind == "global"]
        assert own == ["row_scan", "intern"]

    def test_report_names_the_sub_build_executor(self):
        points = DATASETS[0]
        report = global_diagram(
            points, build_options=BuildOptions(executor="vectorized")
        ).build_report
        assert (report.executor, report.workers) == ("vectorized", 1)
        assert global_diagram(points).build_report.executor == "serial"


class TestBudgetKwargCompat:
    """Every constructor still accepts the old ``budget=`` kwarg."""

    POINTS = [(2, 8), (5, 4), (9, 1), (7, 6)]

    def test_quadrant(self):
        assert quadrant_scanning(self.POINTS, budget=BuildBudget()).store

    def test_dynamic(self):
        assert dynamic_scanning(self.POINTS, budget=BuildBudget()).store

    def test_global(self):
        assert global_diagram(self.POINTS, budget=BuildBudget()).store

    def test_skyband(self):
        assert skyband_baseline(self.POINTS, k=2, budget=BuildBudget()).store
        assert skyband_sweep(self.POINTS, k=2, budget=BuildBudget()).store

    def test_highdim(self):
        points = [(2, 8, 1), (5, 4, 7), (9, 1, 3)]
        assert quadrant_scanning_nd(points, budget=BuildBudget()).store

    def test_maintenance(self):
        diagram = quadrant_scanning(self.POINTS)
        updated = insert_point(diagram, (3.0, 3.0), budget=BuildBudget())
        assert updated.store
        assert delete_point(updated, 0, budget=BuildBudget()).store


class TestGlobalPerRowCharge:
    def test_budget_unaware_subbuild_charges_per_row(self):
        # A budget-unaware algorithm is charged one scan row at a time, so
        # a shared budget trips within one row of its limit instead of
        # absorbing the whole sub-build in a lump.
        points = [(2, 8), (5, 4), (9, 1), (7, 6)]
        with pytest.raises(BudgetExceededError) as info:
            quadrant_diagram_for_mask(
                points, 0, quadrant_baseline, budget=BuildBudget(max_cells=6)
            )
        rows = len(points) + 1  # grid has n+1 cells per axis at most
        assert info.value.progress.cells_done <= 6 + rows


class TestBuildReport:
    def test_report_contents(self):
        diagram = quadrant_scanning(DATASETS[0])
        report = diagram.build_report
        assert isinstance(report, BuildReport)
        assert report.algorithm == "scanning"
        assert report.kind == "quadrant"
        assert report.executor == "serial"
        assert report.workers == 1
        assert set(report.phases) == {
            "rank_space", "row_scan", "intern", "assemble"
        }
        assert all(t >= 0.0 for t in report.phases.values())
        assert report.rows_scanned == diagram.store.shape[1]
        assert report.cells == diagram.store.num_cells
        assert report.distinct_results == diagram.store.distinct_count
        assert report.checkpoints == 0  # no budget, no meter
        assert report.elapsed >= 0.0

    def test_report_counts_checkpoints(self):
        meter = BuildBudget().start()
        diagram = quadrant_scanning(DATASETS[0], budget=meter)
        assert diagram.build_report.checkpoints == meter.checkpoints > 0

    def test_as_dict_is_json_serializable(self):
        report = dynamic_scanning(DATASETS[3]).build_report
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["kind"] == "dynamic"
        assert payload["executor"] == "serial"
        assert set(payload["phases"]) >= {"row_scan", "intern"}

    def test_every_constructor_attaches_a_report(self):
        points = [(2, 8), (5, 4), (9, 1)]
        builds = [
            quadrant_scanning(points),
            dynamic_scanning(points),
            global_diagram(points),
            skyband_baseline(points, k=2),
            skyband_sweep(points, k=2),
            quadrant_scanning_nd([(2, 8, 1), (5, 4, 7), (9, 1, 3)]),
            insert_point(quadrant_scanning(points), (3.0, 3.0)),
        ]
        for diagram in builds:
            assert isinstance(diagram.build_report, BuildReport), diagram

    def test_reference_oracle_has_no_report(self):
        diagram = quadrant_scanning_reference([(2, 8), (5, 4)])
        assert diagram.build_report is None

    def test_telemetry_sink_sees_every_phase(self):
        events = []
        options = BuildOptions(
            telemetry=lambda phase, seconds: events.append(phase)
        )
        quadrant_scanning(DATASETS[3], build_options=options)
        assert events == ["rank_space", "row_scan", "intern", "assemble"]


class TestBuildContext:
    def test_serial_only_pins_executor(self):
        ctx = BuildContext(
            None,
            BuildOptions(executor="process", workers=4),
            algorithm="x",
            kind="skyband",
            serial_only=True,
        )
        assert isinstance(ctx.executor, SerialRowExecutor)

    def test_row_chunks_cover_rows_exactly(self):
        ctx = BuildContext(
            None, BuildOptions(chunk_rows=3), algorithm="x", kind="quadrant"
        )
        chunks = ctx.row_chunks(10)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        top_first = ctx.row_chunks(10, topmost_first=True)
        assert top_first == list(reversed(chunks))

    def test_cancel_trips_next_checkpoint(self):
        ctx = BuildContext(None, None, algorithm="x", kind="quadrant")
        ctx.cancel("test abort")
        with pytest.raises(BudgetExceededError, match="test abort"):
            ctx.checkpoint(advance=1)

    def test_executors_run_jobs_in_order(self):
        executor = SerialRowExecutor()
        seen = []
        results = executor.run(
            _square, [1, 2, 3], lambda job, result: seen.append(job)
        )
        assert results == [1, 4, 9]
        assert seen == [1, 2, 3]

    def test_process_executor_preserves_job_order(self):
        executor = ProcessRowExecutor(workers=2)
        assert executor.run(_square, [3, 1, 2], None) == [9, 1, 4]


def _square(job):
    return job * job


class TestInterner:
    def test_first_intern_wins(self):
        interner = Interner()
        assert interner.intern((1, 2)) == 0
        assert interner.intern((3,)) == 1
        assert interner.intern((1, 2)) == 0
        assert len(interner) == 2
        assert interner.table == [(1, 2), (3,)]

    def test_seed_empty(self):
        interner = Interner(seed_empty=True)
        assert interner.intern(()) == 0
        assert interner.table == [()]


class TestEngineIntegration:
    def test_database_threads_build_options(self):
        db = SkylineDatabase(
            DATASETS[3], build_options=BuildOptions(chunk_rows=2)
        )
        answer = db.query_annotated((1.0, 2.0), kind="quadrant")
        assert answer.served_from == "diagram"
        assert answer.report is not None
        assert answer.report.executor == "serial"
        plain = SkylineDatabase(DATASETS[3])
        assert (
            db.quadrant_diagram().store == plain.quadrant_diagram().store
        )

    def test_health_surfaces_reports(self):
        db = SkylineDatabase(DATASETS[3])
        db.query((1.0, 2.0), kind="quadrant")
        health = db.health()
        entry = health["builds"]["quadrant:0"]
        assert entry["report"]["executor"] == "serial"
        assert "row_scan" in entry["report"]["phases"]
        json.dumps(health["builds"]["quadrant:0"]["report"])

    def test_query_exact_alias_removed(self):
        # Deprecated (warning-only) for two releases; now gone for good.
        db = SkylineDatabase(DATASETS[3])
        assert not hasattr(db, "query_exact")


class TestCli:
    def test_build_parallel_flags(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "points.csv"
        csv.write_text("2,8\n5,4\n9,1\n")
        out = tmp_path / "chunked.json"
        assert main(
            [
                "build", str(csv), str(out),
                "--kind", "quadrant", "--chunk-rows", "2",
            ]
        ) == 0
        stdout = capsys.readouterr().out
        assert "executor: serial" in stdout
        assert "row_scan" in stdout
        plain = tmp_path / "serial.json"
        assert main(["build", str(csv), str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_build_executor_flag(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "points.csv"
        csv.write_text("2,8\n5,4\n9,1\n")
        out = tmp_path / "vectorized.json"
        assert main(
            ["build", str(csv), str(out), "--executor", "vectorized"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "executor: vectorized" in stdout
        plain = tmp_path / "serial.json"
        assert main(["build", str(csv), str(plain)]) == 0
        # The binary payload keeps each build's native table encoding
        # (cons forest vs CSR), so byte identity is asserted on the
        # diagrams, not the files.
        from repro.index.serialize import load_diagram

        vector_d = load_diagram(str(out))
        serial_d = load_diagram(str(plain))
        assert vector_d == serial_d
        assert vector_d.store.fingerprint() == serial_d.store.fingerprint()

    def test_executor_flag_rejects_unknown(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["build", "x.csv", "y.json", "--executor", "threads"])
