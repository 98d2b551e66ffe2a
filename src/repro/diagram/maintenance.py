"""Incremental maintenance of quadrant skyline diagrams.

A practical extension beyond the paper: inserting or deleting one point
does not require rebuilding the whole diagram.  A point ``p`` with ranks
``(rx, ry)`` is a candidate only for the cells strictly below-left of it
(``i < rx`` and ``j < ry``), so an update *dirties* exactly that
lower-left block and every other cell keeps its result verbatim (modulo
the one split/merged grid line and, for deletion, the id renumbering).
By Theorem 1 a row depends only on the row above it, so the dirty rows
can be recomputed from the clean boundary row down.

Every operation runs directly on the :class:`~repro.diagram.store.
ResultStore` arrays:

* the **clean rows** (``j >= dirty_hi``) are copied from the old id grid
  in one vectorized gather over the remapped columns and renumbered by
  first occurrence in scan order (a presence mask when no grid column
  was dropped); their results come from the old table's CSR arrays,
  and a deletion's id renumbering is one array lookup on them;
* the **dirty rows** (``j < dirty_hi``) are re-scanned with the
  vectorized build's own kernel, :class:`~repro.diagram.
  quadrant_scanning._StaircaseScan`, seeded at the dirty boundary
  (:func:`~repro.diagram.quadrant_scanning._vector_seed`) with the
  clean boundary row's ids as its nodes;
* the merge is ``clean ids, then new nodes in emission order``: every
  new node holds a corner group from a dirty row, so it equals no clean
  result and no other new node.  The updated table is built as CSR
  arrays (:func:`~repro.diagram.store.forest_csr`) and kept as a
  :class:`~repro.diagram.store.PackedTable`, so no tuple is built or
  hashed.

The updated store is **byte-identical** (content fingerprint) to a
from-scratch build over the updated dataset — incremental maintenance
never changes the artifact.

Updates are copy-on-write and budget-aware: a
:class:`~repro.resilience.BuildBudget` checkpoints once for the clean
block and once per re-scanned row block, and on exhaustion the raised
:class:`~repro.errors.BudgetExceededError` carries an exact
:class:`~repro.resilience.PartialDiagram` over the rows completed
before the interruption while the original diagram stays untouched.
Only first-quadrant (``mask=0``) 2-D diagrams are supported — other
orientations maintain their reflections.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.diagram.base import SkylineDiagram
from repro.diagram.pipeline import BuildContext, BuildOptions, scan_order_ids
from repro.diagram.quadrant_scanning import (
    _corner_rows,
    _StaircaseScan,
    _vector_corner_rows,
    _vector_seed,
)
from repro.diagram.store import (
    ResultStore,
    _multi_arange,
    _RLERowBuilder,
    _starts,
    packed_table,
    table_csr,
)
from repro.errors import BudgetExceededError, QueryError
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset, as_point
from repro.resilience import BudgetMeter, BuildBudget, PartialDiagram

__all__ = ["apply_ops", "delete_point", "insert_point"]


def _context(
    diagram: SkylineDiagram,
    build_options: BuildOptions | None,
    budget: BuildBudget | BudgetMeter | None,
    op: str,
) -> BuildContext:
    """The build context of one update: always the vectorized kernel.

    With no explicit ``build_options`` the store's backend is preserved
    (an RLE diagram stays RLE, taking the run-domain path when eligible;
    a quad diagram re-merges at its own epsilon); options with a
    different ``backend`` convert the updated store instead.  Whatever
    executor the options name, the dirty rows run on the vectorized
    kernel, and the report says so.
    """
    if build_options is None:
        kind = diagram.store.backend_kind
        build_options = (
            BuildOptions(
                backend="quad", quad_error=diagram.store.backend.epsilon
            )
            if kind == "quad"
            else BuildOptions(backend=kind)
        )
    return BuildContext(
        budget,
        dataclasses.replace(
            build_options, executor="vectorized", workers=None
        ),
        algorithm=f"{diagram.algorithm}+{op}",
        kind="maintenance",
        vector_capable=True,
    )


def _check(diagram: SkylineDiagram) -> None:
    from repro.diagram.skyband import SkybandDiagram

    if isinstance(diagram, SkybandDiagram):
        raise QueryError(
            "incremental maintenance applies skyline update rules; "
            "rebuild k-skyband diagrams instead"
        )
    if diagram.kind != "quadrant" or diagram.mask != 0:
        raise QueryError(
            "incremental maintenance supports first-quadrant diagrams only"
        )
    if diagram.dim != 2:
        raise QueryError("incremental maintenance is implemented in 2-D")


def _column_origin(old_axis, new_axis) -> list[int]:
    """For each new cell column, the old column covering its interval."""
    origins = []
    old_i = 0
    for i in range(len(new_axis) + 1):
        # New column i spans (new_axis[i-1], new_axis[i]); advance past old
        # lines that end at or before the column's lower bound.
        if i > 0:
            value = new_axis[i - 1]
            while old_i < len(old_axis) and old_axis[old_i] <= value:
                old_i += 1
        origins.append(old_i)
    return origins


def _gather_block(
    store: ResultStore, x_origin: Sequence[int], y_cols: Sequence[int]
) -> np.ndarray:
    """Gather old cells ``(x_origin[i], y_cols[jj])`` as a rows-of-y block.

    Shape ``(len(y_cols), len(x_origin))`` int32 — row ``jj`` is scan row
    ``jj``, column ``i`` is store row ``i`` — matching the dense
    ``ids[np.ix_(x_origin, y_cols)].T`` gather.  RLE stores stay in the
    run domain: one ``searchsorted`` per referenced old row
    (``O(m log runs)`` instead of materializing the ``O(cells)`` grid).
    """
    if store.backend_kind == "dense":
        block = store.ids[np.ix_(x_origin, y_cols)].T
        return np.ascontiguousarray(block, dtype=np.int32)
    backend = store.backend
    xo = list(x_origin)
    y_arr = np.asarray(y_cols, dtype=np.int64)
    out = np.empty((y_arr.size, len(xo)), dtype=np.int32)
    cache: dict[int, np.ndarray] = {}
    for i, r in enumerate(xo):
        col = cache.get(r)
        if col is None:
            if backend.kind == "rle":
                vals, ends = backend.row_runs(r)
                col = vals[np.searchsorted(ends, y_arr, side="right")]
            else:
                col = backend.row_view(r)[y_arr]
            cache[r] = col
        out[:, i] = col
    return out


def _rle_suffix_runs(
    backend, x_origin: Sequence[int], y_origin: Sequence[int],
    dirty_hi: int, sy: int,
):
    """Clip each referenced old row's runs to the clean suffix, run-domain.

    The clean suffix of a new store row with origin ``r`` holds old row
    ``r``'s values at columns ``y_origin[dirty_hi:]``.  In the run
    domain that resampling is: map each old run end ``e`` to
    ``dirty_hi + #{sampled columns < e}`` (one ``searchsorted``) and
    keep the runs still covering at least one sampled column.  Returns

    * ``suffix``: old row -> ``(vals, ends)`` with *raw old* run values
      and new-row ends in ``(dirty_hi, sy]``;
    * ``used``: ascending unique raw ids over all suffixes — exactly the
      ids the dense gather would have seen, in the same order, so the
      presence relabel built on it is byte-identical to the dense path;
    * ``boundary_raw``: per new store row, the raw id at scan row
      ``dirty_hi`` (empty when there is no clean block).
    """
    xo = list(x_origin)
    y_arr = np.asarray(y_origin[dirty_hi:], dtype=np.int64)
    suffix: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    chunks = []
    for r in dict.fromkeys(xo):
        vals, ends = backend.row_runs(r)
        ne = np.searchsorted(y_arr, ends, side="left").astype(np.int64)
        ne += dirty_hi
        keep = np.empty(ne.size, dtype=bool)
        if ne.size:
            keep[0] = ne[0] > dirty_hi
            keep[1:] = ne[1:] > ne[:-1]
        sv = np.ascontiguousarray(vals[keep])
        suffix[r] = (sv, np.ascontiguousarray(ne[keep]))
        chunks.append(sv)
    used = (
        np.unique(np.concatenate(chunks))
        if chunks
        else np.empty(0, dtype=np.int64)
    )
    if y_arr.size:
        boundary_raw = np.asarray(
            [int(suffix[r][0][0]) for r in xo], dtype=np.int64
        )
    else:
        boundary_raw = np.empty(0, dtype=np.int64)
    return suffix, used, boundary_raw


def _rle_assemble(
    x_origin: Sequence[int],
    suffix: dict,
    rank: np.ndarray,
    dirty_final: np.ndarray,
    dirty_hi: int,
    sx: int,
    sy: int,
):
    """Stitch dirty-prefix columns and remapped clean suffixes per row.

    Each new store row is the compressed column ``i`` of the merged
    dirty block followed by its old row's clipped suffix runs remapped
    through ``rank`` (raw old id -> merged id), fusing the boundary run
    when the two sides agree at ``dirty_hi``.  The builder's row-delta
    sharing then matches what a fresh compressed build would produce.
    """
    builder = _RLERowBuilder((sx, sy))
    dirty_cols = np.ascontiguousarray(dirty_final.T) if dirty_hi else None
    for i, r in enumerate(x_origin):
        sv, se = suffix[r]
        sv = rank[sv]
        if dirty_cols is not None:
            col = dirty_cols[i]
            change = np.nonzero(col[1:] != col[:-1])[0]
            pv = np.empty(change.size + 1, dtype=np.int32)
            pe = np.empty(change.size + 1, dtype=np.int64)
            pv[:-1] = col[change]
            pe[:-1] = change + 1
            pv[-1] = col[-1]
            pe[-1] = dirty_hi
            if sv.size and pv[-1] == sv[0]:
                pv = pv[:-1]
                pe = pe[:-1]
            sv = np.concatenate((pv, sv))
            se = np.concatenate((pe, se))
        builder.add_row(sv, se)
    return builder.build()


def _rescan_update(
    ctx: BuildContext,
    diagram: SkylineDiagram,
    new_grid: Grid,
    x_origin: list[int],
    y_origin: list[int],
    dirty_hi: int,
    id_map: np.ndarray | None,
) -> SkylineDiagram:
    """Shared dirty-region engine behind every maintenance operation.

    Rows ``[dirty_hi, sy)`` of the new grid are clean: they are the old
    rows ``y_origin[j]`` with columns remapped through ``x_origin``, so
    one gather copies the whole block.  ``id_map`` renumbers the clean
    results' point ids (``None`` keeps them).  Rows ``[0, dirty_hi)``
    are re-scanned from the new dataset by the vectorized kernel seeded
    at the boundary; clean ids come first and new nodes follow in
    emission order, which makes the result byte-identical to a fresh
    build.
    """
    old_store = diagram.store
    sx, sy = new_grid.shape
    # Run-domain fast path: an RLE store updating toward an RLE target
    # splices the clean suffix run-by-run — the old grid is never
    # materialized.  It requires the presence relabel below, which in
    # turn requires a column map that never drops a column.
    keeps_columns = sx >= old_store.shape[0]
    direct_rle = (
        old_store.backend_kind == "rle"
        and ctx.options.backend == "rle"
        and keeps_columns
    )
    if old_store.backend_kind != "dense" and not direct_rle:
        # Honest accounting: a compressed/approximate store that cannot
        # take the run-domain path is densified here, modified, and
        # recompressed to the target backend by ``ctx.finish``.
        ctx.report.backend_fallback = "densify"
    with ctx.phase("row_scan"):
        # Clean block first — it is the *top* of the scan order, so its
        # ids are renumbered by first occurrence there.  Every build path
        # leaves the old table in that order, and a column map that never
        # *drops* a column keeps the relative order of first occurrences
        # (duplicated columns sit adjacent in scan order), so ascending
        # old id already is the new order and a presence mask replaces
        # the sort.  A dropped column can move an id's first occurrence
        # past another's; that case takes the general relabel.
        clean = None
        if direct_rle:
            suffix_runs, used, boundary_raw = _rle_suffix_runs(
                old_store.backend, x_origin, y_origin, dirty_hi, sy
            )
        else:
            clean_rows = _gather_block(
                old_store, x_origin, y_origin[dirty_hi:]
            )
            if keeps_columns:
                used = np.flatnonzero(
                    np.bincount(
                        clean_rows.ravel(),
                        minlength=old_store.distinct_count,
                    )
                )
            else:
                clean, used = scan_order_ids(clean_rows, flip=True)
        rank = np.zeros(max(1, old_store.distinct_count), dtype=np.int32)
        rank[used] = np.arange(used.size, dtype=np.int32)
        if clean is None and not direct_rle:
            clean = rank[clean_rows]
        if used.size:
            sizes, points = table_csr(old_store._table)
            base_sizes = sizes[used]
            base_points = points[
                _multi_arange(_starts(sizes)[used], base_sizes)
            ]
            if id_map is not None:
                base_points = id_map[base_points]
        else:  # nothing clean: the base is the empty result alone
            base_sizes = np.zeros(1, dtype=np.int64)
            base_points = np.empty(0, dtype=np.int64)

        def clean_block() -> np.ndarray:
            if clean is not None:
                return clean
            block = _gather_block(old_store, x_origin, y_origin[dirty_hi:])
            return rank[block]

        def partial(lo: int, scan=None) -> PartialDiagram:
            """Exact rows ``[lo, sy)`` over the table built so far."""
            rows = dict(enumerate(clean_block(), start=dirty_hi))
            csr = (base_sizes, base_points)
            if scan is not None:
                rows.update(enumerate(scan.decode(dirty_hi - lo), start=lo))
                csr = scan.csr(*csr)
            return PartialDiagram(
                new_grid, rows, packed_table(*csr), boundary_exact=True
            )

        try:
            # Charge the copied cells so time/cell budgets account for
            # the whole update honestly.
            ctx.checkpoint(advance=(sy - dirty_hi) * sx)
        except BudgetExceededError as exc:
            if exc.partial is None:
                exc.partial = partial(dirty_hi)
            raise

        # Dirty block: the vectorized kernel from the staircase of the
        # points above the boundary, whose nodes are the boundary row's
        # clean ids.
        per_row, groups = _vector_corner_rows(_corner_rows(new_grid)[0])
        cols, rep, pse = _vector_seed(per_row, dirty_hi)
        if cols.size:
            boundary = rank[boundary_raw] if direct_rle else clean[0]
            node = boundary[cols].astype(np.int64) - 1
        else:
            node = cols
        scan = _StaircaseScan(
            sx,
            per_row,
            groups,
            state=(cols, rep, pse, node),
            next_id=base_sizes.size - 1,
        )
        scan.scan(ctx, dirty_hi, lambda lo: partial(lo, scan))
    with ctx.phase("intern"):
        table = packed_table(*scan.csr(base_sizes, base_points))
        ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        dirty = scan.decode(dirty_hi)
        if direct_rle:
            backend = _rle_assemble(
                x_origin, suffix_runs, rank, dirty, dirty_hi, sx, sy
            )
        else:
            backend = np.empty((sx, sy), dtype=np.int32)
            backend[:, :dirty_hi] = dirty.T
            backend[:, dirty_hi:] = clean.T
        store = ResultStore((sx, sy), backend, table)
        updated = SkylineDiagram(
            new_grid,
            store,
            kind="quadrant",
            mask=0,
            algorithm=ctx.report.algorithm,
        )
    return ctx.finish(updated)


def insert_point(
    diagram: SkylineDiagram,
    point: Sequence[float],
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Insert one point, re-scanning only its dirty lower-left rows.

    The new point's id is ``len(old dataset)``.  Only rows strictly below
    the point's y-rank are re-scanned (``build_report.rows_scanned``
    counts exactly those); everything above is a vectorized copy of the
    old store.  The returned diagram's store is byte-identical to a fresh
    build over the extended dataset.  ``budget`` checkpoints once per
    re-scanned row block; the original diagram is untouched on
    exhaustion (maintenance is copy-on-write) and the raised error
    carries an exact partial over the completed rows.

    >>> from repro.diagram import quadrant_scanning
    >>> updated = insert_point(quadrant_scanning([(5, 5)]), (2, 2))
    >>> updated.result_at((0, 0))
    (1,)
    """
    _check(diagram)
    ctx = _context(diagram, build_options, budget, "insert")
    p = as_point(point)
    old = diagram.grid.dataset
    with ctx.phase("rank_space"):
        new_dataset = Dataset([*old.points, p])
        new_grid = Grid(new_dataset)
        new_id = len(old)
        _, ry = new_grid.rank_of(new_id)
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
    # Point ids are append-only on insert, so the clean block's table
    # entries carry over verbatim.
    return _rescan_update(
        ctx, diagram, new_grid, x_origin, y_origin, ry, None
    )


def delete_point(
    diagram: SkylineDiagram,
    point_id: int,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Delete one point, re-scanning only its dirty lower-left rows.

    Ids above ``point_id`` shift down by one (the dataset contracts); the
    victim never appears in a clean cell's result (a point is only listed
    where it is a candidate, and its candidate region *is* the dirty
    block), so the clean block carries over with a pure id renumbering.
    ``budget`` checkpoints as in :func:`insert_point`.

    >>> from repro.diagram import quadrant_scanning
    >>> diagram = quadrant_scanning([(1, 1), (2, 2)])
    >>> delete_point(diagram, 0).result_at((0, 0))
    (0,)
    """
    _check(diagram)
    ctx = _context(diagram, build_options, budget, "delete")
    old = diagram.grid.dataset
    if not 0 <= point_id < len(old):
        raise QueryError(f"point id {point_id} out of range")
    if len(old) == 1:
        raise QueryError("cannot delete the last point of a diagram")
    with ctx.phase("rank_space"):
        _, victim_ry = diagram.grid.rank_of(point_id)
        remaining = [q for i, q in enumerate(old.points) if i != point_id]
        new_grid = Grid(Dataset(remaining))
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
        # New rows whose interval lies below the victim's y grid line are
        # dirty; y_origin is monotone, so they form the prefix of rows
        # mapping to old rows < victim_ry.
        sy = new_grid.shape[1]
        dirty_hi = next(
            (j for j in range(sy) if y_origin[j] >= victim_ry), sy
        )

    ids = np.arange(len(old), dtype=np.int64)
    return _rescan_update(
        ctx,
        diagram,
        new_grid,
        x_origin,
        y_origin,
        dirty_hi,
        ids - (ids > point_id),
    )


def apply_ops(
    diagram: SkylineDiagram,
    ops: Sequence[tuple[str, Sequence[float] | int]],
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Apply a batch of updates with *one* union dirty-block re-scan.

    ``ops`` is a sequence of ``("insert", point)`` / ``("delete", id)``
    pairs in journal order, delete ids addressing the journal-prospective
    dataset exactly as the update queue records them.  Instead of ``k``
    sequential maintenance passes the ops compose: the final dataset is
    computed directly, the dirty region is the **union** of every
    surviving op's lower-left block (an insert later deleted cancels
    entirely and dirties nothing), and a single re-scan covers the
    union while the complement carries over from the old store with a
    composed id renumbering.  The result is byte-identical (content
    fingerprint) to applying the ops one at a time — and to a fresh
    serial build over the final dataset.

    >>> from repro.diagram import quadrant_scanning
    >>> d = apply_ops(
    ...     quadrant_scanning([(5, 5), (1, 9)]),
    ...     [("insert", (2, 2)), ("delete", 0)],
    ... )
    >>> d.result_at((0, 0))
    (1,)
    """
    _check(diagram)
    old = diagram.grid.dataset
    # Replay the journal over position labels: survivors keep their
    # relative order, inserts append, and a delete of a still-pending
    # insert cancels the pair.
    labels: list[tuple[bool, int]] = [(False, i) for i in range(len(old))]
    inserted: list = []
    for op, value in ops:
        if op == "insert":
            labels.append((True, len(inserted)))
            inserted.append(as_point(value))
        elif op == "delete":
            idx = int(value)
            if not 0 <= idx < len(labels):
                raise QueryError(f"point id {idx} out of range")
            if len(labels) == 1:
                raise QueryError(
                    "cannot delete the last point of a diagram"
                )
            del labels[idx]
        else:
            raise QueryError(f"unknown update op {op!r}")
    if len(labels) == len(old) and not any(is_new for is_new, _ in labels):
        return diagram  # every op cancelled against another
    ctx = _context(diagram, build_options, budget, "batch")
    with ctx.phase("rank_space"):
        points = []
        final_of_old: dict[int, int] = {}
        for pos, (is_new, i) in enumerate(labels):
            if is_new:
                points.append(inserted[i])
            else:
                points.append(old.points[i])
                final_of_old[i] = pos
        new_dataset = Dataset(points)
        new_grid = Grid(new_dataset)
        x_origin = _column_origin(diagram.grid.axes[0], new_grid.axes[0])
        y_origin = _column_origin(diagram.grid.axes[1], new_grid.axes[1])
        sy = new_grid.shape[1]
        # Union of the dirty lower-left blocks: a point only changes
        # results strictly below its y grid line, so the union of row
        # prefixes is the row prefix of the max bound.
        dirty_hi = 0
        for pos, (is_new, _) in enumerate(labels):
            if is_new:
                dirty_hi = max(dirty_hi, new_grid.rank_of(pos)[1])
        for victim in set(range(len(old))) - set(final_of_old):
            victim_ry = diagram.grid.rank_of(victim)[1]
            bound = next(
                (j for j in range(sy) if y_origin[j] >= victim_ry), sy
            )
            dirty_hi = max(dirty_hi, bound)
        # Composed renumbering of surviving old ids (monotone, so the
        # remapped results stay sorted); victims never appear in clean
        # results — their candidate regions are inside the union.
        shift = np.zeros(max(1, len(old)), dtype=np.int64)
        for i, pos in final_of_old.items():
            shift[i] = pos
        identity = all(i == pos for i, pos in final_of_old.items())

    return _rescan_update(
        ctx,
        diagram,
        new_grid,
        x_origin,
        y_origin,
        dirty_hi,
        None if identity else shift,
    )
