"""Algorithm 7 — the scanning algorithm for the dynamic skyline diagram.

Crossing a subcell boundary at grid value ``v`` flips the mapped-space order
``|a - q|`` vs ``|b - q|`` only for the pairs whose bisector lies at ``v``
(point lines flip nothing: ``|a - q|`` vs ``|b - q|`` orderings change only
at bisectors).  Hence the new subcell's dynamic skyline is contained in the
previous subcell's result plus the boundary's *contributing* points, and it
suffices to re-skyline that small candidate set:

``Sky(SC_{i,j}) = DynSky(Sky(SC_{i-1,j}) ∪ contributors(boundary i))``

The sweep computes ``Sky(SC_{0,0})`` from scratch, then walks the first
column bottom-up and each row left-to-right, re-skylining a candidate set
whose size tracks the skyline size rather than n.  Results are interned
directly into the array-backed :class:`~repro.diagram.store.ResultStore`.

Construction runs through the shared
:class:`~repro.diagram.pipeline.BuildContext` pipeline.  Rows are
independent given their entering state — a chunk worker seeds its first
row's column start with one from-scratch dynamic skyline at the row's
representative point (exactly what the incremental boundary crossing would
have produced) — so the sweep shards into ``[lo, hi)`` row chunks whose
relabeled results merge byte-identically with the serial engine's.

``BuildOptions(executor="vectorized")`` selects an array kernel
(:func:`_dynamic_vectorized`) that evaluates each subcell's dynamic
skyline from scratch, a whole row of subcells per numpy pass: with
``DX[p, i] = |x_p - rx_i|`` precomputed once and the points of row ``j``
stably sorted by ``dy = |y_p - ry_j|``, point ``p`` is dominated in
subcell ``(i, j)`` iff the minimum of ``DX[:, i]`` over the strictly
smaller ``dy`` groups is ``<= DX[p, i]``, or the minimum within its own
equal-``dy`` group is ``< DX[p, i]`` — exact duplicates never dominate
each other, the rule of :func:`~repro.skyline.algorithms.skyline_sort_2d`.
Result masks are bit-packed and interned per row block by first occurrence in
scan order, so the store is byte-identical to the serial sweep's.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.diagram.base import DynamicDiagram
from repro.diagram.pipeline import (
    BuildContext,
    BuildOptions,
    Interner,
    merge_chunk_tables,
    relabel_scan_order,
    split_tuples,
    unique_rows,
)
from repro.diagram.store import ResultStore
from repro.errors import BudgetExceededError
from repro.geometry.point import Dataset, ensure_dataset
from repro.geometry.subcell import SubcellGrid
from repro.resilience import BudgetMeter, BuildBudget, PartialDiagram
from repro.skyline.queries import dynamic_skyline, dynamic_skyline_among


def _scan_dynamic_rows(
    dataset: Dataset,
    subcells: SubcellGrid,
    lo: int,
    hi: int,
    interner: Interner,
    rows: np.ndarray,
    base: int,
    on_row=None,
) -> None:
    """The boundary-crossing row kernel: sweep rows ``lo`` to ``hi - 1``.

    Row ``lo``'s column start is computed from scratch (one dynamic
    skyline at the row's representative), so any row range runs
    independently of the rows below it.  Row ``j`` is written to
    ``rows[j - base]``; ``on_row(j)`` runs after each completed row.
    """
    sx, _ = subcells.shape
    intern_id = interner.intern
    column_start = dynamic_skyline(dataset, subcells.representative((0, lo)))
    for j in range(lo, hi):
        if j > lo:
            # Cross the horizontal boundary below row j.
            candidates = _merge_candidates(
                column_start, subcells.boundary_contributors(1, j)
            )
            column_start = dynamic_skyline_among(
                dataset, candidates, subcells.representative((0, j))
            )
        row = [0] * sx
        row[0] = intern_id(column_start)
        previous = column_start
        for i in range(1, sx):
            candidates = _merge_candidates(
                previous, subcells.boundary_contributors(0, i)
            )
            previous = dynamic_skyline_among(
                dataset, candidates, subcells.representative((i, j))
            )
            row[i] = intern_id(previous)
        rows[j - base] = row
        if on_row is not None:
            on_row(j)


def _dynamic_chunk_job(job):
    """One row-chunk worker: picklable, sees only points + a row range."""
    points, lo, hi = job
    dataset = Dataset(points)
    subcells = SubcellGrid(dataset)
    sx, _ = subcells.shape
    interner = Interner()
    local = np.empty((hi - lo, sx), dtype=np.int32)
    _scan_dynamic_rows(dataset, subcells, lo, hi, interner, local, lo)
    return relabel_scan_order(local, interner.table, flip=False)


def _representatives(axis: tuple[float, ...]) -> np.ndarray:
    """Per-subcell query coordinates, as :meth:`SubcellGrid.representative`."""
    values = np.asarray(axis, dtype=np.float64)
    return np.concatenate(
        ([values[0] - 1.0], (values[:-1] + values[1:]) / 2.0,
         [values[-1] + 1.0])
    )


def _row_skylines(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Dynamic-skyline masks of one subcell row: ``(n, sx)`` booleans.

    ``dx[p, i]`` and ``dy[p]`` are the mapped coordinates of point ``p``
    for the row's subcell ``i``.  Points run along the first axis, so
    every scan step below is one whole-row array op over the subcells.
    """
    order = np.argsort(dy, kind="stable")
    sorted_dy = dy[order]
    opens = np.empty(sorted_dy.size, dtype=bool)
    opens[0] = True
    np.not_equal(sorted_dy[1:], sorted_dy[:-1], out=opens[1:])
    group = np.cumsum(opens) - 1
    mapped = dx[order]
    group_min = np.minimum.reduceat(mapped, np.flatnonzero(opens), axis=0)
    before = np.empty_like(group_min)
    before[0] = np.inf
    np.minimum.accumulate(group_min[:-1], axis=0, out=before[1:])
    dominated = (before[group] <= mapped) | (group_min[group] < mapped)
    masks = np.empty_like(dominated)
    masks[order] = ~dominated
    return masks


def _dynamic_vectorized(
    ctx: BuildContext, dataset: Dataset, subcells: SubcellGrid
) -> DynamicDiagram:
    """The ``executor="vectorized"`` build path of :func:`dynamic_scanning`.

    Each row block (``chunk_rows`` rows, default
    :data:`~repro.diagram.pipeline.VECTOR_BLOCK_ROWS`) computes its rows'
    masks with :func:`_row_skylines`, bit-packs them into uint64 words,
    and interns the block's distinct masks in scan order; transient
    memory stays O(block x sx x n) bits.  The budget checkpoint fires
    once per block; on exhaustion the completed bottom rows ship as a
    :class:`~repro.resilience.PartialDiagram`, as in the serial sweep.
    """
    sx, sy = subcells.shape
    n = len(dataset)
    with ctx.phase("rank_space"):
        coords = np.asarray(dataset.points, dtype=np.float64)
        rx = _representatives(subcells.axes[0])
        ry = _representatives(subcells.axes[1])
        dx = np.abs(coords[:, 0, None] - rx)
    rows = np.empty((sy, sx), dtype=np.int32)  # row j contiguous; .T at end
    words_per_mask = -(-n // 64)
    ids: dict[bytes, int] = {}
    table: list[tuple[int, ...]] = []
    with ctx.phase("row_scan"):
        for lo, hi in ctx.row_chunks(sy):
            # Bit-pack every mask into whole uint64 words: the intern key.
            packed = np.zeros((hi - lo, sx, 8 * words_per_mask), np.uint8)
            for j in range(lo, hi):
                masks = _row_skylines(dx, np.abs(coords[:, 1] - ry[j]))
                packed[j - lo, :, : -(-n // 8)] = np.packbits(masks, axis=0).T
            words = packed.reshape(-1, 8 * words_per_mask).view(np.uint64)
            first, inverse = unique_rows(words)
            local = np.empty(len(first), dtype=np.int32)
            fresh = []
            for u in np.argsort(first, kind="stable").tolist():
                key = words[first[u]].tobytes()
                rid = ids.get(key)
                if rid is None:
                    rid = ids[key] = len(ids)
                    fresh.append(first[u])
                local[u] = rid
            if fresh:
                bits = np.unpackbits(
                    words[fresh].view(np.uint8), axis=1, count=n
                )
                table += split_tuples(
                    np.nonzero(bits)[1].tolist(), bits.sum(axis=1).tolist()
                )
            rows[lo:hi] = local[inverse.reshape(-1)].reshape(hi - lo, sx)
            ctx.count_rows(hi - lo)
            try:
                ctx.checkpoint(advance=(hi - lo) * sx, distinct=len(table))
            except BudgetExceededError as exc:
                if exc.partial is None:
                    exc.partial = PartialDiagram(
                        subcells,
                        {jj: rows[jj].copy() for jj in range(hi)},
                        list(table),
                        boundary_exact=False,
                    )
                raise
    with ctx.phase("intern"):
        ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        store = ResultStore((sx, sy), np.ascontiguousarray(rows.T), table)
        diagram = DynamicDiagram(subcells, store, algorithm="scanning")
    return ctx.finish(diagram)


def dynamic_scanning(
    points: Dataset | Sequence[Sequence[float]],
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> DynamicDiagram:
    """Build the dynamic skyline diagram with Algorithm 7.

    ``budget`` bounds the sweep cooperatively (one checkpoint per subcell
    row); on exhaustion the raised
    :class:`~repro.errors.BudgetExceededError` carries a
    :class:`~repro.resilience.PartialDiagram` over the bottom rows
    completed so far.  ``build_options`` selects the row executor and
    chunking; sharded builds produce byte-identical stores but carry no
    partial on interruption.  The vectorized executor runs the array
    kernel of the module docstring and checkpoints once per row block.

    >>> diagram = dynamic_scanning([(0, 0), (10, 10)])
    >>> diagram.query((4, 6))
    (0, 1)
    """
    dataset = ensure_dataset(points)
    ctx = BuildContext(
        budget,
        build_options,
        algorithm="scanning",
        kind="dynamic",
        vector_capable=True,
    )
    with ctx.phase("rank_space"):
        subcells = SubcellGrid(dataset)
        sx, sy = subcells.shape
    if ctx.executor.name == "vectorized":
        return _dynamic_vectorized(ctx, dataset, subcells)
    chunks = ctx.row_chunks(sy)
    rows = np.empty((sy, sx), dtype=np.int32)  # row j contiguous; .T at end
    if len(chunks) == 1:
        interner = Interner()

        def on_row(j: int) -> None:
            try:
                ctx.checkpoint(advance=sx, distinct=len(interner))
            except BudgetExceededError as exc:
                if exc.partial is None:
                    exc.partial = PartialDiagram(
                        subcells,
                        {jj: rows[jj].copy() for jj in range(j + 1)},
                        list(interner.table),
                        boundary_exact=False,
                    )
                raise

        with ctx.phase("row_scan"):
            _scan_dynamic_rows(
                dataset, subcells, 0, sy, interner, rows, 0, on_row
            )
            ctx.count_rows(sy)
        with ctx.phase("intern"):
            ctx.checkpoint(distinct=len(interner))
            table = interner.table
    else:
        pts = dataset.points
        jobs = [(pts, lo, hi) for lo, hi in chunks]

        def on_chunk(job, result) -> None:
            _, lo, hi = job
            ctx.count_rows(hi - lo)
            for _ in range(hi - lo):
                ctx.checkpoint(advance=sx)

        with ctx.phase("row_scan"):
            parts = ctx.executor.run(_dynamic_chunk_job, jobs, on_chunk)
        with ctx.phase("intern"):
            table = merge_chunk_tables(chunks, parts, rows)
            ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        store = ResultStore((sx, sy), np.ascontiguousarray(rows.T), table)
        diagram = DynamicDiagram(subcells, store, algorithm="scanning")
    return ctx.finish(diagram)


def _merge_candidates(
    sky: tuple[int, ...], contributors: tuple[int, ...]
) -> tuple[int, ...]:
    """Union of two sorted id tuples (both deduplicated)."""
    merged: list[int] = []
    ia = ib = 0
    na, nb = len(sky), len(contributors)
    while ia < na and ib < nb:
        a, b = sky[ia], contributors[ib]
        if a < b:
            merged.append(a)
            ia += 1
        elif b < a:
            merged.append(b)
            ib += 1
        else:
            merged.append(a)
            ia += 1
            ib += 1
    merged.extend(sky[ia:])
    merged.extend(contributors[ib:])
    return tuple(merged)
