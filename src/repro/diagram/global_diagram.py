"""Global skyline diagrams: the union of all 2^d quadrant diagrams.

The paper (Sec. IV) notes that the global skyline is the union of the
quadrant skylines of every quadrant, and that all quadrants share the same
grid lines.  Reflecting the dataset (negating the axes in a quadrant's mask)
turns quadrant-``mask`` dominance into plain first-quadrant dominance, so
one first-quadrant construction algorithm serves every orientation; the
reflected diagram's cell indices are mirrored back onto the shared grid and
the per-cell results unioned (the four candidate sets partition the points
around any cell-interior query, so the union is disjoint).

Both steps run on the array-backed store: mirroring a quadrant diagram is a
``np.flip`` of its id grid (the table is orientation-independent), and the
union is computed once per *distinct combination* of quadrant ids — the 2^d
flat id arrays are stacked and deduplicated row-wise
(:func:`~repro.diagram.pipeline.unique_rows`, lexicographic order).

Different combinations can still yield the same union (a point crossing
from one quadrant into its neighbour stays in the result), so the union
table is deduplicated by an array kernel (:func:`_union_table`) rather
than by merging tuples per combination.  Because the parts are disjoint,
a combination's point set is keyed by an *additive set hash* — the sum of
its parts' hashes, each the sum of one random 64-bit key per point — which
costs O(#combinations) memory.  Combinations sharing a hash are then
verified exactly (equal sizes and equal sorted point lists), ids are
assigned by first occurrence in combination order, and result tuples are
materialized once per distinct union, in blocks of :data:`_BLOCK`
combinations so transient arrays stay small whatever the dataset size.

Construction runs through the shared
:class:`~repro.diagram.pipeline.BuildContext`: the ``row_scan`` phase is
the 2^d quadrant sub-builds (each threading the shared meter — and the
``build_options``, so a parallel executor shards every sub-build's scan),
the ``intern`` phase is the combination union.  The report names the
executor the sub-builds ran (the union kernel is the same under every
executor).
"""

from __future__ import annotations

import dataclasses
import inspect
from collections.abc import Callable, Sequence

import numpy as np

from repro.diagram.base import SkylineDiagram
from repro.diagram.pipeline import (
    BuildContext,
    BuildOptions,
    split_tuples,
    unique_rows,
)
from repro.diagram.store import ResultStore, _multi_arange, table_csr
from repro.errors import BudgetExceededError, DimensionalityError
from repro.geometry.dominance import reflect_points
from repro.geometry.grid import Grid
from repro.geometry.point import Dataset, ensure_dataset
from repro.resilience import BudgetMeter, BuildBudget, as_meter

Algorithm = Callable[[Dataset], SkylineDiagram]


def _call(
    algorithm: Algorithm,
    dataset: Dataset,
    meter: BudgetMeter | None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Invoke a construction algorithm, threading the meter when supported.

    Budget-unaware algorithms (third-party or the ablation baselines) are
    charged post-hoc one scan row at a time — the same cadence the
    budget-aware constructors use — so a shared budget trips within one
    row of its limit instead of overshooting by an entire sub-build's
    cell count in a single lump checkpoint.
    """
    try:
        parameters = inspect.signature(algorithm).parameters
    except (TypeError, ValueError):  # builtins/partials without signatures
        parameters = {}
    kwargs = {}
    if build_options is not None and "build_options" in parameters:
        kwargs["build_options"] = build_options
    if meter is None:
        return algorithm(dataset, **kwargs)
    if "budget" in parameters:
        return algorithm(dataset, budget=meter, **kwargs)
    diagram = algorithm(dataset, **kwargs)
    cells = diagram.store.num_cells
    step = max(1, diagram.store.shape[0])
    charged = 0
    while charged + step < cells:
        meter.checkpoint(advance=step)
        charged += step
    meter.checkpoint(
        advance=cells - charged, distinct=diagram.store.distinct_count
    )
    return diagram


#: Combinations per verification/materialization block of the union
#: kernel: bounds its transient memory to a few MiB for any dataset size.
_BLOCK = 1 << 12


def _point_keys(n: int) -> np.ndarray:
    """One fixed pseudo-random 64-bit key per point id (the set hash)."""
    return np.random.default_rng(0x5EED).integers(
        0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True
    )


def _union_table(
    tables: Sequence,
    combos: np.ndarray,
    n: int,
    checkpoint: Callable[..., None],
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Union ids and interned table for the quadrant-id ``combos``.

    ``combos`` holds one row of quadrant table ids per distinct
    combination, in lexicographic order; ``tables[q]`` is quadrant
    ``q``'s (possibly lazy) table.  Returns ``(combo_ids, table)`` with
    ids assigned by first occurrence in combination order — the
    numbering that merging and interning the unions one combination at
    a time produces.  ``checkpoint(distinct=...)`` runs once per
    materialized block.
    """
    csr = [table_csr(t) for t in tables]
    # Flat entry ids across quadrants; the extra last entry is empty.
    sizes = np.concatenate([c[0] for c in csr] + [np.zeros(1, np.int64)])
    points = np.concatenate([c[1] for c in csr])
    del csr
    empty = sizes.size - 1
    starts = np.cumsum(sizes) - sizes
    prefix = np.zeros(points.size + 1, dtype=np.uint64)
    np.cumsum(_point_keys(n)[points], out=prefix[1:])
    entry_hash = prefix[starts + sizes] - prefix[starts]
    del prefix
    entry_base = np.cumsum([0] + [len(t) for t in tables[:-1]])
    # Disjoint parts: a union's set hash and size are sums over its parts.
    combo_hash = np.zeros(len(combos), dtype=np.uint64)
    combo_size = np.zeros(len(combos), dtype=np.int64)
    for q, base in enumerate(entry_base.tolist()):
        column = combos[:, q] + base
        combo_hash += entry_hash[column]
        combo_size += sizes[column]
    _, first, group = np.unique(
        combo_hash, return_index=True, return_inverse=True
    )
    rep = first[group.reshape(-1)]
    del combo_hash, first, group

    def sorted_unions(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, point)`` pairs of each row's union, sorted per row.

        ``entries`` holds one row of flat table-entry ids per union.
        """
        entry_sizes = sizes[entries].ravel()
        rows = np.repeat(
            np.repeat(np.arange(entries.shape[0]), entries.shape[1]),
            entry_sizes,
        )
        pts = points[_multi_arange(starts[entries].ravel(), entry_sizes)]
        shift = rows * n
        return rows, np.sort(shift + pts) - shift

    # Verify every combination against the first one sharing its hash:
    # same size and the same sorted points, or the hashes collided.
    # Parts the two share cancel out, so only the differing ones are
    # compared (parts are disjoint within each union).
    collided = []
    dup = np.flatnonzero(rep != np.arange(rep.size))
    for lo in range(0, dup.size, _BLOCK):
        ks = dup[lo : lo + _BLOCK]
        same = combo_size[ks] == combo_size[rep[ks]]
        collided.extend(ks[~same].tolist())
        ks = ks[same]
        mine = combos[ks] + entry_base
        theirs = combos[rep[ks]] + entry_base
        shared = mine == theirs
        mine[shared] = theirs[shared] = empty
        rows, mine_points = sorted_unions(mine)
        differ = mine_points != sorted_unions(theirs)[1]
        collided.extend(ks[np.unique(rows[differ])].tolist())
    if collided:
        # Different unions behind one 64-bit hash: number those exactly,
        # in combination order so each keeps its first occurrence.
        seen: dict[tuple[int, ...], int] = {}
        for k in sorted(collided):
            union = sorted_unions(combos[[k]] + entry_base)[1]
            rep[k] = seen.setdefault(tuple(union.tolist()), k)
    # rep[k] <= k is k's first occurrence: number those in order.
    is_first = rep == np.arange(rep.size)
    firsts = np.flatnonzero(is_first)
    combo_ids = (np.cumsum(is_first, dtype=np.int32) - 1)[rep]
    del rep, is_first
    # Materialize one tuple per distinct union, from its first combination
    # (the point ints are shared objects, as tuple merging would share).
    ints = np.arange(n).astype(object)
    table: list[tuple[int, ...]] = []
    for lo in range(0, firsts.size, _BLOCK):
        ks = firsts[lo : lo + _BLOCK]
        union = sorted_unions(combos[ks] + entry_base)[1]
        table += split_tuples(ints[union].tolist(), combo_size[ks].tolist())
        checkpoint(distinct=len(table))
    return combo_ids, table


def quadrant_diagram_for_mask(
    points: Dataset | Sequence[Sequence[float]],
    mask: int,
    algorithm: Algorithm,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """First-quadrant algorithm applied to an arbitrary quadrant orientation.

    Negative-side dimensions are reflected, the diagram is built, and the
    id grid is mirrored back along the reflected axes (cell ``i`` on a
    reflected axis of ``s`` grid lines maps to cell ``s - i``, which is
    exactly a flip of the ``s + 1`` cells).
    """
    dataset = ensure_dataset(points)
    meter = as_meter(budget)
    if mask == 0:
        diagram = _call(algorithm, dataset, meter, build_options)
        mirrored_report = getattr(diagram, "build_report", None)
        diagram = SkylineDiagram(
            diagram.grid,
            diagram.store,
            kind="quadrant",
            mask=0,
            algorithm=diagram.algorithm,
        )
        diagram.build_report = mirrored_report
        return diagram
    reflected = Dataset(reflect_points(dataset.points, mask))
    try:
        mirrored = _call(algorithm, reflected, meter, build_options)
    except BudgetExceededError as exc:
        # A partial built in reflected rank space would answer mirrored
        # queries; don't let the ladder serve it for this orientation.
        exc.partial = None
        raise
    grid = Grid(dataset)
    flip_axes = [d for d in range(dataset.dim) if mask & (1 << d)]
    diagram = SkylineDiagram(
        grid,
        mirrored.store.flip(flip_axes),
        kind="quadrant",
        mask=mask,
        algorithm=mirrored.algorithm,
    )
    diagram.build_report = getattr(mirrored, "build_report", None)
    return diagram


def global_diagram(
    points: Dataset | Sequence[Sequence[float]],
    algorithm: Algorithm | None = None,
    budget: BuildBudget | BudgetMeter | None = None,
    build_options: BuildOptions | None = None,
) -> SkylineDiagram:
    """Build the global skyline diagram (union of all quadrant diagrams).

    ``algorithm`` is any first-quadrant construction function (defaults to
    the scanning algorithm, the fastest exact 2-D cell-based method).
    One shared meter charges all ``2^d`` sub-builds and the combination
    merge against ``budget``; no partial survives exhaustion (a single
    quadrant's rows cannot answer global queries).  ``build_options``
    threads through to every sub-build that supports it.

    >>> diagram = global_diagram([(2, 8), (5, 4), (9, 1)])
    >>> diagram.result_at((1, 1))   # between the staircase points
    (0, 1, 2)
    """
    dataset = ensure_dataset(points)
    if algorithm is None:
        if dataset.dim != 2:
            raise DimensionalityError(
                "pass an explicit d-dimensional algorithm for d > 2 "
                "(e.g. diagram.highdim.quadrant_scanning_nd)"
            )
        from repro.diagram.quadrant_scanning import quadrant_scanning

        algorithm = quadrant_scanning
    dim = dataset.dim
    ctx = BuildContext(budget, build_options, algorithm="global", kind="global")
    # Sub-diagrams feed the dense combination merge (and a quad sub-build
    # would be lossy before the union); only the merged store converts.
    sub_options = build_options
    if build_options is not None and build_options.backend != "dense":
        sub_options = dataclasses.replace(build_options, backend="dense")
    with ctx.phase("row_scan"):
        try:
            quadrant_diagrams = [
                quadrant_diagram_for_mask(
                    dataset,
                    mask,
                    algorithm,
                    budget=ctx.meter,
                    build_options=sub_options,
                )
                for mask in range(1 << dim)
            ]
        except BudgetExceededError as exc:
            exc.partial = None
            raise
    algorithm_name = ctx.report.algorithm = quadrant_diagrams[0].algorithm
    ran = {
        (report.executor, report.workers)
        for report in (
            getattr(d, "build_report", None) for d in quadrant_diagrams
        )
        if report is not None
    }
    if len(ran) == 1:
        # Report what the sub-builds ran (the union kernel is executor-free).
        ctx.report.executor, ctx.report.workers = ran.pop()
    grid = quadrant_diagrams[0].grid
    ctx.count_rows(grid.shape[-1] * (1 << dim))
    with ctx.phase("intern"):
        # One column of per-cell ids per quadrant; identical id combinations
        # yield identical unions, so the union kernel runs per combination.
        stacked = np.stack(
            [d.store.dense_ids().reshape(-1) for d in quadrant_diagrams],
            axis=1,
        )
        first, inverse = unique_rows(stacked)
        combos = stacked[first]
        # Large inputs are dropped once used: peak memory is what limits
        # the global diagram's size.
        del stacked, first
        tables = [d.store._table for d in quadrant_diagrams]
        del quadrant_diagrams
        combo_ids, table = _union_table(
            tables, combos, len(dataset), ctx.checkpoint
        )
        del tables, combos
        ctx.checkpoint(distinct=len(table))
    with ctx.phase("assemble"):
        ids = combo_ids[inverse.reshape(-1)].reshape(grid.shape)
        store = ResultStore(grid.shape, np.ascontiguousarray(ids), table)
        diagram = SkylineDiagram(
            grid,
            store,
            kind="global",
            algorithm=algorithm_name,
        )
    return ctx.finish(diagram)
