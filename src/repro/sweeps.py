"""Shared sweep scaffolding for the serving load studies.

The load studies (Figure 15 under load, Figure 16 under load, the
expert-parallel sweep, the CLI sweeps) all walk a cartesian grid of serving
knobs — design × capacity × offered load × … — and key their results by the
swept values.  :func:`run_grid` is that loop, written once: axes are
declared as keyword arguments (name → values, in key order) and the serve
callable receives one keyword per axis.

Grid cells are independent simulations, so :func:`run_grid` optionally fans
them out over a process pool (``max_workers``): cells are submitted in
declaration order and the result dict is assembled in that same order
regardless of completion order, so a parallel sweep is bit-identical to the
serial one.  The same pattern serves
:meth:`repro.serving.cluster.ReplicaCluster.serve`'s per-replica loop.

This module lives in the installed package (``repro.sweeps``) so the CLI
and the benchmark files use the same grids.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import multiprocessing

from .workloads import POISSON_QA_LOAD, LoadSpec


def open_loop(rate: float, base: LoadSpec = POISSON_QA_LOAD) -> LoadSpec:
    """Open-loop Poisson arrivals at ``rate`` requests/second."""
    return base.with_overrides(request_rate=rate)


def _run_cell(item: Tuple[Callable[..., Any], Dict[str, Any]]) -> Any:
    """Execute one grid cell (module-level so the process pool can pickle it)."""
    serve, kwargs = item
    return serve(**kwargs)


def fork_start_method() -> bool:
    """Whether worker processes inherit the parent's memory (``fork``).

    Callers shipping a shared payload to the workers use this to pick the
    transport: under ``fork`` a module-level global set before pool
    creation is inherited for free; elsewhere (``spawn``/``forkserver``)
    the payload must travel through a pool ``initializer`` and is pickled
    once per worker.
    """
    return multiprocessing.get_start_method(allow_none=False) == "fork"


def ordered_pool_map(fn: Callable[[Any], Any], items: Sequence[Any],
                     max_workers: Optional[int],
                     initializer: Optional[Callable[..., None]] = None,
                     initargs: Tuple[Any, ...] = ()) -> list:
    """Map ``fn`` over ``items``, results in item order.

    The one pool/merge policy shared by :func:`run_grid` and
    :meth:`repro.serving.cluster.ReplicaCluster.serve`: with
    ``max_workers`` > 1 and more than one item, the calls run on a process
    pool (``fn`` and the items must be picklable); otherwise they run
    serially in-process.  Either way the result list lines up with the
    input order, so parallel and serial runs are interchangeable.

    ``initializer``/``initargs`` run once per worker process at pool
    start-up — the hook for shipping a shared payload once instead of
    re-pickling it into every item.  They are ignored on the serial path,
    where ``fn`` already sees the caller's process state.
    """
    items = list(items)
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(max_workers, len(items)),
                             initializer=initializer,
                             initargs=initargs) as pool:
        return list(pool.map(fn, items))


def profiled(fn: Callable[..., Any], *args: Any,
             top: int = 25, sort: str = "cumulative",
             **kwargs: Any) -> Any:
    """Run ``fn(*args, **kwargs)`` under :mod:`cProfile`; print the top rows.

    The CLI's ``--profile`` hook: the sweep runs in-process under the
    profiler and the ``top`` highest-``sort`` entries are printed to stdout
    after the sweep's own output would normally appear.  Returns ``fn``'s
    result unchanged, so a profiled sweep still renders its report.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats(sort).print_stats(top)
    return result


def run_grid(serve: Callable[..., Any],
             max_workers: Optional[int] = None,
             **axes: Sequence[Any]) -> Dict[Tuple[Any, ...], Any]:
    """Run ``serve(**combo)`` for every combination of the named axes.

    ``axes`` maps axis names to their swept values; combinations are visited
    in row-major order of the declaration.  Returns a dict keyed by the
    tuple of axis values (declaration order) — the shape every load
    benchmark's report/assert loops consume.

    ``max_workers`` > 1 runs the cells on a process pool (each cell is an
    independent simulation); ``serve`` and the axis values must then be
    picklable (a top-level function or :func:`functools.partial` of one).
    Results are merged in declaration order whatever the completion order,
    so the output is identical to the serial run.  An axis cannot be named
    ``max_workers``.
    """
    if not axes:
        raise ValueError("run_grid needs at least one axis")
    names = list(axes)
    combos = list(product(*axes.values()))
    items = [(serve, dict(zip(names, combo))) for combo in combos]
    cells = ordered_pool_map(_run_cell, items, max_workers)
    return dict(zip(combos, cells))
