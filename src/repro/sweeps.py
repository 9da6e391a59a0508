"""Shared sweep scaffolding for the serving load studies.

The load studies (Figure 15 under load, Figure 16 under load, the
expert-parallel sweep, the CLI sweeps) all walk a cartesian grid of serving
knobs — design × capacity × offered load × … — and key their results by the
swept values.  :func:`run_grid` is that loop, written once: axes are
declared as keyword arguments (name → values, in key order) and the serve
callable receives one keyword per axis.

This module lives in the installed package (``repro.sweeps``) so the CLI
and the benchmark files use the same grids.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Dict, Sequence, Tuple

from .workloads import POISSON_QA_LOAD, LoadSpec


def open_loop(rate: float, base: LoadSpec = POISSON_QA_LOAD) -> LoadSpec:
    """Open-loop Poisson arrivals at ``rate`` requests/second."""
    return base.with_overrides(request_rate=rate)


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
             **axes: Sequence[Any]) -> Dict[Tuple[Any, ...], Any]:
    """Run ``serve(**combo)`` for every combination of the named axes.

    ``axes`` maps axis names to their swept values; combinations are visited
    in row-major order of the declaration.  Returns a dict keyed by the
    tuple of axis values (declaration order) — the shape every load
    benchmark's report/assert loops consume.
    """
    if not axes:
        raise ValueError("run_grid needs at least one axis")
    names = list(axes)
    return {combo: serve(**dict(zip(names, combo)))
            for combo in product(*axes.values())}
