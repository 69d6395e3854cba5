"""Solver and scaling counts for the traced run.

``exponents`` times seven stages on a fixed ladder of mode counts and
fits the log-log slope of time against N.  ``newton_iters`` finds, from
outside the solver, the smallest iteration budget with which
``reconstruct_diagonal`` converges.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import recipe_doc, ring_potential

# stage -> mode counts it is timed at; the same on every workload
LADDERS = {
    "engineering.engineer_state": (12, 24, 48),
    "standard_form.to_standard_form": (40, 80, 160),
    "standard_form.reconstruct_diagonal": (40, 80, 160),
    "entanglement.full_report": (8, 16, 32),
    "standard_form.harmonic_ground_state": (40, 80, 160),
    "entanglement.entropy_one_vs_rest": (40, 80, 160),
    "jsonio.dumps": (16, 32, 64),
}


def _median_seconds(fn, min_repeats=3, min_total=0.05, max_repeats=50):
    times = []
    while len(times) < min_repeats or (sum(times) < min_total and len(times) < max_repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _slope(sizes, seconds):
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def exponents(gf, seed):
    """Metric name -> fitted exponent of time against N, for each stage in ``LADDERS``."""
    rng = np.random.default_rng([seed, 2])
    rings = {}

    def ring(n):
        if n not in rings:
            rings[n] = gf.harmonic_ground_state(ring_potential(n, 0.5))
        return rings[n]

    def engineer(n):
        recipe = gf.Recipe.from_dict(recipe_doc(n, rng))
        return lambda: gf.engineer_state(recipe)

    def reconstruct(n):
        params = gf.extract_parameters(gf.to_standard_form(ring(n)))
        return lambda: gf.reconstruct_diagonal(params, n)

    def dumps(n):
        doc = ring(n).to_dict()
        return lambda: gf.jsonio.dumps(doc)

    makers = {
        "engineering.engineer_state": engineer,
        "standard_form.to_standard_form": lambda n: lambda: gf.to_standard_form(ring(n)),
        "standard_form.reconstruct_diagonal": reconstruct,
        "entanglement.full_report": lambda n: lambda: gf.full_report(ring(n)),
        "standard_form.harmonic_ground_state":
            lambda n: lambda p=ring_potential(n, 0.5): gf.harmonic_ground_state(p),
        "entanglement.entropy_one_vs_rest": lambda n: lambda: gf.entropy_one_vs_rest(ring(n), 1),
        "jsonio.dumps": dumps,
    }
    return {
        f"{name}.exp": _slope(sizes, [_median_seconds(makers[name](n)) for n in sizes])
        for name, sizes in LADDERS.items()
    }


def newton_iters(gf, cases):
    """Largest, over ``cases`` of (off-diagonals, N), of the smallest converging ``max_iter``.

    More iterations only extend the same Newton path, so convergence is
    monotone in the budget and a bisection finds the smallest one.
    """
    worst = 0
    limit = gf.tolerances.NEWTON_MAX_ITER
    for params, n in cases:
        low, high = 0, limit
        while low < high:
            middle = (low + high) // 2
            try:
                gf.reconstruct_diagonal(params, n, max_iter=middle)
                high = middle
            except gf.InfeasibleError:
                low = middle + 1
        worst = max(worst, low)
    return worst
