"""In-memory spans around gaussforge's public functions, and their summary.

``install`` replaces each function in ``WRAPPED`` with a timing wrapper,
on its own module and on every ``gaussforge`` module that imported it by
name, so calls between modules nest as child spans.  A span is the list
``[name, start, end, parent_index, job_id, size]``; ``size`` is the
length of the returned value for ``jsonio.dumps`` and ``None`` otherwise.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<classmethod>"
WRAPPED = (
    "engineering.validate_recipe",
    "engineering.engineer_state",
    "engineering.free_parameter_audit",
    "engineering.Recipe.from_dict",
    "symplectic.apply_symplectic",
    "symplectic.is_pure",
    "symplectic.williamson_spectrum",
    "symplectic.symplectic_eigenvalues",
    "symplectic.reduced_cm",
    "symplectic.CovarianceMatrix.from_dict",
    "standard_form.to_standard_form",
    "standard_form.reconstruct_diagonal",
    "standard_form.det_identity_residual",
    "standard_form.harmonic_ground_state",
    "standard_form.standard_form_to_cm",
    "entanglement.full_report",
    "entanglement.entropy_one_vs_rest",
    "entanglement.entropy_via_pairwise",
    "entanglement.log_negativity_pair",
    "entanglement.schmidt_parameter",
    "gmps.parity_table",
    "jsonio.dumps",
)
MODULES = ("engineering", "symplectic", "standard_form", "entanglement", "gmps", "jsonio", "cli")


class Tracer:
    """Collects spans; ``job`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []

    def wrap(self, name, fn):
        spans, stack, sized = self.spans, self._open, name == "jsonio.dumps"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    span[5] = len(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def add_foreign(self, spans, job):
        """Append spans recorded in another process, re-indexing parents."""
        offset = len(self.spans)
        for name, start, end, parent, _, size in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, job, size])


def install(tracer, package):
    """Wrap every ``WRAPPED`` function found in ``package``; return an undo callable.

    Names the package no longer defines are skipped, so the benchmark
    keeps running when a later version drops a function.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
    undo = []
    for name in WRAPPED:
        module_name, *path = name.split(".")
        owner = sys.modules.get(f"{package.__name__}.{module_name}")
        if owner is None:
            continue
        if len(path) == 2:
            cls = getattr(owner, path[0], None)
            method = cls.__dict__.get(path[1]) if cls is not None else None
            if not isinstance(method, classmethod):
                continue
            setattr(cls, path[1], classmethod(tracer.wrap(name, method.__func__)))
            undo.append((cls, path[1], method))
            continue
        original = getattr(owner, path[0], None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def restore():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore


def self_times(spans):
    """Per-span self time in seconds: duration minus the children's durations."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, scales, job_seconds, extra_self=None):
    """Per-function and per-module metrics from the spans of the traced jobs.

    Args:
        spans: spans of the traced jobs only; each span's job id indexes
            ``scales``.
        scales: per traced job, the factor to nominal host speed of
            ``calibration.py``; also the job count.
        job_seconds: summed scaled latency of the traced jobs, the base of
            each share.
        extra_self: module -> scaled self seconds measured outside the
            spans (the ``cli`` layer of the CLI workload).
    """
    n_jobs = len(scales)
    durations = {name: [] for name in WRAPPED}
    sizes = []
    module_self = dict.fromkeys(MODULES, 0.0)
    module_self.update(extra_self or {})
    for span, own in zip(spans, self_times(spans)):
        name, scale = span[0], scales[span[4]]
        durations.setdefault(name, []).append((span[2] - span[1]) * scale)
        module_self[name.split(".")[0]] += own * scale
        if span[5] is not None:
            sizes.append(span[5])
    metrics = {}
    for name in WRAPPED:
        values = durations[name]
        metrics[f"{name}.calls"] = len(values) / n_jobs
        metrics[f"{name}.ms"] = statistics.median(values) * 1e3 if values else 0.0
    for module in MODULES:
        metrics[f"{module}.self_ms"] = module_self[module] * 1e3 / n_jobs
        metrics[f"{module}.share"] = module_self[module] / job_seconds
    metrics["jsonio.dumps.bytes"] = statistics.median(sizes) if sizes else 0.0
    return metrics
