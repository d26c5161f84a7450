"""In-memory span tracer for the traced benchmark run.

The tracer replaces public ``noma_rbc`` functions at the module attribute
where their callers look them up (``noma_rbc.scheduling.second_rate_bits``,
``noma_rbc.simulation.schedule_interval`` ...) with wrappers that record one
span per call: name, start, end and the enclosing span.  Nothing inside the
package changes.  Spans live in flat arrays until the run ends, when
``save`` writes them out and ``summary`` turns them into the per-layer
metrics.  Spans do not cross process boundaries, so traced jobs run
serially.

``PoolWatch`` counts the process pools of ``simulate --parallel`` and reads
their workers' peak memory; the untraced run uses it for ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import noma_rbc.cli
import noma_rbc.oracle
import noma_rbc.rates
import noma_rbc.scheduling
import noma_rbc.simulation

# (module holding the looked-up attribute, attribute, span name)
TRACE_POINTS = (
    (noma_rbc.cli, "main", "cli.main"),
    (noma_rbc.cli, "run_experiment", "simulation.run_experiment"),
    (noma_rbc.cli, "write_results_csv", "simulation.write_results_csv"),
    (noma_rbc.cli, "sweep_region", "rates.sweep_region"),
    (noma_rbc.cli, "verify_scheme", "oracle.verify_scheme"),
    (noma_rbc.rates, "optimize_n_hat", "rates.optimize_n_hat"),
    (noma_rbc.oracle, "gaussian_mi", "oracle.gaussian_mi"),
    (noma_rbc.simulation, "run_trial", "simulation.run_trial"),
    (noma_rbc.simulation, "draw_bs_gains", "simulation.draw_bs_gains"),
    (noma_rbc.simulation, "schedule_interval", "scheduling.schedule_interval"),
    (noma_rbc.simulation, "pf_update", "scheduling.pf_update"),
    (noma_rbc.scheduling, "near_far_pair", "scheduling.near_far_pair"),
    (noma_rbc.scheduling, "nearest_neighbor_pair", "scheduling.nearest_neighbor_pair"),
    (noma_rbc.scheduling, "relay_rate_bits", "rates.relay_rate_bits"),
    (noma_rbc.scheduling, "second_rate_bits", "rates.second_rate_bits"),
    (noma_rbc.scheduling, "serve_pair", "rates.serve_pair"),
    # private: the golden-section fallback of the n_hat optimizer, the
    # search ROADMAP item 2 removes; skipped once it no longer exists
    (noma_rbc.rates, "_golden_max", "rates.n_hat_fallback"),
)


def _unordered(scheme, g01, g02, g12, params, split):
    """Scoring call whose pair violates the degraded ordering (g02 > g01).
    Seen from outside it is a proxy for the n_hat optimizer's fallback; the
    ``rates.n_hat_fallback`` spans count the fallback itself."""
    return g01 * params.n2 < g02 * params.n1


class Tracer:
    """Spans of the traced jobs, kept in flat arrays, and the calls and
    time of the unordered ``second_rate_bits`` calls."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.jobs = 0
        self.unordered_calls = 0
        self.unordered_ns = 0

    def _wrap(self, fn, span_name):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        stack, clock = self._stack, time.perf_counter_ns
        name, parent, start, end = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_unordered(self, fn):
        """``second_rate_bits`` that adds the unordered calls and their time
        to the tracer's counters."""
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            if not _unordered(*args, **kwargs):
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.unordered_ns += clock() - t0
                self.unordered_calls += 1

        return counted

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for one traced job and restore the original
        functions afterwards."""
        points = [(mod, attr, name) for mod, attr, name in TRACE_POINTS if hasattr(mod, attr)]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in points]
        try:
            for (mod, attr, span_name), (_, _, fn) in zip(points, originals):
                if span_name == "rates.second_rate_bits":
                    fn = self._count_unordered(fn)
                setattr(mod, attr, self._wrap(fn, span_name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)
        self.jobs += 1

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, span_names=np.array(self.names), name=name, parent=parent,
                 start_ns=start, end_ns=end)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        name, parent, start, end = self.arrays()
        dur = (end - start) / 1e9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = name == nid
            out[span_name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out


def _peak_rss_kb(pid: int) -> int:
    """Peak resident memory of a live process, from its ``VmHWM`` (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class PoolWatch:
    """Counts the process pools ``run_experiment`` creates, by swapping the
    executor class the simulation module looks up, and takes the summed
    peak resident memory of each pool's workers just before it shuts
    down."""

    def __init__(self):
        self.created = 0
        self.worker_peaks_kb: list[int] = []

    @contextlib.contextmanager
    def active(self):
        watch = self

        class WatchedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                watch.created += 1
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                if self._processes:
                    watch.worker_peaks_kb.append(
                        sum(_peak_rss_kb(p.pid) for p in list(self._processes.values())))
                super().shutdown(*args, **kwargs)

        original = noma_rbc.simulation.ProcessPoolExecutor
        noma_rbc.simulation.ProcessPoolExecutor = WatchedPool
        try:
            yield self
        finally:
            noma_rbc.simulation.ProcessPoolExecutor = original
