"""Span and counter recorder for the traced benchmark run.

Wraps the public functions of each cacheplace module from outside the
package and rebinds every module attribute that refers to one of them, so
that calls made through ``from .x import y`` bindings are traced too. Spans
and counters stay in memory and are written out once, when the run ends.
"""

import functools
import itertools
import json
import sys
import threading
import time

MODULES = ("special", "analytic", "catalog", "optimizer", "simulator", "cli")
# cli has no __all__; these are its public functions.
CLI_FUNCTIONS = (
    "main", "parse_spec", "run_sweep", "run_validate", "run_solve",
    "write_rows", "write_sidecar", "write_validate_rows",
)
# Called up to ~10^5 times per run: kept as call counts and times only,
# not as per-call spans.
LEAVES = frozenset((
    "special.hyp2f1_1b", "special.beta", "analytic.derive_constants",
    "analytic.placement_cap", "simulator.sample_ppp",
))
# Spans that also read the thread's CPU clock (simulator busy time).
CPU_SPANS = frozenset(("simulator.simulate_hit", "simulator.simulate_secrecy"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_sample_ppp(st, args, kwargs, result):
    st.counters["sample_ppp.points"] += len(result)


def _note_estimates(st, estimates, trials):
    st.counters["estimate_trials"] += len(estimates) * trials
    for est in estimates:
        if 0.0 < est.estimate < 1.0:
            st.counters["ci95_sum"] += est.ci95_halfwidth
            st.counters["ci95_n"] += 1


def _observe_simulate_hit(st, args, kwargs, result):
    trials = _arg(args, kwargs, 3, "cfg").trials
    st.counters["simulate_hit.trials"] += trials
    _note_estimates(st, result.per_file, trials)


def _observe_simulate_secrecy(st, args, kwargs, result):
    trials = _arg(args, kwargs, 2, "cfg").trials
    if _arg(args, kwargs, 0, "p_i") > 0:  # p = 0 returns without sampling
        st.counters["simulate_secrecy.trials"] += trials
    _note_estimates(st, (result,), trials)


def _observe_derive_constants(st, args, kwargs, result):
    st.distinct.add((_arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "gamma")))


OBSERVERS = {
    "simulator.sample_ppp": _observe_sample_ppp,
    "simulator.simulate_hit": _observe_simulate_hit,
    "simulator.simulate_secrecy": _observe_simulate_secrecy,
    "analytic.derive_constants": _observe_derive_constants,
}


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [child_seconds, span_id]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            key: 0 for key in (
                "sample_ppp.points", "estimate_trials", "ci95_sum", "ci95_n",
                "simulate_hit.trials", "simulate_secrecy.trials",
            )
        }
        self.distinct = set()


class Tracer:
    """Installs wrappers on the loaded cacheplace modules and records calls."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self.spans = []  # (span_id, parent_id, name, thread, start, end, cpu_s)
        self.solutions = []  # (catalog, params, OcpSolution) per solve_ocp call

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def install(self):
        """Wrap each module's public functions and rebind every reference to them."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"cacheplace.{short}"]
            names = CLI_FUNCTIONS if short == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "cacheplace" or name.startswith("cacheplace.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap(self, name, fn):
        leaf = name in LEAVES
        cpu = name in CPU_SPANS
        observe = OBSERVERS.get(name)
        keep_solution = name == "optimizer.solve_ocp"
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0, None if leaf else next(ids)]
            stack.append(frame)
            cpu0 = time.thread_time() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                cpu_s = time.thread_time() - cpu0 if cpu else 0.0
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                entry = st.stats.get(name)
                if entry is None:
                    entry = st.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if not leaf:
                    spans.append((
                        frame[1], parent[1] if parent else None, name,
                        threading.get_ident(), t0, t1, cpu_s,
                    ))
            if observe is not None:
                observe(st, args, kwargs, result)
            if keep_solution:
                self.solutions.append((args[0], args[1], result))
            return result

        return traced

    def _adopt_pool_spans(self, stats):
        """Parent root spans of worker threads to the main-thread span that ran them.

        A span's self time is its duration minus the part of it that its
        children cover; worker-thread children of one span can overlap, so
        the covered part is the union of their intervals.
        """
        main = threading.main_thread().ident
        main_spans = [s for s in self.spans if s[3] == main]
        adopted = {}
        spans = []
        for span in self.spans:
            if span[1] is None and span[3] != main:
                holders = [s for s in main_spans if s[4] <= span[4] and span[5] <= s[5]]
                if holders:
                    holder = max(holders, key=lambda s: s[4])
                    adopted.setdefault(holder, []).append((span[4], span[5]))
                    span = (span[0], holder[0]) + span[2:]
            spans.append(span)
        for holder, intervals in adopted.items():
            covered, reach = 0.0, float("-inf")
            for start, end in sorted(intervals):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            stats[holder[2]][2] -= covered
        return spans

    def dump(self, path, residuals):
        """Merge the per-thread records and write them with the spans as JSON."""
        stats, counters, distinct = {}, {}, set()
        for st in self._states:
            for name, (calls, total, self_s) in st.stats.items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for key, value in st.counters.items():
                counters[key] = counters.get(key, 0) + value
            distinct |= st.distinct
        counters["derive_constants.distinct"] = len(distinct)
        spans = self._adopt_pool_spans(stats)
        with open(path, "w") as fh:
            json.dump({
                "stats": stats, "counters": counters, "spans": spans,
                "residuals": residuals(self.solutions),
            }, fh)
