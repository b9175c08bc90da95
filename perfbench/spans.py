"""Spans around the public functions of each striplyap module, and their analysis.

The traced child process (child.py) calls :func:`install`, which replaces
every module attribute bound to one of the functions in ``TARGETS`` with a
wrapper that records a span. Callers look functions up in their own module's
namespace (``sampling.draw_chunk``, ``cli.logdet_via_schur``), so every alias
of a target across the loaded ``striplyap`` modules is replaced, not only the
defining one. Spans stay in memory until the child writes them out at the end.

A span is ``[id, parent, name, command, start, end, counts]``: ``name`` is the
layer, ``command`` the index of the CLI command that caused it, and
``counts`` a dict of work counts or ``None``. :func:`layer_metrics` runs in
the harness process and needs only the standard library.
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import sys
import threading
import time

_EXPERIMENTS = (
    "cartan_tail_experiment",
    "ldt_experiment",
    "negative_tail_experiment",
    "multiscale_compare",
    "lyapunov_sum_pipeline",
    "block_logdet_summands",
    "bernstein_check",
    "mc_logdet",
)

# (module, function, layer); each layer is one span name
TARGETS = (
    [
        ("model", "draw_chunk", "model.draw"),
        ("model", "sample_disorder", "model.draw"),
        ("model", "build_hamiltonians", "model.assemble"),
        ("model", "assemble_hamiltonian", "model.assemble"),
        ("sampling", "sample_logdets", "sampling.kernel"),
        ("sampling", "sample_spectral", "sampling.kernel"),
        ("sampling", "sample_site_shifts", "sampling.kernel"),
        ("sampling", "sample_resolvent_entries", "sampling.kernel"),
        ("transfer", "lyapunov_spectrum", "transfer.lyapunov"),
        ("transfer", "accumulate", "transfer.accumulate"),
        ("transfer", "shadow_product", "transfer.shadow"),
        ("determinants", "logdet_direct", "determinants.direct"),
        ("determinants", "logdet_via_transfer", "determinants.transfer"),
        ("determinants", "logdet_via_schur", "determinants.schur"),
        ("verify", "verify_wedge", "verify.wedge"),
        ("verify", "verify_interlacing", "verify.interlacing"),
        ("verify", "verify_determinants", "verify.determinants"),
        ("cli", "main", "cli.command"),
        ("cli", "write_csv", "cli.write"),
        ("cli", "write_json", "cli.write"),
        ("cli", "write_manifest", "cli.write"),
    ]
    + [("statistics", fn, "statistics.experiment") for fn in _EXPERIMENTS]
)


def _nonfinite(values) -> int:
    return sum(1 for v in values.tolist() if not math.isfinite(v))


def _samples(args, excluded: int) -> dict:
    return {"samples": int(args["n_samples"]), "excluded": excluded}


# function name -> (bound arguments, result) -> work counts of the call
COUNTERS = {
    "sample_logdets": lambda a, r: _samples(a, int(r[1])),
    "sample_site_shifts": lambda a, r: _samples(a, int(r[1])),
    "sample_spectral": lambda a, r: _samples(a, _nonfinite(r["log_abs"])),
    "sample_resolvent_entries": lambda a, r: _samples(a, _nonfinite(r)),
    "lyapunov_spectrum": lambda a, r: {"steps": int(a["n_steps"])},
    "write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "write_json": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    """In-memory span recorder shared by the threads of one process.

    ``sampling`` runs chunks on pool threads. A span opened on a thread with
    no open span of its own takes the innermost open span of the thread that
    installed the tracer as its parent: that thread is blocked inside the
    sampling kernel until every chunk has finished.
    """

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str):
        sig = inspect.signature(fn)
        name = fn.__name__
        schur = name == "logdet_via_schur"
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                if schur:
                    # the fallback flag is only returned on request
                    bound = sig.bind(*args, **kwargs)
                    wanted = bound.arguments.get("return_info", False)
                    bound.arguments["return_info"] = True
                    value, fell_back = fn(*bound.args, **bound.kwargs)
                    result = (value, fell_back) if wanted else value
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = None
            if schur:
                counts = {"fallbacks": int(fell_back)}
            elif counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            with self._lock:
                self.spans.append([span_id, parent, layer, self.command, start, end, counts])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every alias of every target in the loaded striplyap modules."""
    modules = [m for n, m in list(sys.modules.items()) if n == "striplyap" or n.startswith("striplyap.")]
    for mod_name, fn_name, layer in TARGETS:
        original = getattr(sys.modules[f"striplyap.{mod_name}"], fn_name)
        wrapper = tracer.wrap(original, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


# ---------------------------------------------------------------- analysis


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered = [(max(c[4], start), min(c[5], end)) for c in children.get(s[0], [])]
        out[s[0]] = (end - start) - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def nesting_errors(spans) -> list:
    """Spans that start before or end after their parent, or have no parent record."""
    by_id = {s[0]: s for s in spans}
    bad = []
    for s in spans:
        if s[1] is None:
            continue
        p = by_id.get(s[1])
        if p is None or s[4] < p[4] or s[5] > p[5] or s[3] != p[3]:
            bad.append(s[0])
    return bad


def layer_metrics(spans) -> dict:
    """Per-layer seconds, calls and counts of one traced pass (see run.py for names)."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def parent_layer(s):
        return by_id[s[1]][2] if s[1] in by_id else None

    def top(layer):
        # spans of the layer not nested in a span of the same layer
        return [s for s in spans if s[2] == layer and parent_layer(s) != layer]

    def seconds(layer):
        return sum(s[5] - s[4] for s in top(layer))

    def count(layer, key):
        return sum((s[6] or {}).get(key, 0) for s in spans if s[2] == layer)

    def self_seconds(layer):
        return sum(selfs[s[0]] for s in top(layer))

    kernel_s = seconds("sampling.kernel")
    samples = count("sampling.kernel", "samples")
    excluded = count("sampling.kernel", "excluded")
    lyapunov_s = seconds("transfer.lyapunov")
    steps = count("transfer.lyapunov", "steps")
    return {
        "model.draw_s": seconds("model.draw"),
        "model.draw_calls": len(top("model.draw")),
        "model.assemble_s": seconds("model.assemble"),
        "model.assemble_calls": len(top("model.assemble")),
        "sampling.kernel_s": kernel_s,
        "sampling.factor_self_s": self_seconds("sampling.kernel"),
        "sampling.samples": samples,
        "sampling.chunks": sum(1 for s in spans if s[2] == "model.draw" and parent_layer(s) == "sampling.kernel"),
        "sampling.us_per_sample": 1e6 * kernel_s / samples if samples else 0.0,
        "sampling.excluded": excluded,
        "sampling.kept_fraction": 1.0 - excluded / samples if samples else 1.0,
        "transfer.lyapunov_s": lyapunov_s,
        "transfer.steps": steps,
        "transfer.us_per_step": 1e6 * lyapunov_s / steps if steps else 0.0,
        "transfer.accumulate_s": seconds("transfer.accumulate"),
        "transfer.shadow_s": seconds("transfer.shadow"),
        "determinants.direct_s": seconds("determinants.direct"),
        "determinants.transfer_s": seconds("determinants.transfer"),
        "determinants.schur_s": seconds("determinants.schur"),
        "determinants.schur_fallbacks": count("determinants.schur", "fallbacks"),
        "statistics.experiment_s": seconds("statistics.experiment"),
        "statistics.reduce_self_s": self_seconds("statistics.experiment"),
        "verify.wedge_s": seconds("verify.wedge"),
        "verify.interlacing_s": seconds("verify.interlacing"),
        "verify.determinants_s": seconds("verify.determinants"),
        "cli.command_s": seconds("cli.command"),
        "cli.write_s": seconds("cli.write"),
        "cli.bytes_written": count("cli.write", "bytes"),
    }


def largest_self_layer(spans) -> str | None:
    """Layer with the largest summed self time."""
    selfs = self_times(spans)
    per_layer: dict = {}
    for s in spans:
        per_layer[s[2]] = per_layer.get(s[2], 0.0) + selfs[s[0]]
    return max(per_layer, key=per_layer.get) if per_layer else None
