"""Traced mode: spans around calls into the layers' public functions.

The program carries no instrumentation.  While a traced run is measured,
``instrument`` replaces the module attributes through which the layers call
each other with wrappers that record a span (name, start, end, parent, op)
and, for the memory-heavy layers, the ``tracemalloc`` peak of the call.
Spans stay in memory and are written out when the run ends.

``tracemalloc`` slows allocation-heavy Python code several times over
(``Transcript.serialize`` about tenfold), so peaks are taken on the untimed
warm-up operation only; all operations of a workload have the same size.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

# Span name -> the per-layer metric its self time is added to.  Hash spans
# are split by the protocol stage they run under.
LAYER_OF = {
    "cli.main": "cli.self_ms",
    "protocol.run_protocol": "protocol.sampling_self_ms",
    "protocol.reconcile": "protocol.ec_pa_self_ms",
    "protocol.amplify": "protocol.ec_pa_self_ms",
    "protocol.estimate_parameters": "protocol.pe_ms",
    "protocol.serialize": "protocol.serialize_ms",
    "quantum.depolarize_each": "quantum.busy_ms",
    "quantum.joint_distribution": "quantum.busy_ms",
    "keyrate.finite_key_length": "keyrate.busy_ms",
    "keyrate.asymptotic_rate_cka": "keyrate.busy_ms",
    "keyrate.asymptotic_rate_diqkd": "keyrate.busy_ms",
}
HASH_STAGE = {"protocol.reconcile": "hashing.reconcile_ms", "protocol.amplify": "hashing.amplify_ms"}
SELF_TIMES = sorted(set(LAYER_OF.values()) | set(HASH_STAGE.values()))

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = [
    ("trace.op_p50_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("cli.import_ms", "ms"),
    *[(name, "ms") for name in SELF_TIMES],
    ("quantum.calls", "count"),
    ("quantum.peak_mb", "MB"),
    ("protocol.serialize_peak_mb", "MB"),
    ("hashing.hash_calls", "count"),
    ("hashing.matrix_mbit", "Mbit"),
    ("hashing.peak_mb", "MB"),
    ("keyrate.finite_key_ms", "ms"),
    ("keyrate.objective_evals", "count"),
    ("keyrate.asymptotic_us", "us"),
]


class Tracer:
    """Collects spans in memory.

    ``op`` tags the spans of the current timed operation (None outside
    them); ``memory`` turns on the peak measurement of memory spans.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self.memory = False
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        rec = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        own_tracing = memory and self.memory and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if own_tracing:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, name, fn, memory=False, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, memory, **(attrs(*args) if attrs else {})):
                return fn(*args, **kwargs)

        return traced

    def counted(self, key, fn):
        """Count calls into ``fn`` on the innermost open span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self._stack:
                top = self._stack[-1]
                top[key] = top.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the layer boundaries of ``dicka`` for the duration of the block."""
    import dicka.cli as cli
    import dicka.hashing as hashing
    import dicka.keyrate as keyrate
    import dicka.protocol as protocol

    run = tracer.wrap("protocol.run_protocol", protocol.run_protocol)
    th = tracer.wrap(
        "hashing.toeplitz_hash",
        hashing.toeplitz_hash,
        memory=True,
        attrs=lambda seed, _bits: {"in_len": seed.in_len, "out_len": seed.out_len},
    )
    fkl = tracer.wrap("keyrate.finite_key_length", keyrate.finite_key_length)
    patches = [
        (cli, "run_protocol", run),
        (protocol, "run_protocol", run),
        (protocol.Transcript, "serialize", tracer.wrap("protocol.serialize", protocol.Transcript.serialize, memory=True)),
        (protocol, "depolarize_each", tracer.wrap("quantum.depolarize_each", protocol.depolarize_each, memory=True)),
        (protocol, "joint_distribution", tracer.wrap("quantum.joint_distribution", protocol.joint_distribution, memory=True)),
        (protocol, "reconcile", tracer.wrap("protocol.reconcile", protocol.reconcile)),
        (protocol, "amplify", tracer.wrap("protocol.amplify", protocol.amplify)),
        (protocol, "estimate_parameters", tracer.wrap("protocol.estimate_parameters", protocol.estimate_parameters)),
        (protocol, "toeplitz_hash", th),
        (hashing, "toeplitz_hash", th),  # reached through verify_hash
        (protocol, "finite_key_length", fkl),
        (keyrate, "finite_key_length", fkl),
        (keyrate, "asymptotic_rate_cka", tracer.wrap("keyrate.asymptotic_rate_cka", keyrate.asymptotic_rate_cka)),
        (keyrate, "asymptotic_rate_diqkd", tracer.wrap("keyrate.asymptotic_rate_diqkd", keyrate.asymptotic_rate_diqkd)),
        (keyrate, "tangent_f", tracer.counted("evals", keyrate.tangent_f)),
        (keyrate, "v_tilde", tracer.counted("evals", keyrate.v_tilde)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _median(values):
    return statistics.median(values) if values else 0.0


PEAK_OF = {
    "hashing.toeplitz_hash": "hashing.peak_mb",
    "quantum.depolarize_each": "quantum.peak_mb",
    "quantum.joint_distribution": "quantum.peak_mb",
    "protocol.serialize": "protocol.serialize_peak_mb",
}


def layer_metrics(spans: list[dict], op_ms: list[float]) -> dict[str, float]:
    """Per-layer figures of a traced run; timed ops are numbered from 0.

    Times and counts are per-op medians over the timed ops, except the
    per-call medians of ``keyrate.finite_key_ms``,
    ``keyrate.objective_evals`` and ``keyrate.asymptotic_us``.  Peaks are
    the largest of the spans that measured one.  ``trace.unattributed_ms``
    is the traced op median less the sum of the per-layer self-time
    medians, so the self times and it add up to ``trace.op_p50_ms``.
    ``cli.import_ms`` is measured apart and left at 0 here.
    """
    by_id = {s["id"]: s for s in spans}
    peaks = defaultdict(float)
    for s in spans:
        if "peak_bytes" in s:
            peaks[PEAK_OF[s["name"]]] = max(peaks[PEAK_OF[s["name"]]], s["peak_bytes"] / 2**20)
    timed = [s for s in spans if s["op"] is not None]
    child_ms = defaultdict(float)
    for s in timed:
        if s["parent"] is not None:
            child_ms[s["parent"]] += (s["end"] - s["start"]) * 1e3
    per_op = defaultdict(lambda: [0.0] * len(op_ms))
    fkl_ms, fkl_evals, asym_us = [], [], []
    for s in timed:
        name, op = s["name"], s["op"]
        dur_ms = (s["end"] - s["start"]) * 1e3
        self_ms = dur_ms - child_ms[s["id"]]
        if name == "hashing.toeplitz_hash":
            stage = by_id[s["parent"]]
            while stage["name"] not in HASH_STAGE:
                stage = by_id[stage["parent"]]
            per_op[HASH_STAGE[stage["name"]]][op] += self_ms
            per_op["hashing.hash_calls"][op] += 1
            per_op["hashing.matrix_mbit"][op] += s["in_len"] * s["out_len"] / 1e6
            continue
        per_op[LAYER_OF[name]][op] += self_ms
        if name.startswith("quantum."):
            per_op["quantum.calls"][op] += 1
        elif name == "keyrate.finite_key_length":
            fkl_ms.append(dur_ms)
            fkl_evals.append(s.get("evals", 0))
        elif name.startswith("keyrate.asymptotic"):
            asym_us.append(dur_ms * 1e3)
    out = {name: _median(values) for name, values in per_op.items()}
    out.update(peaks)
    out["trace.op_p50_ms"] = _median(op_ms)
    out["trace.unattributed_ms"] = out["trace.op_p50_ms"] - sum(out.get(name, 0.0) for name in SELF_TIMES)
    out["keyrate.finite_key_ms"] = _median(fkl_ms)
    out["keyrate.objective_evals"] = _median(fkl_evals)
    out["keyrate.asymptotic_us"] = _median(asym_us)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
