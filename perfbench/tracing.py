"""Outside-in tracing: spans around calls into each layer of ``repro``.

Nothing inside ``src/`` is instrumented.  :func:`patched` wraps each
layer's public callable (see :data:`PATCHES`) and rebinds the wrapper
under every name that refers to the original -- the attribute of each
``repro.*`` module that imported it, or the class attribute for a
method -- for the duration of a ``with`` block.  Spans (name, start,
end, parent) are kept in memory and written out when the run ends.

Only code running in this process is seen: work done inside
process-shard workers shows up as the coordinator-side
``engine.select`` / ``engine.commit`` spans that wait for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

#: The per-layer metrics, each with its unit and the end-to-end metric
#: (and workload) it is predicted to move.  Times are self seconds (a
#: span's duration minus its child spans); every value is per timed
#: operation: per campaign on the campaign workloads, per wave of
#: campaigns on ``service-sharded``.
LAYER_METRICS = [
    ("aggregation.fit_s", "s",
     "campaigns_per_min on campaign-large (EBCC); flat on "
     "campaign-journaled (MV)"),
    ("aggregation.fit_calls", "count", "campaigns_per_min on campaign-large"),
    ("grouping.init_s", "s",
     "campaigns_per_min on campaign-large (initialize_belief minus fit)"),
    ("selection.select_s", "s",
     "campaigns_per_min and round_p50_ms on campaign-large"),
    ("selection.evaluations", "count", "campaigns_per_min on campaign-large"),
    ("update.apply_s", "s",
     "campaigns_per_min and round_p50_ms on campaign-large"),
    ("update.groups_updated", "count", "campaigns_per_min on campaign-large"),
    ("hc.bookkeeping_s", "s",
     "campaigns_per_min and round_p50_ms on campaign-large "
     "(total_quality + labeling_accuracy per round)"),
    ("hc.run_s", "s",
     "campaigns_per_min on campaign-large (plain loop glue)"),
    ("sources.collect_s", "s",
     "campaigns_per_min on every workload; should stay small"),
    ("resilient.run_s", "s",
     "campaigns_per_min on campaign-journaled (checkpoint building, "
     "loop glue)"),
    ("resilient.resume_s", "s",
     "campaigns_per_min on campaign-journaled: wall time from the "
     "mid-journal cut to the finished campaign"),
    ("serialization.append_s", "s",
     "campaigns_per_min on campaign-journaled"),
    ("serialization.appends", "count",
     "campaigns_per_min on campaign-journaled"),
    ("serialization.bytes", "B",
     "campaigns_per_min on campaign-journaled (bytes appended per "
     "operation)"),
    ("serialization.journal_mb", "MB",
     "campaign-journaled: journal size of one campaign (exact)"),
    ("serialization.read_s", "s",
     "resilient.resume_s and campaigns_per_min on campaign-journaled"),
    ("serialization.trim_s", "s",
     "resilient.resume_s and campaigns_per_min on campaign-journaled"),
    ("storage.recover_s", "s",
     "resilient.resume_s and campaigns_per_min on campaign-journaled"),
    ("engine.startup_s", "s",
     "campaigns_per_min on service-sharded; 0 elsewhere"),
    ("engine.teardown_s", "s",
     "campaigns_per_min on service-sharded; 0 elsewhere"),
    ("engine.select_s", "s",
     "round_p50_ms and campaigns_per_min on service-sharded"),
    ("engine.commit_s", "s",
     "round_p50_ms and campaigns_per_min on service-sharded"),
    ("engine.transport_bytes", "B",
     "round_p50_ms and campaigns_per_min on service-sharded"),
    ("engine.recoveries", "count",
     "shard restarts, re-executed commands and failovers; 0 unless a "
     "worker fails"),
    ("ledger.ops", "count", "campaigns_per_min; should stay negligible"),
    ("ledger.s", "s", "campaigns_per_min; should stay negligible"),
    ("service.step_s", "s", "campaigns_per_min on service-sharded"),
    ("service.submit_s", "s", "campaigns_per_min on service-sharded"),
    ("service.rounds", "count", "campaigns_per_min on service-sharded"),
    ("service.rejected", "count",
     "service-sharded: burst submissions the ledger refused"),
    ("stream.run_s", "s",
     "the printed round tail (p90+) and campaigns_per_min on "
     "service-sharded"),
    ("stream.events", "count",
     "the printed round tail (p90+) on service-sharded"),
    ("unattributed.share", "ratio",
     "wall time minus summed layer self time, over wall time"),
    ("trace.overhead_s", "s",
     "traced minus untraced wall time per operation"),
]

# (span name, owner, attribute, kind).  ``owner`` is a module path for
# functions (every ``repro.*`` module binding the same object is
# rebound) or ``module:Class`` for methods.
PATCHES = [
    ("aggregation.fit", "repro.aggregation.ebcc:Ebcc", "fit", "method"),
    ("aggregation.fit", "repro.aggregation.majority:MajorityVote", "fit",
     "method"),
    ("grouping.init", "repro.datasets.grouping", "initialize_belief",
     "function"),
    ("selection.select", "repro.core.selection:LazyGreedySelector", "select",
     "method"),
    ("update.apply", "repro.core.update", "update_with_family", "function"),
    ("update.apply", "repro.simulation.online", "stage_partial_updates",
     "function"),
    ("hc.bookkeeping", "repro.core.hc", "total_quality", "function"),
    ("hc.bookkeeping", "repro.core.hc", "labeling_accuracy", "function"),
    ("hc.run", "repro.core.hc:HierarchicalCrowdsourcing", "run", "method"),
    ("sources.collect", "repro.engine.sources:KeyedExpertPanel", "collect",
     "method"),
    ("sources.collect", "repro.engine.sources:KeyedExpertPanel",
     "collect_indexed", "method"),
    ("sources.collect", "repro.simulation.oracle:SimulatedExpertPanel",
     "collect", "method"),
    ("resilient.run", "repro.simulation.resilient:ResilientCheckingSession",
     "run", "method"),
    ("resilient.restore",
     "repro.simulation.resilient:ResilientCheckingSession", "resume",
     "classmethod"),
    ("serialization.append", "repro.core.serialization",
     "append_journal_record", "function"),
    ("serialization.read", "repro.core.serialization", "read_journal",
     "function"),
    ("serialization.trim", "repro.core.serialization",
     "trim_journal_to_last_checkpoint", "function"),
    ("storage.recover", "repro.storage.integrity", "recover_journal",
     "function"),
    ("engine.startup", "repro.engine.shards:ShardPool", "__init__", "method"),
    ("engine.teardown", "repro.engine.shards:ShardPool", "close", "method"),
    ("engine.select", "repro.engine.sharded:ShardedSelector", "select",
     "method"),
    ("engine.commit", "repro.engine.sharded:ShardedUpdateEngine",
     "apply_family", "method"),
    ("engine.commit", "repro.engine.sharded:ShardedUpdateEngine",
     "apply_partial", "method"),
    ("ledger.op", "repro.engine.ledger:BudgetLedger", "reserve", "method"),
    ("ledger.op", "repro.engine.ledger:BudgetLedger", "commit", "method"),
    ("ledger.op", "repro.engine.ledger:BudgetLedger", "release", "method"),
    ("ledger.op", "repro.engine.ledger:BudgetLedger", "commit_direct",
     "method"),
    ("ledger.op", "repro.engine.ledger:BudgetLedger", "audit", "method"),
    ("service.step", "repro.service.service:CampaignService", "step",
     "method"),
    ("service.submit", "repro.service.service:CampaignService", "submit",
     "method"),
    ("stream.run", "repro.stream.runtime:StreamingCampaign", "run", "method"),
]

#: Span names every traced operation of a workload must produce.
EXPECTED_SPANS = {
    "campaign-large": {
        "aggregation.fit", "grouping.init", "selection.select",
        "update.apply", "hc.bookkeeping", "hc.run", "sources.collect",
    },
    "campaign-journaled": {
        "aggregation.fit", "grouping.init", "selection.select",
        "update.apply", "hc.bookkeeping", "sources.collect",
        "resilient.run", "resilient.restore", "serialization.append",
        "serialization.read", "serialization.trim", "storage.recover",
    },
    "service-sharded": {
        "aggregation.fit", "grouping.init", "hc.bookkeeping",
        "sources.collect", "resilient.run", "serialization.append",
        "engine.startup", "engine.teardown", "engine.select",
        "engine.commit", "ledger.op", "service.step", "service.submit",
        "stream.run",
    },
}


class Tracer:
    """In-memory span recorder.  Root spans are the benchmark's own
    operations (:meth:`op`); layer spans nest under them."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def op(self, name: str):
        """A root span: one timed operation of the workload."""
        return self.span("op." + name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return dict(totals)

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            totals[name] += 1
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")


# -- counters recorded at the same boundaries as the spans -------------

def _count_evaluations(tracer, call, args, kwargs):
    stats = args[0].stats
    before = stats.total_evaluations
    result = call()
    tracer.count("selection.evaluations", stats.total_evaluations - before)
    return result


def _count_update_family(tracer, call, args, kwargs):
    tracer.count("update.groups_updated")
    return call()


def _count_staged(tracer, call, args, kwargs):
    result = call()
    tracer.count("update.groups_updated", len(result[0]))
    return result


def _count_append(tracer, call, args, kwargs):
    path = args[0] if args else kwargs["path"]
    before = os.path.getsize(path) if os.path.exists(path) else 0
    result = call()
    tracer.count("serialization.appends")
    tracer.count("serialization.bytes", os.path.getsize(path) - before)
    return result


def _count_pool(tracer, call, args, kwargs):
    pool = args[0]
    if not pool._closed:  # close() is idempotent; count each pool once
        stats = pool.transport_stats()
        tracer.count(
            "engine.transport_bytes",
            stats["bytes_sent"] + stats["bytes_received"]
            + stats["init_bytes_total"] + stats["shared_payload_bytes"],
        )
        supervision = pool.supervisor_stats()
        tracer.count(
            "engine.recoveries",
            supervision["restarts"] + supervision["reexecuted_commands"]
            + supervision["failovers"],
        )
    return call()


def _count_step(tracer, call, args, kwargs):
    result = call()
    if result is not None:
        tracer.count("service.rounds")
    return result


def _count_submit(tracer, call, args, kwargs):
    from repro.service import ServiceSaturatedError

    try:
        return call()
    except ServiceSaturatedError:
        tracer.count("service.rejected")
        raise


def _count_events(tracer, call, args, kwargs):
    campaign = args[0]
    before = campaign.stats()["cursor"]
    result = call()
    tracer.count("stream.events", campaign.stats()["cursor"] - before)
    return result


#: Counters wrapped around the span, keyed by (span name, attribute).
#: Their own cost lands in the parent span, not in the layer's time.
COUNTERS = {
    ("selection.select", "select"): _count_evaluations,
    ("update.apply", "update_with_family"): _count_update_family,
    ("update.apply", "stage_partial_updates"): _count_staged,
    ("serialization.append", "append_journal_record"): _count_append,
    ("engine.teardown", "close"): _count_pool,
    ("service.step", "step"): _count_step,
    ("service.submit", "submit"): _count_submit,
    ("stream.run", "run"): _count_events,
}


def _wrap(tracer: Tracer, name: str, attr: str, fn):
    counter = COUNTERS.get((name, attr))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        def call():
            with tracer.span(name):
                return fn(*args, **kwargs)

        if counter is None:
            return call()
        return counter(tracer, call, args, kwargs)

    return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every wrapper in :data:`PATCHES`; restore on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr, kind in PATCHES:
            target = _resolve(owner)
            if kind == "function":
                original = getattr(target, attr)
                wrapper = _wrap(tracer, name, attr, original)
                for module_name, module in list(sys.modules.items()):
                    if not (module_name == "repro"
                            or module_name.startswith("repro.")):
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, binding, original))
                            setattr(module, binding, wrapper)
            else:
                original = target.__dict__[attr]
                function = (
                    original.__func__ if kind == "classmethod" else original
                )
                wrapper = _wrap(tracer, name, attr, function)
                undo.append((target, attr, original))
                setattr(
                    target, attr,
                    classmethod(wrapper) if kind == "classmethod" else wrapper,
                )
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """The per-layer metrics of :data:`LAYER_METRICS` (except the
    workload-level ones the caller fills in), per operation."""
    selfs = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts

    def s(name):
        return selfs.get(name, 0.0) / operations

    def n(value):
        return value / operations

    wall = sum(end - start for _name, start, end, parent in tracer.spans
               if parent < 0)
    layer_self = sum(v for k, v in selfs.items() if not k.startswith("op."))
    return {
        "aggregation.fit_s": s("aggregation.fit"),
        "aggregation.fit_calls": n(calls.get("aggregation.fit", 0)),
        "grouping.init_s": s("grouping.init"),
        "selection.select_s": s("selection.select"),
        "selection.evaluations": n(counts["selection.evaluations"]),
        "update.apply_s": s("update.apply"),
        "update.groups_updated": n(counts["update.groups_updated"]),
        "hc.bookkeeping_s": s("hc.bookkeeping"),
        "hc.run_s": s("hc.run"),
        "sources.collect_s": s("sources.collect"),
        "resilient.run_s": s("resilient.run") + s("resilient.restore"),
        "serialization.append_s": s("serialization.append"),
        "serialization.appends": n(counts["serialization.appends"]),
        "serialization.bytes": n(counts["serialization.bytes"]),
        "serialization.read_s": s("serialization.read"),
        "serialization.trim_s": s("serialization.trim"),
        "storage.recover_s": s("storage.recover"),
        "engine.startup_s": s("engine.startup"),
        "engine.teardown_s": s("engine.teardown"),
        "engine.select_s": s("engine.select"),
        "engine.commit_s": s("engine.commit"),
        "engine.transport_bytes": n(counts["engine.transport_bytes"]),
        "engine.recoveries": n(counts["engine.recoveries"]),
        "ledger.ops": n(calls.get("ledger.op", 0)),
        "ledger.s": s("ledger.op"),
        "service.step_s": s("service.step"),
        "service.submit_s": s("service.submit"),
        "service.rounds": n(counts["service.rounds"]),
        "service.rejected": n(counts["service.rejected"]),
        "stream.run_s": s("stream.run"),
        "stream.events": n(counts["stream.events"]),
        "unattributed.share": (wall - layer_self) / wall if wall else 0.0,
    }


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    """Wrappers the workload should have fired but never did."""
    return sorted(EXPECTED_SPANS[workload] - set(tracer.calls()))
