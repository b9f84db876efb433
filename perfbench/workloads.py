"""The benchmark's workloads: inputs, one timed operation, checks.

Every workload is closed-loop: the next operation starts when the
previous one has returned.  Experts answer through
``KeyedExpertPanel(latency=0)``, so the numbers are compute, never
simulated sleep.  Inputs come from the benchmark's ``--seed`` alone;
the program only ever sees the generated datasets.

* ``campaign-large`` -- ``run_hc_session`` on 1280 groups x 8 facts,
  EBCC init, no journal: aggregation, selection, update and per-round
  bookkeeping, with no journal, transport or service work.  It is the
  side that journal and shard changes bypass.
* ``campaign-journaled`` -- ``run_hc_session`` on 160 x 8 with MV init
  and a v8 journal, then the journal cut at its byte midpoint and
  finished with ``ResilientCheckingSession.resume(...).run(...)``.
  Journal writes dominate the campaign; journal reads the resume.
* ``service-sharded`` -- one ``CampaignService`` wave: 8 process-sharded
  batch campaigns over 3 weighted tenants, one streamed tenant under
  delivery chaos, and a burst the ledger must refuse.  Pool startup,
  transport, scheduling, admission, ledger and stream runtime work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import shutil
import time
from pathlib import Path

from repro.datasets import WorkerPoolSpec
from repro.datasets.synthetic import make_synthetic_dataset
from repro.engine import KeyedExpertPanel, run_parallel_hc_session
from repro.engine.ledger import LedgerDriftError
from repro.service import (
    CampaignService,
    CampaignSpec,
    CampaignStatus,
    ServicePolicy,
    ServiceSaturatedError,
    TenantQuota,
)
from repro.simulation.resilient import ResilientCheckingSession
from repro.simulation.session import SessionConfig, run_hc_session
from repro.storage.integrity import verify_journal
from repro.stream import (
    StreamChaos,
    StreamingCampaign,
    StreamSpec,
    generate_event_stream,
    make_arrivals,
)

EXPERTS = 8
POOL = WorkerPoolSpec(num_preliminary=30, num_expert=EXPERTS)


def digest(result) -> str:
    """Selections, budget trajectory and belief bytes of a run."""
    hasher = hashlib.sha256()
    for record in result.history:
        hasher.update(repr((tuple(record.query_fact_ids),
                            record.budget_spent)).encode())
    for state in result.belief:
        hasher.update(state.probabilities.tobytes())
    return hasher.hexdigest()


def _dataset(num_groups: int, group_size: int, seed: int):
    dataset = make_synthetic_dataset(
        num_groups=num_groups,
        group_size=group_size,
        answers_per_fact=6,
        pool=POOL,
        seed=seed,
    )
    if len(dataset.split_crowd(0.9)[0]) != EXPERTS:
        raise RuntimeError(f"dataset seed {seed} lost an expert")
    return dataset


class StampedPanel(KeyedExpertPanel):
    """The simulated expert crowd, noting when each round asks it.

    The gaps between successive asks (and from the last ask to the
    campaign's end) are the campaign's round latencies."""

    def __init__(self, ground_truth, seed: int):
        super().__init__(ground_truth, seed=seed, latency=0.0)
        self.asked_at: list[float] = []

    def collect(self, query_fact_ids, experts):
        self.asked_at.append(time.perf_counter())
        return super().collect(query_fact_ids, experts)

    def round_seconds(self, ended: float) -> list[float]:
        marks = self.asked_at + [ended]
        return [later - earlier for earlier, later in zip(marks, marks[1:])]


class Workload:
    """One operation per :meth:`run_once` call.  A sample reports the
    timed seconds of each part, per-campaign latencies, round
    latencies, accuracies, a result digest and any check failures."""

    name = ""
    #: Modules whose import is this workload's set-up.
    imports = (
        "repro.simulation.session",
        "repro.engine",
        "repro.simulation.resilient",
        "repro.storage.integrity",
    )
    #: Extra set-up statements, timed after the imports.
    setup_statements = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def timed(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(name)

    def run_once(self) -> dict:
        raise NotImplementedError

    def final_errors(self, samples: list[dict]) -> list[str]:
        """Checks made once per run, outside the timed region."""
        digests = {sample["digest"] for sample in samples}
        if len(digests) != 1:
            return [f"{len(digests)} different results across repeats"]
        return []


class CampaignLarge(Workload):
    name = "campaign-large"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.dataset = _dataset(1280, 8, seed)
        self.config = SessionConfig(
            budget=3072.0, k=64, seed=seed, initializer="EBCC"
        )

    def run_once(self) -> dict:
        panel = StampedPanel(self.dataset.ground_truth, self.seed)
        with self.timed("campaign"):
            started = time.perf_counter()
            result = run_hc_session(
                self.dataset, self.config, answer_source=panel
            )
            ended = time.perf_counter()
        return {
            "timed_s": ended - started,
            "campaign_s": [ended - started],
            "round_s": panel.round_seconds(ended),
            "accuracy": [result.history[-1].accuracy],
            "digest": digest(result),
            "attempted": 1,
            "errors": [],
        }

    def final_errors(self, samples):
        errors = super().final_errors(samples)
        reference = run_parallel_hc_session(
            self.dataset,
            self.config,
            answer_source=KeyedExpertPanel(
                self.dataset.ground_truth, seed=self.seed
            ),
            jobs=1,
            inline=True,
        )
        if digest(reference) != samples[0]["digest"]:
            errors.append("run_hc_session differs from "
                          "run_parallel_hc_session(jobs=1, inline=True)")
        return errors


class CampaignJournaled(Workload):
    name = "campaign-journaled"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.dataset = _dataset(160, 8, seed)
        self.full = workdir / "campaign.jsonl"
        self.cut = workdir / "resumed.jsonl"
        self.config = SessionConfig(
            budget=768.0, k=16, seed=seed, initializer="MV",
            journal_path=self.full,
        )

    def run_once(self) -> dict:
        for path in (self.full, self.cut):
            path.unlink(missing_ok=True)
        panel = StampedPanel(self.dataset.ground_truth, self.seed)
        with self.timed("campaign"):
            started = time.perf_counter()
            result = run_hc_session(
                self.dataset, self.config, answer_source=panel
            )
            ended = time.perf_counter()
        journal = self.full.read_bytes()
        self.cut.write_bytes(journal[: len(journal) // 2])
        with self.timed("resume"):
            resume_started = time.perf_counter()
            session = ResilientCheckingSession.resume(self.cut)
            resumed = session.run(
                KeyedExpertPanel(self.dataset.ground_truth, seed=self.seed)
            )
            resume_ended = time.perf_counter()
        errors = []
        if self.cut.read_bytes() != journal:
            errors.append("resumed journal differs from the uninterrupted one")
        if digest(resumed) != digest(result):
            errors.append("resumed result differs from the uninterrupted one")
        return {
            "timed_s": (ended - started) + (resume_ended - resume_started),
            "campaign_s": [ended - started],
            "round_s": panel.round_seconds(ended),
            "accuracy": [result.history[-1].accuracy],
            "digest": digest(result),
            "resume_s": resume_ended - resume_started,
            "journal_bytes": len(journal),
            "attempted": 2,
            "errors": errors,
        }

    def final_errors(self, samples):
        errors = super().final_errors(samples)
        report = verify_journal(self.cut)
        if not report.clean:
            errors.append(f"verify_journal on the resumed journal: {report}")
        return errors


class ServiceSharded(Workload):
    name = "service-sharded"
    imports = Workload.imports + ("repro.service", "repro.stream")
    setup_statements = (
        "from repro.service import CampaignService, ServicePolicy\n"
        "CampaignService(1.0, policy=ServicePolicy(slots=2)).close()\n"
    )

    BATCH = 8
    TENANTS = (("acme", 1.0), ("globex", 2.0), ("initech", 3.0))
    BATCH_BUDGET = float(EXPERTS * 4 * 14)  # k=4: 14 rounds
    STREAM_BUDGET = float(EXPERTS * 12)
    BURST = 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.batch = []
        for index in range(self.BATCH):
            tenant, _weight = self.TENANTS[index % len(self.TENANTS)]
            self.batch.append((
                tenant,
                f"batch-{index}",
                _dataset(40, 8, seed * 100 + index),
                # MV init: the wave measures hosting, not aggregation.
                SessionConfig(
                    budget=self.BATCH_BUDGET, k=4, seed=seed + index,
                    initializer="MV",
                ),
            ))
        self.stream_dataset = _dataset(10, 3, seed * 100 + 99)
        self.stream = StreamSpec(
            rate=50.0, votes_per_fact=3, group_size=3, target_votes=2,
            churn=0.1, seed=seed,
            chaos=StreamChaos(
                reorder=0.15, duplicate=0.1, stall=0.05, drop=0.02, seed=seed
            ),
        )
        self.stream_config = SessionConfig(
            budget=self.STREAM_BUDGET, k=1, seed=seed
        )
        self.waves = 0

    def _specs(self):
        specs = [
            CampaignSpec(
                tenant=tenant, name=name, dataset=dataset, config=config,
                jobs=2, inline=False,
                source_factory=_keyed_source,
            )
            for tenant, name, dataset, config in self.batch
        ]
        specs.append(CampaignSpec(
            tenant="stream", name="live", dataset=self.stream_dataset,
            config=self.stream_config, stream=self.stream,
        ))
        return specs

    def _burst(self):
        tenant, _name, dataset, config = self.batch[0]
        return [
            CampaignSpec(
                tenant="burst", name=f"extra-{index}", dataset=dataset,
                config=config, jobs=2, inline=False,
                source_factory=_keyed_source,
            )
            for index in range(self.BURST)
        ]

    def run_once(self) -> dict:
        self.waves += 1
        root = self.workdir / f"wave-{self.waves}"
        specs = self._specs()
        burst = self._burst()
        deposits = self.BATCH * self.BATCH_BUDGET + self.STREAM_BUDGET
        errors: list[str] = []
        service = CampaignService(
            # 10% headroom: less than one more campaign's deposit.
            deposits * 1.1,
            policy=ServicePolicy(slots=2, queue_limit=32),
            quotas={
                tenant: TenantQuota(weight=weight)
                for tenant, weight in self.TENANTS
            },
            journal_root=root,
        )
        try:
            with self.timed("wave"):
                started = time.perf_counter()
                handles = [service.submit(spec) for spec in specs]
                refused = 0
                for spec in burst:
                    try:
                        service.submit(spec)
                    except ServiceSaturatedError as error:
                        if error.reason != "ledger":
                            raise
                        refused += 1
                finished_at = {}
                while (info := service.step()) is not None:
                    if info["finished"]:
                        finished_at[info["campaign"]] = (
                            time.perf_counter() - started
                        )
                ended = time.perf_counter()
            if refused != self.BURST:
                errors.append(f"ledger refused {refused}/{self.BURST} "
                              "burst submissions")
            failed = 0
            digests = {}
            accuracy = []
            for handle in handles:
                if handle.status is not CampaignStatus.COMPLETED:
                    failed += 1
                    errors.append(f"{handle.campaign_id}: {handle.status}")
                    continue
                result = service.result(handle)
                digests[handle.campaign_id] = digest(result)
                if handle.campaign_id != "stream/live":
                    accuracy.append(result.history[-1].accuracy)
            try:
                service.ledger.audit(strict=True)
            except LedgerDriftError as error:
                errors.append(f"ledger books drifted: {error}")
            stats = service.stats()
            leaked = sum(
                entry["leaked_reservations"]
                for entry in stats["campaigns"].values()
            )
            if leaked or service.ledger.audit():
                errors.append(f"{leaked} leaked ledger reservations")
            latencies = service.round_latencies()
            journal_bytes = sum(
                path.stat().st_size for path in root.rglob("*.jsonl")
            )
        finally:
            service.close()
        if service.ledger.open_reservations:
            errors.append("reservations left open after close()")
        shutil.rmtree(root)
        return {
            "timed_s": ended - started,
            "campaign_s": sorted(finished_at.values()),
            "round_s": latencies,
            "accuracy": accuracy,
            "digest": repr(sorted(digests.items())),
            "campaign_digests": digests,
            "journal_bytes": journal_bytes,
            "refused": refused,
            "attempted": len(specs) + len(burst),
            "failed": failed,
            "errors": errors,
        }

    def final_errors(self, samples):
        errors = super().final_errors(samples)
        solo_root = self.workdir / "solo"
        expected = {}
        for tenant, name, dataset, config in self.batch:
            solo = run_parallel_hc_session(
                dataset,
                _with_journal(config, solo_root / f"{tenant}-{name}.jsonl"),
                answer_source=KeyedExpertPanel(
                    dataset.ground_truth, seed=config.seed
                ),
                jobs=2,
                inline=True,
            )
            expected[f"{tenant}/{name}"] = digest(solo)
        stream = self.stream
        campaign = StreamingCampaign(
            generate_event_stream(
                self.stream_dataset,
                theta=stream.theta,
                votes_per_fact=stream.votes_per_fact,
                arrivals=make_arrivals(stream.arrival, stream.rate),
                seed=stream.seed,
                churn_rate=stream.churn,
                window=stream.window,
            ),
            self.stream_dataset.split_crowd(stream.theta)[0],
            self.STREAM_BUDGET,
            spec=stream,
            journal_path=solo_root / "stream-live.jsonl",
            k=self.stream_config.k,
        )
        campaign.run()
        expected["stream/live"] = digest(campaign.result())
        shutil.rmtree(solo_root)
        for campaign_id, solo_digest in sorted(expected.items()):
            if samples[0]["campaign_digests"].get(campaign_id) != solo_digest:
                errors.append(f"{campaign_id} differs from its solo run")
        return errors


def _keyed_source(spec):
    return KeyedExpertPanel(spec.dataset.ground_truth, seed=spec.config.seed)


def _with_journal(config: SessionConfig, path: Path) -> SessionConfig:
    path.parent.mkdir(parents=True, exist_ok=True)
    return dataclasses.replace(config, journal_path=path)


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignLarge, CampaignJournaled, ServiceSharded)
}
