"""The benchmark's workloads, driven only through the program's public API.

Each workload makes its inputs from a seed, sets up server-side (backbone
training plus ``prepare``, or a fleet deploy plus ``Fleet.replicate``) and
then serves closed-loop steps: one ``adapt`` + ``evaluate`` on a stream
workload, one ``FleetService.submit`` + ``drain`` round on ``fleet-round``.

A run uses several independent streams, each with its own dataset and
set-up.  How much work a QCore step does depends on the data (how many flips
the BF network proposes and the validation keeps), so one stream's step
times swing with its seed; averaging over many streams keeps a run's
figures steady across seeds.  A stream is a ``recurring`` drift scenario
from ``repro.data.scenarios`` that the loop cycles through, so a run can take
as many steps as its time allows.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import nn
from repro.baselines import DERpp
from repro.baselines.base import ContinualMethod
from repro.data import Dataset, DomainDataset, MultiDomainDataset, SyntheticTimeSeriesConfig
from repro.data.scenarios import ScenarioSpec, build_scenario
from repro.data.streams import StreamScenario
from repro.data.synthetic import make_dsa_surrogate
from repro.eval import QCoreMethod
from repro.fleet import DeviceStateStore, Fleet, FleetService
from repro.models.inception_time import InceptionTimeSurrogate
from repro.models.mlp import MLPClassifier
from repro.nn.module import Module
from repro.nn.training import train_classifier
from repro.quantization.qmodel import QuantizedModel

from loop import SpanFactory, Step, no_span
from probes import EVALUATE, STEP

BITS = 4
#: Batches in one pass of a stream; the stream then recurs.
NUM_BATCHES = 6
#: DSA-shaped surrogate (9 channels x 125 steps).  12 training examples per
#: class per target subject give 24-example stream batches (three per
#: subject), the batch size of the repository's Table 9 regeneration (120
#: target examples in 5 batches); 40 test examples per class give
#: 80-example test slices.
DSA = SyntheticTimeSeriesConfig(
    num_classes=6, num_domains=3, channels=9, length=125,
    train_per_class=12, val_per_class=2, test_per_class=40,
    noise_level=0.4, domain_shift=0.5,
)
#: Flat MLP input: 6 channels x 33 spectral bins = 198 inputs, 13,126
#: parameters.  Spectra separate the classes easily, so the MLP streams
#: carry more noise.
FLAT = replace(DSA, channels=6, length=64, noise_level=1.6)
MLP_HIDDEN = (64,)
#: Backbone training as in ``benchmarks/bench_config.train_backbone``.
BACKBONE_EPOCHS = 15
BACKBONE_LR = 0.05
BATCH_SIZE = 32
#: The defaults of ``QCoreMethod`` and of ``ContinualMethod`` (DER++),
#: copied so that the benchmark stays fixed when those defaults change.
QCORE = dict(
    qcore_size=30, levels=(2, 4, 8), train_epochs=12, calibration_epochs=10,
    edge_calibration_epochs=3, lr=0.01, batch_size=BATCH_SIZE, confidence_threshold=0.6,
)
DERPP = dict(
    buffer_size=30, adapt_epochs=5, lr=0.01, batch_size=BATCH_SIZE,
    initial_calibration_epochs=10,
)
#: Per replica of a fleet deployment: it calibrates every c-th round, so the
#: dedupe groups change shape from round to round (the two every-round
#: replicas stay identical and share one group; in round 0 all three do).
FLEET_CADENCES = (1, 1, 3)
#: Rounds per fleet store file; each device-round stores two code snapshots,
#: so a fresh file keeps the store small over a long run.
STORE_ROUNDS = 25


def stream_seed(seed: int, index: int) -> int:
    """Seed of stream ``index`` of a run with seed ``seed`` (disjoint across runs)."""
    return 100 * seed + index


def _flatten(data: MultiDomainDataset) -> MultiDomainDataset:
    """Per-channel magnitude spectra, flattened.

    The surrogate shifts each subject's series in time by a random roll; the
    magnitude spectrum is invariant to it, so a dense network sees the same
    classes in every subject (on raw samples its accuracy swings with the
    seed's roll).
    """

    def flat(split: Dataset) -> Dataset:
        spectra = np.abs(np.fft.rfft(split.features, axis=-1, norm="forward"))
        return Dataset(spectra.reshape(len(split), -1), split.labels, split.num_classes, split.name)

    return MultiDomainDataset(
        data.name,
        {
            name: DomainDataset(domain.domain, flat(domain.train), flat(domain.val), flat(domain.test))
            for name, domain in data.domains.items()
        },
    )


def make_stream(seed: int, flat: bool) -> StreamScenario:
    """A recurring drift stream over the surrogate's two target subjects."""
    data = make_dsa_surrogate(seed, FLAT if flat else DSA)
    if flat:
        data = _flatten(data)
    source, *targets = data.domain_names
    return build_scenario(
        data, ScenarioSpec("recurring", source, tuple(targets), NUM_BATCHES, seed)
    )


def train_backbone(scenario: StreamScenario, flat: bool, seed: int) -> Module:
    """Full-precision training on the stream's source domain."""
    rng = np.random.default_rng(seed)
    train = scenario.source.train
    if flat:
        model: Module = MLPClassifier(train.input_shape[0], train.num_classes, hidden=MLP_HIDDEN, rng=rng)
    else:
        model = InceptionTimeSurrogate(train.input_shape[0], train.num_classes, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=BACKBONE_LR, momentum=0.9),
        train.features, train.labels, epochs=BACKBONE_EPOCHS, batch_size=BATCH_SIZE, rng=rng,
    )
    return model


def prepared_method(method: ContinualMethod, scenario: StreamScenario, flat: bool, seed: int) -> ContinualMethod:
    """Server-side set-up of one stream: backbone training, then ``prepare``."""
    model = train_backbone(scenario, flat, seed)
    method.prepare(scenario.source, model, BITS, rng=np.random.default_rng(seed))
    return method


# ----------------------------------------------------------------- checks
def code_problems(qmodel: QuantizedModel, label: str) -> List[str]:
    """Integer codes that leave their quantizer's ``[qmin, qmax]``."""
    problems = []
    for name, codes in qmodel.snapshot_codes().items():
        config = qmodel.qtensors[name].config
        if codes.size and (codes.min() < config.qmin or codes.max() > config.qmax):
            problems.append(f"{label}: codes of {name} leave [{config.qmin}, {config.qmax}]")
    return problems


def accuracy_problems(accuracy: float) -> List[str]:
    return [] if 0.0 <= accuracy <= 1.0 else [f"accuracy {accuracy} outside [0, 1]"]


def deployed_model(method: ContinualMethod) -> QuantizedModel:
    return method.deployment.qmodel if isinstance(method, QCoreMethod) else method.qmodel


def memory_problems(method: ContinualMethod) -> List[str]:
    """The QCore (or replay buffer) must hold exactly its budget."""
    if isinstance(method, QCoreMethod):
        size, budget = len(method.deployment.qcore), method.deployment.qcore.budget
    else:
        size, budget = len(method.buffer), method.buffer_size
    return [] if size == budget else [f"device memory holds {size} examples, budget {budget}"]


# --------------------------------------------------------------- clients
class StreamClient:
    """One prepared method absorbing one recurring stream."""

    def __init__(self, method: ContinualMethod, scenario: StreamScenario):
        self.method = method
        self.scenario = scenario

    def units(self, index: int) -> int:
        return 1

    def step(self, index: int, span: SpanFactory = no_span) -> Step:
        batch = self.scenario.batches[index % NUM_BATCHES]
        with span(STEP):
            start = time.perf_counter()
            self.method.adapt(batch.data)
            adapted = time.perf_counter()
        with span(EVALUATE):
            accuracy = self.method.evaluate(batch.test)
            evaluated = time.perf_counter()
        return Step(adapted - start, evaluated - adapted, 1, accuracy)

    def check(self, step: Step) -> List[str]:
        return (
            code_problems(deployed_model(self.method), self.method.name)
            + memory_problems(self.method)
            + accuracy_problems(step.accuracy)
        )

    def digest(self) -> str:
        return deployed_model(self.method).codes_digest()

    def close(self) -> None:
        pass


class FleetClient:
    """One ``FleetService`` over every replica of every stream's deployment."""

    def __init__(self, fleets: Sequence[Fleet], scenarios: Sequence[StreamScenario], workdir: Path):
        self.fleet = Fleet()
        self.stream_of: Dict[str, int] = {}
        self.cadence: Dict[str, int] = {}
        for stream, sub in enumerate(fleets):
            for replica, (device_id, deployment) in enumerate(sub.items()):
                self.fleet.register(device_id, deployment)
                self.stream_of[device_id] = stream
                self.cadence[device_id] = FLEET_CADENCES[replica]
        self.leads = [sub.devices()[0] for sub in fleets]
        self.scenarios = list(scenarios)
        self.workdir = workdir
        self.service: FleetService | None = None
        self.store_files = 0
        self.rounds_in_store = 0
        self.last_round: tuple = ()

    def due(self, index: int) -> List[str]:
        return [device for device in self.fleet.ids if index % self.cadence[device] == 0]

    def units(self, index: int) -> int:
        return len(self.due(index))

    def _service(self) -> FleetService:
        if self.service is None or self.rounds_in_store >= STORE_ROUNDS:
            self.close()
            path = self.workdir / f"fleet-{self.store_files}.sqlite"
            self.store_files += 1
            self.service = FleetService(self.fleet, store=DeviceStateStore(path), workers=1)
            self.rounds_in_store = 0
        return self.service

    def step(self, index: int, span: SpanFactory = no_span) -> Step:
        service = self._service()
        due = self.due(index)
        # Each (stream, cadence) class walks its stream at its own pace and
        # calibrates on the batch it has reached; its replicas share a pool.
        classes = {(self.stream_of[device], self.cadence[device]) for device in due}
        batches = {
            (stream, cadence): self.scenarios[stream].batches[(index // cadence) % NUM_BATCHES]
            for stream, cadence in classes
        }
        class_pools = {
            key: self.leads[key[0]].updater.build_pool(self.leads[key[0]].qcore, batch.data)
            for key, batch in batches.items()
        }
        pools = {device: class_pools[(self.stream_of[device], self.cadence[device])] for device in due}
        with span(STEP):
            start = time.perf_counter()
            round_id = service.submit(pools, device_ids=due)
            outcome = service.drain(round_id, pools)
            finished = time.perf_counter()
        self.rounds_in_store += 1
        self.last_round = (due, outcome)
        # Replicas of one class share every state: one of them stands for all.
        representatives = {
            (self.stream_of[device], self.cadence[device]): device for device in due
        }
        with span(EVALUATE):
            accuracies = [
                self.fleet.get(device).evaluate(batches[key].test)
                for key, device in representatives.items()
            ]
        return Step(
            finished - start, 0.0, len(due), float(np.mean(accuracies)),
            facts={"groups": outcome.num_groups, "devices": len(due)},
        )

    def check(self, step: Step) -> List[str]:
        due, outcome = self.last_round
        problems = [f"{device} quarantined" for device in sorted(outcome.quarantined)]
        problems += [
            f"{device} ended the round {outcome.statuses.get(device)!r}"
            for device in due
            if outcome.statuses.get(device) != "done"
        ]
        for device in due:
            problems += code_problems(self.fleet.get(device).qmodel, device)
        return problems + accuracy_problems(step.accuracy)

    def digest(self) -> str:
        digest = hashlib.sha256()
        for device, codes in sorted(self.fleet.codes_digests().items()):
            digest.update(f"{device}={codes};".encode())
        return digest.hexdigest()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -------------------------------------------------------------- workloads
@dataclass(frozen=True)
class StreamWorkload:
    """A continual method on a stream: ``edge-dsa``, ``edge-mlp``, ``bp-dsa``."""

    name: str
    flat: bool
    method: Callable[[int], ContinualMethod]
    streams: int
    #: Steps per client in one pass over its stream.
    first_pass: int = NUM_BATCHES

    def inputs(self, seed: int) -> StreamScenario:
        return make_stream(seed, self.flat)

    def setup(self, scenario: StreamScenario, seed: int) -> ContinualMethod:
        return prepared_method(self.method(seed), scenario, self.flat, seed)

    def clients(self, prepared: Sequence[ContinualMethod], scenarios: Sequence[StreamScenario], workdir: Path) -> List[StreamClient]:
        return [StreamClient(method, scenario) for method, scenario in zip(prepared, scenarios)]


@dataclass(frozen=True)
class FleetWorkload:
    """Calibration rounds over a fleet of QCore MLP replicas: ``fleet-round``."""

    name: str
    streams: int = 6
    #: Rounds until every class has walked its whole stream once.
    first_pass: int = NUM_BATCHES * max(FLEET_CADENCES)

    def inputs(self, seed: int) -> StreamScenario:
        return make_stream(seed, flat=True)

    def setup(self, scenario: StreamScenario, seed: int) -> Fleet:
        method = prepared_method(qcore_method(seed), scenario, True, seed)
        return Fleet.replicate(method.deployment, len(FLEET_CADENCES), prefix=f"s{seed}", seed=seed)

    def clients(self, prepared: Sequence[Fleet], scenarios: Sequence[StreamScenario], workdir: Path) -> List[FleetClient]:
        return [FleetClient(prepared, scenarios, workdir)]


def qcore_method(seed: int) -> QCoreMethod:
    return QCoreMethod(**QCORE, seed=seed)


def derpp_method(seed: int) -> DERpp:
    return DERpp(**DERPP, seed=seed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        StreamWorkload("edge-dsa", flat=False, method=qcore_method, streams=6),
        StreamWorkload("edge-mlp", flat=True, method=qcore_method, streams=9),
        StreamWorkload("bp-dsa", flat=False, method=derpp_method, streams=6),
        FleetWorkload("fleet-round"),
    )
}
