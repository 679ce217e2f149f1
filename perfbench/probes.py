"""Which public entry points the traced run wraps, and the per-layer metrics
derived from the spans and counts they record.

Every ``*_s`` step metric is a self time (span minus its child spans) summed
over the spans under ``step`` roots and divided by the number of traced
steps, so the step metrics plus ``other_s`` add up to ``trace.step_s.mean``.
Set-up metrics (``builder.fit_s``, ``bitflip.trainer_s``) are whole span
durations per set-up, ``quantization.qat_epoch_s`` is whole QAT duration per
epoch, and ``eval.evaluate_s`` is the whole ``evaluate`` root per call.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.baselines.der import DER, DERpp
from repro.core import bitflip
from repro.core.bitflip import BitFlipCalibrator, BitFlipNetwork, BitFlipTrainer
from repro.core.qcore_builder import QCoreBuilder
from repro.core.update import QCoreUpdater
from repro.fleet.calibrator import FleetCalibrator
from repro.fleet.store import DeviceStateStore
from repro.models.inception_time import InceptionTimeSurrogate
from repro.models.mlp import MLPClassifier
from repro.nn.kernels.base import ConvKernel
from repro.nn.layers import BatchNorm, Conv1d, Dense
from repro.quantization import calibration
from repro.quantization.qmodel import QuantizedModel

from tracing import Probe, Tracer, roots, self_times

# Root span names the benchmark opens around its own calls.
STEP, EVALUATE, SETUP = "step", "evaluate", "setup"


def _backbone(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    tracer.count("backbone_forwards")
    tracer.count("backbone_examples", len(args[1]))
    return result


def _pool(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    tracer.count("pool_examples", len(result))
    return result


def _observer(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    tracker, callback = result

    def observe(*call_args: Any, **call_kwargs: Any) -> Any:
        return tracer.call("update.observe", callback, call_args, call_kwargs)

    return tracker, observe


def _stats(args: tuple, kwargs: dict) -> Any:
    return args[4] if len(args) > 4 else kwargs["stats"]


def _reverts_before(args: tuple, kwargs: dict) -> int:
    return _stats(args, kwargs).reverted_epochs


def _calibration_step(tracer: Tracer, args: tuple, kwargs: dict, result: Any, reverts: int) -> Any:
    stats = _stats(args, kwargs)
    reverted = stats.reverted_epochs > reverts
    flips = stats.flips_per_epoch[-1]
    tracer.count("flips_applied", flips)
    # An epoch that proposed flips either kept them or paid a revert.
    if reverted or flips:
        tracer.count("epochs_attempted")
    if flips and not reverted:
        tracer.count("epochs_accepted")
    return result


def _bf_forward(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    tracer.count("bf_forwards")
    return result


_QAT_SIGNATURE = inspect.signature(calibration.calibrate_with_backprop)


def _qat(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    bound = _QAT_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.count("qat_epochs", bound.arguments["epochs"])
    return result


def _store_write(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _: Any) -> Any:
    tracer.count("store_writes")
    return result


STORE_WRITES = (
    "register_device", "quarantine_device", "create_round", "set_round_status",
    "init_device_round", "mark_running", "mark_done", "mark_failed", "mark_quarantined",
)

PROBES: Sequence[Probe] = (
    Probe(InceptionTimeSurrogate, "forward", "nn.backbone_forward", after=_backbone),
    Probe(MLPClassifier, "forward", "nn.backbone_forward", after=_backbone),
    Probe(Conv1d, "forward", "nn.conv_forward"),
    Probe(ConvKernel, "im2col_1d", "nn.im2col"),
    Probe(Conv1d, "backward", "nn.conv_backward"),
    Probe(BatchNorm, "forward", "nn.batchnorm"),
    Probe(Dense, "forward", "nn.dense_forward"),
    Probe(QuantizedModel, "forward", "quantization.forward"),
    Probe(QuantizedModel, "predict", "quantization.forward"),
    Probe(QuantizedModel, "evaluate", "quantization.forward"),
    Probe(QuantizedModel, "sync", "quantization.sync"),
    Probe(QuantizedModel, "apply_flips", "quantization.flip_apply"),
    Probe(QuantizedModel, "snapshot_codes", "quantization.flip_apply"),
    Probe(QuantizedModel, "restore_codes", "quantization.flip_apply"),
    Probe(calibration, "calibrate_with_backprop", "quantization.qat", after=_qat),
    Probe(BitFlipCalibrator, "begin_calibration", "bitflip.begin"),
    Probe(bitflip, "extract_parameter_features_fused", "bitflip.features"),
    # The BF network's own conv/dense layers are part of BF inference, not of
    # the backbone: the span is opaque.
    Probe(BitFlipNetwork, "predict_flips_with_confidence", "bitflip.bf_infer",
          opaque=True, after=_bf_forward),
    Probe(BitFlipCalibrator, "calibration_step", "bitflip.step",
          before=_reverts_before, after=_calibration_step),
    Probe(QCoreUpdater, "build_pool", "update.build_pool", after=_pool),
    Probe(QCoreUpdater, "make_observer", "update.make_observer", after=_observer),
    Probe(QCoreUpdater, "observe_and_resample", "update.resample"),
    Probe(QCoreBuilder, "build_during_training", "builder.fit"),
    Probe(BitFlipTrainer, "train", "bitflip.trainer"),
    Probe(DER, "adapt", "baselines.adapt"),
    Probe(DERpp, "adapt", "baselines.adapt"),
    Probe(FleetCalibrator, "calibrate", "fleet.calibrate"),
    *(Probe(DeviceStateStore, name, "fleet.store", after=_store_write) for name in STORE_WRITES),
)

#: Per-step self times: metric name -> span name.
STEP_SELF_TIMES = {
    "nn.backbone_self_s": "nn.backbone_forward",
    "nn.conv_forward_s": "nn.conv_forward",
    "nn.im2col_s": "nn.im2col",
    "nn.conv_backward_s": "nn.conv_backward",
    "nn.batchnorm_s": "nn.batchnorm",
    "nn.dense_forward_s": "nn.dense_forward",
    "quantization.forward_s": "quantization.forward",
    "quantization.sync_s": "quantization.sync",
    "quantization.flip_apply_s": "quantization.flip_apply",
    "bitflip.begin_s": "bitflip.begin",
    "bitflip.features_s": "bitflip.features",
    "bitflip.bf_infer_s": "bitflip.bf_infer",
    "bitflip.step_s": "bitflip.step",
    "update.observe_s": "update.observe",
    "update.resample_s": "update.resample",
    "baselines.adapt_self_s": "baselines.adapt",
    "fleet.calibrate_s": "fleet.calibrate",
    "fleet.store_s": "fleet.store",
}

#: Per-step counts: metric name -> counter key.
STEP_COUNTS = {
    "nn.backbone_forwards": "backbone_forwards",
    "nn.backbone_forward_examples": "backbone_examples",
    "bitflip.flips_applied": "flips_applied",
    "update.pool_examples": "pool_examples",
    "fleet.bf_forward_calls": "bf_forwards",
    "fleet.store_writes": "store_writes",
}

#: Whole durations per set-up: metric name -> span name.
SETUP_TOTALS = {
    "builder.fit_s": "builder.fit",
    "bitflip.trainer_s": "bitflip.trainer",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, untraced_step_s: Sequence[float], traced_step_s: Sequence[float]
) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``untraced_step_s`` / ``traced_step_s`` are the step timings of the
    untraced and traced steps the run interleaved; their medians give the
    tracing overhead.
    """
    spans = tracer.spans
    own = self_times(spans)
    root_of = roots(spans)
    steps = sum(1 for span in spans if span[3] is None and span[0] == STEP)
    setups = sum(1 for span in spans if span[3] is None and span[0] == SETUP)
    evaluates: List[float] = [
        span[2] - span[1] for span in spans if span[3] is None and span[0] == EVALUATE
    ]

    step_self: Dict[str, float] = {}
    setup_total: Dict[str, float] = {}
    step_total = 0.0
    qat_total = 0.0
    for index, span in enumerate(spans):
        root_name = spans[root_of[index]][0]
        name = span[0]
        if index == root_of[index] and name == STEP:
            step_total += span[2] - span[1]
        elif root_name == STEP:
            step_self[name] = step_self.get(name, 0.0) + own[index]
        if root_name == SETUP:
            setup_total[name] = setup_total.get(name, 0.0) + span[2] - span[1]
        if name == "quantization.qat":
            qat_total += span[2] - span[1]

    def step_count(key: str) -> float:
        return tracer.counts.get((STEP, key), 0.0)

    metrics: Dict[str, float] = {}
    attributed = 0.0
    for metric, span_name in STEP_SELF_TIMES.items():
        value = step_self.get(span_name, 0.0)
        attributed += value
        metrics[metric] = _ratio(value, steps)
    metrics["other_s"] = _ratio(step_total - attributed, steps)
    for metric, key in STEP_COUNTS.items():
        metrics[metric] = _ratio(step_count(key), steps)
    metrics["bitflip.accept_ratio"] = _ratio(
        step_count("epochs_accepted"), step_count("epochs_attempted")
    )
    metrics["fleet.dedupe_ratio"] = _ratio(step_count("groups"), step_count("devices"))
    for metric, span_name in SETUP_TOTALS.items():
        metrics[metric] = _ratio(setup_total.get(span_name, 0.0), setups)
    qat_epochs = sum(value for (_, key), value in tracer.counts.items() if key == "qat_epochs")
    metrics["quantization.qat_epoch_s"] = _ratio(qat_total, qat_epochs)
    metrics["eval.evaluate_s"] = _ratio(sum(evaluates), len(evaluates))
    metrics["trace.step_s.mean"] = _ratio(step_total, steps)
    traced_p50 = float(np.percentile(traced_step_s, 50))
    untraced_p50 = float(np.percentile(untraced_step_s, 50))
    metrics["trace.step_s.p50"] = traced_p50
    metrics["trace.untraced_step_s.p50"] = untraced_p50
    metrics["trace.overhead"] = _ratio(traced_p50, untraced_p50)
    return metrics
