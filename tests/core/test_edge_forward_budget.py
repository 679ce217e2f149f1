"""One backbone forward per model state in edge calibration.

Counts the backbone forwards one stream batch costs on every edge path, checks
the one-forward BatchNorm refresh against the k-pass loop it replaces, and
checks that the shared full-pool forward predicts exactly what the chunked
``predict``/``evaluate`` do on a pool larger than their chunk.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from reference.batchnorm import refresh_batchnorm_k_passes
from repro import nn, runtime
from repro.core.bitflip import (
    BitFlipCalibrator,
    BitFlipNetwork,
    FeatureNormalizer,
    extract_parameter_features,
)
from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import Fleet, FleetCalibrator
from repro.models import build_model
from repro.models.inception_time import InceptionTimeSurrogate
from repro.models.mlp import MLPClassifier
from repro.quantization.qmodel import QuantizedModel, quantize_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=8, val_per_class=1, test_per_class=3,
)


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1), dataset.labels,
        num_classes=dataset.num_classes,
    )


def _package(flat: bool):
    """A packaged 4-bit deployment plus a target-domain stream batch."""
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    source = data[data.domain_names[0]].train
    batch = data[data.domain_names[1]].train.subset(np.arange(12))
    if flat:
        source, batch = _flatten(source), _flatten(batch)
        model = build_model("MLP", source.input_shape, 3, rng=np.random.default_rng(0))
    else:
        model = build_model(
            "InceptionTime", source.input_shape, 3, rng=np.random.default_rng(0)
        )
    framework = QCoreFramework(
        levels=(4,), qcore_size=12, train_epochs=3, calibration_epochs=4,
        edge_calibration_epochs=3, confidence_threshold=0.4, seed=0,
    )
    framework.fit(model, source)
    return framework.deploy(bits=4), batch


@pytest.fixture(scope="module")
def inception_package():
    return _package(flat=False)


@pytest.fixture(scope="module")
def mlp_package():
    return _package(flat=True)


def _count_calls(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` so every call records ``(id(self), self.training)``."""
    calls = []
    original = getattr(owner, attr)

    def counting(self, *args, **kwargs):
        calls.append((id(self), getattr(self, "training", None)))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def _forwards(calls, model_id):
    """``(train-mode, eval-mode)`` backbone forwards of one model."""
    modes = Counter(training for owner, training in calls if owner == model_id)
    return modes[True], modes[False]


def _flip_epochs(calls, qmodel):
    """Calibration epochs that proposed flips (each applies them exactly once)."""
    return sum(1 for owner, _ in calls if owner == id(qmodel))


class TestForwardBudget:
    def test_inception_edge_batch(self, inception_package, monkeypatch):
        deployment, batch = inception_package
        deployment = deployment.clone()
        forwards = _count_calls(monkeypatch, InceptionTimeSurrogate, "forward")
        flips = _count_calls(monkeypatch, QuantizedModel, "apply_flips")
        deployment.process_batch(batch)
        flip_epochs = _flip_epochs(flips, deployment.qmodel)
        assert flip_epochs >= 1
        assert _forwards(forwards, id(deployment.qmodel.model)) == (1, 1 + flip_epochs)

    def test_mlp_runs_no_refresh_forward(self, mlp_package, monkeypatch):
        deployment, batch = mlp_package
        deployment = deployment.clone()
        forwards = _count_calls(monkeypatch, MLPClassifier, "forward")
        flips = _count_calls(monkeypatch, QuantizedModel, "apply_flips")
        deployment.process_batch(batch)
        flip_epochs = _flip_epochs(flips, deployment.qmodel)
        assert flip_epochs >= 1
        assert _forwards(forwards, id(deployment.qmodel.model)) == (0, 1 + flip_epochs)

    def test_nobf_predicts_once(self, inception_package, monkeypatch):
        deployment, batch = inception_package
        deployment = deployment.clone()
        deployment.use_bitflip = False
        forwards = _count_calls(monkeypatch, InceptionTimeSurrogate, "forward")
        report = deployment.process_batch(batch)
        assert report["flips_applied"] == 0
        assert _forwards(forwards, id(deployment.qmodel.model)) == (0, 1)

    def test_fleet_process_batches_per_device(self, inception_package, monkeypatch):
        deployment, batch = inception_package
        fleet = Fleet.replicate(deployment, 3, seed=0)
        frozen_id = fleet.ids[-1]
        fleet.get(frozen_id).use_bitflip = False
        forwards = _count_calls(monkeypatch, InceptionTimeSurrogate, "forward")
        flips = _count_calls(monkeypatch, QuantizedModel, "apply_flips")
        FleetCalibrator().process_batches(fleet, {i: batch for i in fleet.ids})
        for device_id, device in fleet.items():
            counts = _forwards(forwards, id(device.qmodel.model))
            if device_id == frozen_id:
                assert counts == (0, 1)
            else:
                flip_epochs = _flip_epochs(flips, device.qmodel)
                assert flip_epochs >= 1
                assert counts == (1, 1 + flip_epochs)


def _batchnorm_layers(qmodel):
    return [layer for layer in qmodel.model.modules() if isinstance(layer, nn.BatchNorm)]


def _random_pool(shape, rows, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        runtime.asarray(rng.normal(size=(rows,) + shape)),
        rng.integers(0, 3, size=rows),
        num_classes=3,
    )


class TestBatchNormReplay:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("passes", [1, 2, 5])
    @pytest.mark.parametrize(
        "name, shape", [("InceptionTime", (3, 16)), ("ResNet18", (3, 8, 8))]
    )
    def test_one_forward_equals_k_passes(self, name, shape, passes, dtype):
        with runtime.use_dtype(dtype):
            qmodel = quantize_model(
                build_model(name, shape, 3, rng=np.random.default_rng(0)), bits=4
            )
            oracle = copy.deepcopy(qmodel)
            pool = _random_pool(shape, 10, seed=1)
            calibrator = BitFlipCalibrator(
                BitFlipNetwork(rng=np.random.default_rng(2)),
                batchnorm_refresh_passes=passes,
            )
            calibrator.begin_calibration(qmodel, pool)
            refresh_batchnorm_k_passes(oracle, pool.features, passes)
        layers = _batchnorm_layers(qmodel)
        assert layers
        for got, want in zip(layers, _batchnorm_layers(oracle)):
            assert got.running_mean.dtype == want.running_mean.dtype == dtype
            np.testing.assert_array_equal(got.running_mean, want.running_mean)
            np.testing.assert_array_equal(got.running_var, want.running_var)

    def test_zero_passes_skip_the_refresh(self, monkeypatch):
        qmodel = quantize_model(
            build_model("InceptionTime", (3, 16), 3, rng=np.random.default_rng(0)),
            bits=4,
        )
        before = [
            (layer.running_mean.copy(), layer.running_var.copy())
            for layer in _batchnorm_layers(qmodel)
        ]
        forwards = _count_calls(monkeypatch, InceptionTimeSurrogate, "forward")
        calibrator = BitFlipCalibrator(
            BitFlipNetwork(rng=np.random.default_rng(2)), batchnorm_refresh_passes=0
        )
        calibrator.begin_calibration(qmodel, _random_pool((3, 16), 10, seed=1))
        assert _forwards(forwards, id(qmodel.model)) == (0, 1)
        for layer, (mean, var) in zip(_batchnorm_layers(qmodel), before):
            np.testing.assert_array_equal(layer.running_mean, mean)
            np.testing.assert_array_equal(layer.running_var, var)


class TestLargePool:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_shared_forward_matches_chunked_predict(self, dtype):
        """A 300-row pool spans two chunks of ``predict``/``evaluate``."""
        with runtime.use_dtype(dtype):
            qmodel = quantize_model(
                build_model("InceptionTime", (3, 16), 3, rng=np.random.default_rng(0)),
                bits=4,
            )
            pool = _random_pool((3, 16), 300, seed=1)
            normalizer = FeatureNormalizer()
            extract_parameter_features(
                qmodel, pool.features[:32], normalizer=normalizer, fit_normalizer=True
            )
            calibrator = BitFlipCalibrator(
                BitFlipNetwork(rng=np.random.default_rng(2)), epochs=3,
                confidence_threshold=0.0, max_flip_fraction=0.05, validate=False,
                normalizer=normalizer,
            )
            _, forward = calibrator.begin_calibration(qmodel, pool)
            assert forward.accuracy == qmodel.evaluate(pool.features, pool.labels)
            np.testing.assert_array_equal(
                forward.predictions, qmodel.predict(pool.features)
            )

            observed = []

            def callback(epoch, qm, predictions):
                observed.append((predictions.copy(), qm.predict(pool.features)))

            stats = calibrator.calibrate(qmodel, pool, epoch_callback=callback)
        assert stats.total_flips > 0
        assert len(observed) == 3
        for predictions, expected in observed:
            np.testing.assert_array_equal(predictions, expected)
