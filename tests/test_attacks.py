"""Tests for trace collection, features and the three attacks.

Attack-accuracy integration tests run at reduced scale (few secrets,
coarse slices, short training) so the suite stays fast; the full-scale
numbers live in the benchmarks.
"""

import hashlib

import numpy as np
import pytest

from repro.attacks import (
    DEFAULT_ATTACK_EVENTS,
    KeystrokeSniffingAttack,
    ModelExtractionAttack,
    TraceCollector,
    WebsiteFingerprintingAttack,
)
from repro.attacks.features import (
    Standardizer,
    downsample_frame_labels,
    downsample_trace,
)
from repro.workloads import DnnWorkload, KeystrokeWorkload, WebsiteWorkload

#: SHA-256 over the traces, frame-label bytes and ``repr`` of the frame
#: classes of three small collected datasets
#: (``test_collected_datasets_pinned``).
PINNED_DATASET_DIGEST = ("29c43dd233abae54a277f379887227460"
                         "268866e893b43179e3e9a6e42bf8658")


class TestCollector:
    def test_trace_shape(self):
        collector = TraceCollector(WebsiteWorkload(), duration_s=1.0,
                                   slice_s=0.01, rng=0)
        trace, _ = collector.collect_one("google.com")
        assert trace.shape == (4, 100)
        assert np.all(trace >= 0)

    def test_dataset_labels(self):
        collector = TraceCollector(KeystrokeWorkload(), duration_s=1.0,
                                   slice_s=0.02, rng=0)
        dataset = collector.collect(3, secrets=[0, 5])
        assert dataset.traces.shape == (6, 4, 50)
        assert dataset.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert dataset.secrets == [0, 5]
        assert dataset.event_names == list(DEFAULT_ATTACK_EVENTS)

    def test_frame_collection(self):
        collector = TraceCollector(DnnWorkload(), duration_s=1.0,
                                   slice_s=0.005, rng=0)
        dataset = collector.collect(2, secrets=["alexnet"],
                                    with_frames=True)
        assert dataset.frame_labels is not None
        assert dataset.frame_labels.shape == (2, 200)
        assert "conv" in dataset.frame_classes

    def test_split_fractions(self):
        collector = TraceCollector(KeystrokeWorkload(), duration_s=0.5,
                                   slice_s=0.01, rng=0)
        dataset = collector.collect(10, secrets=[0, 1])
        train, val = dataset.split(0.7, rng=0)
        assert len(train) == 14 and len(val) == 6
        with pytest.raises(ValueError):
            dataset.split(1.0)

    def test_obfuscator_hook_called(self):
        calls = []

        class SpyObfuscator:
            def obfuscate_matrix(self, matrix, slice_s, rng):
                calls.append(matrix.shape)
                return matrix

        collector = TraceCollector(KeystrokeWorkload(), duration_s=0.5,
                                   slice_s=0.01,
                                   obfuscator=SpyObfuscator(), rng=0)
        collector.collect_one(3)
        assert calls == [(50, 40)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(WebsiteWorkload(), duration_s=0.0)
        collector = TraceCollector(WebsiteWorkload(), duration_s=1.0,
                                   slice_s=0.01, rng=0)
        with pytest.raises(ValueError):
            collector.collect(0)

    def test_window_shorter_than_a_slice_fails_closed(self):
        collector = TraceCollector(WebsiteWorkload(), duration_s=0.0004,
                                   slice_s=0.001, rng=0)
        with pytest.raises(ValueError, match="0.0004.*0.001"):
            collector.collect_one("google.com")

    def test_collected_datasets_pinned(self):
        digest = hashlib.sha256()
        for workload, secrets in (
                (WebsiteWorkload(), ["google.com", "youtube.com"]),
                (KeystrokeWorkload(), [0, 5]),
                (DnnWorkload(), ["alexnet", "resnet18"])):
            collector = TraceCollector(workload, duration_s=1.0,
                                       slice_s=0.005, rng=3)
            dataset = collector.collect(2, secrets=secrets,
                                        with_frames=True)
            digest.update(dataset.traces.tobytes())
            digest.update(dataset.frame_labels.tobytes())
            digest.update(repr(dataset.frame_classes).encode())
        assert digest.hexdigest() == PINNED_DATASET_DIGEST


class TestFeatures:
    def test_standardizer_statistics(self, rng):
        traces = rng.normal(50, 5, (20, 4, 30))
        out = Standardizer().fit_transform(traces)
        assert abs(out.mean()) < 1e-9
        assert out.std(axis=(0, 2)) == pytest.approx(np.ones(4), abs=1e-6)

    def test_standardizer_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            Standardizer().transform(rng.normal(0, 1, (2, 2, 2)))

    def test_downsample_preserves_mean(self, rng):
        traces = rng.normal(0, 1, (3, 2, 40))
        pooled = downsample_trace(traces, 4)
        assert pooled.shape == (3, 2, 10)
        assert pooled.mean() == pytest.approx(traces.mean(), abs=1e-9)

    def test_downsample_factor_one_identity(self, rng):
        traces = rng.normal(0, 1, (2, 2, 8))
        assert downsample_trace(traces, 1) is traces

    def test_frame_label_majority(self):
        labels = np.array([[0, 0, 1, 1, 1, 2]])
        pooled = downsample_frame_labels(labels, 3)
        assert pooled.tolist() == [[0, 1]]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            downsample_trace(rng.normal(0, 1, (2, 2, 8)), 0)
        with pytest.raises(ValueError):
            Standardizer().fit(rng.normal(0, 1, (4, 4)))


class TestWfaIntegration:
    def test_attack_beats_random_guess(self):
        workload = WebsiteWorkload()
        sites = workload.secrets[:4]
        collector = TraceCollector(workload, duration_s=3.0, slice_s=0.02,
                                   rng=1)
        dataset = collector.collect(30, secrets=sites)
        attack = WebsiteFingerprintingAttack(
            num_sites=4, downsample=2, epochs=30, batch_size=16, rng=2)
        result = attack.run(dataset)
        assert result.test_accuracy > 0.6  # random = 0.25
        assert len(result.history.train_loss) == 30

    def test_predict_before_train_raises(self, rng):
        attack = WebsiteFingerprintingAttack(num_sites=4, rng=0)
        with pytest.raises(RuntimeError):
            attack.predict(rng.normal(0, 1, (2, 4, 32)))

    def test_head_validation(self):
        with pytest.raises(ValueError):
            WebsiteFingerprintingAttack(num_sites=4, head="transformer")


class TestKsaIntegration:
    def test_counting_attack_learns(self):
        workload = KeystrokeWorkload()
        collector = TraceCollector(workload, duration_s=3.0, slice_s=0.02,
                                   rng=3)
        dataset = collector.collect(18, secrets=[0, 3, 6, 9])
        attack = KeystrokeSniffingAttack(max_keys=9, downsample=1,
                                         epochs=25, rng=4)
        # Labels in the dataset index the 4 chosen secrets.
        attack.num_classes = 4
        result = attack.run(dataset)
        assert result.test_accuracy > 0.6  # random = 0.25


class TestMeaIntegration:
    def test_sequence_recovery(self):
        workload = DnnWorkload()
        models = ["alexnet", "resnet18", "vgg11", "mobilenet_v2"]
        collector = TraceCollector(workload, duration_s=3.0, slice_s=0.01,
                                   rng=5)
        dataset = collector.collect(6, secrets=models, with_frames=True)
        attack = ModelExtractionAttack(downsample=2, epochs=6, rng=6)
        result = attack.run(dataset)
        # Reduced-scale settings (10 ms slices) merge the shortest
        # layers; the bench runs at 2 ms and reaches ~0.9.
        assert result.test_sequence_accuracy > 0.4
        assert result.frame_accuracy_curve[-1] > 0.8

    def test_requires_frames(self):
        workload = DnnWorkload()
        collector = TraceCollector(workload, duration_s=0.5, slice_s=0.01,
                                   rng=0)
        dataset = collector.collect(2, secrets=["alexnet", "vgg11"])
        attack = ModelExtractionAttack(rng=0)
        with pytest.raises(ValueError, match="frame"):
            attack.train(dataset)
