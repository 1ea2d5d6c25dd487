"""Tests for the synthetic guest workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.workloads import (
    ALEXA_SITES,
    DNN_MODELS,
    DnnWorkload,
    InstructionMix,
    KeystrokeWorkload,
    RsaSignWorkload,
    WebsiteWorkload,
)
from repro.workloads.base import Phase, PhaseProgram, idle_mix
from repro.workloads.dnn import Layer, LayerKind


def render_slice_by_slice(program, duration_s, slice_s, rng, baseline=None):
    """Reference renderer: the per-slice walk that ``PhaseProgram.render``
    replaces with one array pass. Both must agree bit for bit."""
    baseline = baseline or idle_mix()
    baseline_rates = baseline.rate_vector()
    num_slices = int(round(duration_s / slice_s))
    timeline = []
    t = 0.0
    for phase in program.phases:
        phase_duration = phase.sample_duration(rng)
        intensity = phase.sample_intensity(rng)
        rates = phase.mix.rate_vector() * intensity
        timeline.append((t, t + phase_duration, rates, phase.name))
        t += phase_duration
    rows = []
    labels = []
    cursor = 0
    for i in range(num_slices):
        start, end = i * slice_s, (i + 1) * slice_s
        signals = baseline_rates * slice_s
        best_overlap = 0.0
        best_name = ""
        while cursor < len(timeline) and timeline[cursor][1] <= start:
            cursor += 1
        j = cursor
        while j < len(timeline) and timeline[j][0] < end:
            ph_start, ph_end, rates, name = timeline[j]
            overlap = min(end, ph_end) - max(start, ph_start)
            if overlap > 0:
                signals = signals + rates * overlap
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_name = name
            j += 1
        signals = signals * max(0.0, rng.normal(1.0, 0.012))
        rows.append(signals)
        labels.append(best_name if best_overlap >= 0.3 * slice_s else "")
    return np.stack(rows), labels


WORKLOADS = {
    "website": WebsiteWorkload(),
    "keystroke": KeystrokeWorkload(),
    "dnn": DnnWorkload(),
    "rsa": RsaSignWorkload(),
}

slice_widths = st.floats(7e-4, 0.04)
windows = st.floats(0.05, 3.0)


@st.composite
def phase_programs(draw, slice_s):
    """Random programs: zero-jitter phases ending on slice boundaries,
    half-slice ties between neighbours and overlaps of exactly the label
    threshold, phases running past the window, and names drawn from a
    small pool so they repeat."""
    phases = []
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(["a", "b", "c", "d"]))
        mix = InstructionMix(ips=draw(st.floats(1e6, 3e9)),
                             load_ratio=draw(st.floats(0.05, 0.5)))
        if draw(st.booleans()):
            duration = draw(st.one_of(
                st.just(0.3 * slice_s),
                st.integers(1, 400).map(lambda k: slice_s * k / 2)))
            phases.append(Phase(name, mix, duration,
                                duration_jitter=0.0, intensity_jitter=0.0))
        else:
            phases.append(Phase(name, mix, draw(st.floats(1e-4, 4.0)),
                                duration_jitter=draw(st.floats(0.0, 0.3)),
                                intensity_jitter=draw(st.floats(0.0, 0.3))))
    return PhaseProgram(phases=phases)


def assert_renders_match(program, duration_s, slice_s, seed, baseline=None):
    ref_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected, expected_labels = render_slice_by_slice(
        program, duration_s, slice_s, ref_rng, baseline)
    signals, labels = program.render(duration_s, slice_s, rng, baseline)
    assert signals.shape == expected.shape
    assert signals.tobytes() == expected.tobytes()
    assert labels == expected_labels
    assert rng.random() == ref_rng.random()


class TestInstructionMix:
    def test_rate_vector_consistency(self):
        mix = InstructionMix(ips=1e9, load_ratio=0.3, store_ratio=0.1)
        rates = mix.rate_vector()
        assert rates[Signal.INSTRUCTIONS] == pytest.approx(1e9)
        assert rates[Signal.L1D_ACCESS] == pytest.approx(
            rates[Signal.LOADS] + rates[Signal.STORES])
        assert rates[Signal.L2_ACCESS] == pytest.approx(
            rates[Signal.L1D_MISS])
        assert rates[Signal.MEM_READS] == pytest.approx(
            rates[Signal.LLC_MISS])

    def test_scaled(self):
        mix = InstructionMix(ips=1e9)
        assert mix.scaled(0.5).ips == pytest.approx(5e8)

    def test_rejects_negative_ips(self):
        with pytest.raises(ValueError):
            InstructionMix(ips=-1.0).rate_vector()


class TestPhaseProgram:
    def test_render_covers_window(self, rng):
        program = PhaseProgram(phases=[
            Phase("a", InstructionMix(ips=1e9), 0.5, duration_jitter=0.0,
                  intensity_jitter=0.0)])
        signals, _ = program.render(1.0, 0.01, rng)
        assert len(signals) == 100
        assert all(row.shape == (NUM_SIGNALS,) for row in signals)

    def test_phase_mass_concentrated_early(self, rng):
        program = PhaseProgram(phases=[
            Phase("a", InstructionMix(ips=1e9), 0.2, duration_jitter=0.0,
                  intensity_jitter=0.0)])
        signals, _ = program.render(1.0, 0.01, rng)
        active = sum(row[Signal.INSTRUCTIONS] for row in signals[:25])
        idle = sum(row[Signal.INSTRUCTIONS] for row in signals[50:])
        assert active > 10 * idle

    def test_phase_labels_align(self, rng):
        program = PhaseProgram(phases=[
            Phase("first", InstructionMix(ips=1e9), 0.3,
                  duration_jitter=0.0, intensity_jitter=0.0),
            Phase("second", InstructionMix(ips=1e9), 0.3,
                  duration_jitter=0.0, intensity_jitter=0.0)])
        _, labels = program.render(1.0, 0.01, rng)
        assert labels[5] == "first"
        assert labels[45] == "second"
        assert labels[90] == ""

    def test_rejects_bad_window(self, rng):
        with pytest.raises(ValueError):
            PhaseProgram().render(0.0, 0.01, rng)

    def test_rejects_window_shorter_than_a_slice(self, rng):
        with pytest.raises(ValueError, match="0.0004.*0.001"):
            PhaseProgram().render(0.0004, 0.001, rng)
        with pytest.raises(ValueError, match="0.0004.*0.001"):
            WebsiteWorkload().generate_signals(
                "google.com", rng, duration_s=0.0004, slice_s=0.001)

    @given(kind=st.sampled_from(sorted(WORKLOADS)), secret=st.integers(0, 99),
           duration_s=windows, slice_s=slice_widths,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_workload_render_matches_slice_by_slice(self, kind, secret,
                                                    duration_s, slice_s,
                                                    seed):
        workload = WORKLOADS[kind]
        secrets = workload.secrets
        program = workload.program_for(secrets[secret % len(secrets)],
                                       np.random.default_rng(seed))
        assert_renders_match(program, duration_s, slice_s, seed)

    @given(data=st.data(), duration_s=windows, slice_s=slice_widths,
           custom_baseline=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_program_render_matches_slice_by_slice(
            self, data, duration_s, slice_s, custom_baseline, seed):
        program = data.draw(phase_programs(slice_s))
        baseline = (InstructionMix(ips=5e7, load_ratio=0.3)
                    if custom_baseline else None)
        assert_renders_match(program, duration_s, slice_s, seed, baseline)


class TestWebsiteWorkload:
    def test_45_sites(self):
        assert len(ALEXA_SITES) == 45
        assert len(WebsiteWorkload().secrets) == 45

    def test_signatures_deterministic(self, rng):
        w1, w2 = WebsiteWorkload(), WebsiteWorkload()
        p1 = w1.program_for("google.com", rng)
        p2 = w2.program_for("google.com", rng)
        assert [(ph.name, ph.mix.ips, ph.duration_s) for ph in p1.phases] \
            == [(ph.name, ph.mix.ips, ph.duration_s) for ph in p2.phases]

    def test_sites_differ(self, rng):
        w = WebsiteWorkload()
        a = w.program_for("google.com", rng)
        b = w.program_for("youtube.com", rng)
        ips_a = [ph.mix.ips for ph in a.phases]
        ips_b = [ph.mix.ips for ph in b.phases]
        assert ips_a != ips_b

    def test_unknown_secret_rejected(self, rng):
        with pytest.raises(ValueError):
            WebsiteWorkload().generate_signals("not-a-site.example", rng)

    def test_blocks_shape(self, rng):
        signals = WebsiteWorkload().generate_signals(
            "google.com", rng, duration_s=1.0, slice_s=0.01)
        assert len(signals) == 100


class TestKeystrokeWorkload:
    def test_secrets_zero_to_nine(self):
        assert KeystrokeWorkload().secrets == list(range(10))

    def test_zero_keys_is_idle(self, rng):
        signals = KeystrokeWorkload().generate_signals(0, rng)
        total = sum(row[Signal.INSTRUCTIONS] for row in signals)
        idle_total = idle_mix().rate_vector()[Signal.INSTRUCTIONS] * 3.0
        assert total == pytest.approx(idle_total, rel=0.25)

    def test_activity_scales_with_keys(self, rng):
        w = KeystrokeWorkload()
        totals = []
        for k in (1, 5, 9):
            signals = w.generate_signals(k, np.random.default_rng(k))
            totals.append(sum(row[Signal.INSTRUCTIONS] for row in signals))
        assert totals[0] < totals[1] < totals[2]

    def test_out_of_range_secret(self, rng):
        with pytest.raises(ValueError):
            KeystrokeWorkload().generate_signals(15, rng)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            KeystrokeWorkload(max_keys=-1)
        with pytest.raises(ValueError):
            KeystrokeWorkload(burst_s=0.0)


class TestDnnWorkload:
    def test_thirty_models(self):
        assert len(DNN_MODELS) == 30
        assert len(DnnWorkload().secrets) == 30

    def test_layer_sequences_distinct(self):
        w = DnnWorkload()
        sequences = {m: tuple(w.layer_sequence(m)) for m in w.secrets}
        assert len(set(sequences.values())) >= 25  # near-all distinct

    def test_resnet_has_residual_adds(self):
        seq = DnnWorkload().layer_sequence("resnet18")
        assert LayerKind.ADD in seq
        assert seq[-1] is LayerKind.FC

    def test_vit_is_attention_based(self):
        seq = DnnWorkload().layer_sequence("vit_b_16")
        assert seq.count(LayerKind.ATTENTION) == 12

    def test_inference_fits_in_window(self):
        w = DnnWorkload()
        longest = max(w.inference_seconds(m) for m in w.secrets)
        assert longest < w.default_duration_s

    def test_unknown_model(self, rng):
        w = DnnWorkload()
        with pytest.raises(KeyError):
            w.layer_sequence("resnet9000")
        with pytest.raises(ValueError):
            w.generate_signals("resnet9000", rng)

    def test_layer_cost_validation(self):
        with pytest.raises(ValueError):
            Layer(LayerKind.CONV, 0.0)

    def test_frame_labels_follow_layers(self, rng):
        w = DnnWorkload()
        _, labels = w.generate_signals_with_phases(
            "alexnet", rng, duration_s=1.0, slice_s=0.005)
        seen = [l for l in labels if l]
        assert "conv" in seen and "fc" in seen
