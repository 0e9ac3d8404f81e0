"""Tests for the packet-level sampling substrate (Sections 5.1-5.2)."""

import pytest

from repro.sampling import (
    DistributionSampler,
    FlowTrace,
    Packet,
    ProbabilisticSampler,
    RegularSampler,
    SyntheticTraceConfig,
    TimeBasedSampler,
    bayesian_elephant_probability,
    classify_flows,
    estimate_flow_count_from_syn,
    estimate_total_packets,
    generate_trace,
)


@pytest.fixture(scope="module")
def trace():
    config = SyntheticTraceConfig(num_mice=200, num_elephants=20, duration=30.0)
    return generate_trace(config, seed=42)


class TestFlowTrace:
    def test_generation_counts(self, trace):
        assert trace.num_flows == 220
        assert trace.syn_count() == 220
        assert len(trace) > 220

    def test_mice_and_elephants_sizes(self, trace):
        config = SyntheticTraceConfig(num_mice=200, num_elephants=20)
        sizes = sorted(trace.flow_sizes().values())
        assert sizes[0] <= config.mice_packets[1]
        assert sizes[-1] >= config.elephant_packets[0]

    def test_packets_sorted_by_time(self, trace):
        times = [p.timestamp for p in trace]
        assert times == sorted(times)

    def test_flow_bytes_positive(self, trace):
        assert all(b > 0 for b in trace.flow_bytes().values())

    def test_duration(self):
        empty = FlowTrace([])
        assert empty.duration == 0.0
        two = FlowTrace([Packet(0.0, 1, 100), Packet(5.0, 1, 100)])
        assert two.duration == 5.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(num_mice=0, num_elephants=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mice_packets=(5, 1))
        with pytest.raises(ValueError):
            SyntheticTraceConfig(mean_interarrival=0.0)

    def test_determinism(self):
        config = SyntheticTraceConfig(num_mice=10, num_elephants=2)
        a = generate_trace(config, seed=1)
        b = generate_trace(config, seed=1)
        assert len(a) == len(b)
        assert [p.flow_id for p in a] == [p.flow_id for p in b]


class TestSamplers:
    def test_regular_sampler_rate(self, trace):
        sampler = RegularSampler(period=10)
        sampled = sampler.sample(trace)
        assert sampler.expected_rate == pytest.approx(0.1)
        assert len(sampled) == pytest.approx(len(trace) / 10, abs=1)

    def test_regular_sampler_offset(self):
        packets = [Packet(float(i), 0, 100) for i in range(10)]
        trace = FlowTrace(packets)
        assert len(RegularSampler(period=3, offset=1).sample(trace)) == 3

    def test_regular_sampler_validation(self):
        with pytest.raises(ValueError):
            RegularSampler(period=0)

    def test_probabilistic_sampler_rate(self, trace):
        sampler = ProbabilisticSampler(period=10, seed=0)
        achieved = len(sampler.sample(trace)) / len(trace)
        assert achieved == pytest.approx(0.1, abs=0.03)

    def test_probabilistic_sampler_deterministic_with_seed(self, trace):
        a = ProbabilisticSampler(period=5, seed=3).sample(trace)
        b = ProbabilisticSampler(period=5, seed=3).sample(trace)
        assert len(a) == len(b)

    def test_time_based_sampler_thins_bursts(self):
        # 100 packets in the same millisecond: a 1-second slot keeps only one.
        packets = [Packet(0.001 * i, 0, 100) for i in range(100)]
        trace = FlowTrace(packets)
        sampled = TimeBasedSampler(interval=1.0).sample(trace)
        assert len(sampled) == 1

    def test_time_based_sampler_keeps_spread_packets(self):
        packets = [Packet(float(i), 0, 100) for i in range(10)]
        trace = FlowTrace(packets)
        sampled = TimeBasedSampler(interval=1.0).sample(trace)
        assert len(sampled) >= 5

    def test_distribution_sampler_rates(self, trace):
        for law in ("geometric", "exponential"):
            sampler = DistributionSampler(mean_period=10, law=law, seed=1)
            achieved = len(sampler.sample(trace)) / len(trace)
            assert achieved == pytest.approx(0.1, abs=0.04)

    def test_distribution_sampler_validation(self):
        with pytest.raises(ValueError):
            DistributionSampler(mean_period=0.5)
        with pytest.raises(ValueError):
            DistributionSampler(mean_period=10, law="uniform")

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            TimeBasedSampler(interval=0.0)
        with pytest.raises(ValueError):
            ProbabilisticSampler(period=0.5)


class TestEstimation:
    def test_total_packet_estimate_unbiased_ish(self, trace):
        sampler = RegularSampler(period=10)
        sampled = sampler.sample(trace)
        estimate = estimate_total_packets(sampled, sampling_rate=0.1)
        assert estimate == pytest.approx(len(trace), rel=0.05)

    def test_syn_estimator_beats_naive_flow_count(self, trace):
        sampler = ProbabilisticSampler(period=20, seed=7)
        sampled = sampler.sample(trace)
        syn_estimate = estimate_flow_count_from_syn(sampled, sampling_rate=1 / 20)
        naive = sampled.num_flows
        true_flows = trace.num_flows
        # Mice vanish from the sample, so the naive count underestimates badly;
        # the SYN estimator has the right order of magnitude.
        assert naive < true_flows
        assert abs(syn_estimate - true_flows) <= abs(naive - true_flows) + 25

    def test_estimators_validate_rate(self, trace):
        with pytest.raises(ValueError):
            estimate_total_packets(trace, 0.0)
        with pytest.raises(ValueError):
            estimate_flow_count_from_syn(trace, 1.5)

    def test_bayesian_probability_monotone_in_observations(self):
        prior = {size: 1.0 for size in range(1, 201)}
        low = bayesian_elephant_probability(1, 0.1, elephant_threshold=100, size_prior=prior)
        high = bayesian_elephant_probability(15, 0.1, elephant_threshold=100, size_prior=prior)
        assert 0.0 <= low <= high <= 1.0

    def test_bayesian_probability_bounds_and_validation(self):
        prior = {10: 1.0, 200: 1.0}
        assert bayesian_elephant_probability(0, 0.1, 100, prior) <= 1.0
        with pytest.raises(ValueError):
            bayesian_elephant_probability(1, 0.0, 100, prior)
        with pytest.raises(ValueError):
            bayesian_elephant_probability(-1, 0.1, 100, prior)
        with pytest.raises(ValueError):
            bayesian_elephant_probability(1, 0.1, 0, prior)
        with pytest.raises(ValueError):
            bayesian_elephant_probability(1, 0.1, 100, {})

    def test_classification_identifies_heavy_flows(self, trace):
        config = SyntheticTraceConfig(num_mice=200, num_elephants=20)
        rate = 0.1
        sampled = ProbabilisticSampler(period=1 / rate, seed=5).sample(trace)
        true_sizes = trace.flow_sizes()
        prior = {}
        for size in true_sizes.values():
            prior[size] = prior.get(size, 0.0) + 1.0
        verdicts = classify_flows(
            sampled, rate, elephant_threshold=config.elephant_threshold, size_prior=prior
        )
        true_positives = sum(
            1
            for flow, is_elephant in verdicts.items()
            if is_elephant and true_sizes[flow] >= config.elephant_threshold
        )
        false_positives = sum(
            1
            for flow, is_elephant in verdicts.items()
            if is_elephant and true_sizes[flow] < config.elephant_threshold
        )
        assert true_positives >= 15  # most elephants are recognised
        assert false_positives <= 5

    def test_classification_threshold_validation(self, trace):
        with pytest.raises(ValueError):
            classify_flows(trace, 0.1, 100, {100: 1.0}, probability_threshold=1.0)
