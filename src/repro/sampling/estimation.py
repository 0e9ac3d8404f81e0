"""Inferring traffic statistics from sampled traces (Section 5.2).

Sampling biases every statistic computed downstream; the paper cites three
remedies implemented here:

* **naive inflation** -- multiply sampled counts by the inverse sampling
  rate, unbiased for totals but very noisy per flow;
* **SYN counting** [Duffield, Lund, Thorup 2003] -- count sampled SYN packets
  and inflate, which estimates the *number of flows* much better than
  counting distinct flow ids in the sampled trace (most mice leave no packet
  at all in the sample);
* **Bayesian elephant identification** [Mori et al. 2004] -- the posterior
  probability that a flow showing ``y`` sampled packets had at least ``x``
  packets originally, under binomial thinning and a given prior on flow
  sizes.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from repro.sampling.flows import FlowTrace


def estimate_total_packets(sampled: FlowTrace, sampling_rate: float) -> float:
    """Naive unbiased estimate of the total packet count of the original trace."""
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must lie in (0, 1]")
    return len(sampled) / sampling_rate


def estimate_flow_count_from_syn(sampled: FlowTrace, sampling_rate: float) -> float:
    """Estimate the number of flows by inflating the sampled SYN count.

    Every flow contributes exactly one SYN packet, and each SYN survives
    sampling with probability ``sampling_rate``, so the sampled SYN count
    divided by the rate is an unbiased estimator of the flow count -- unlike
    the number of distinct flow identifiers seen in the sample.
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must lie in (0, 1]")
    return sampled.syn_count() / sampling_rate


def _binomial_pmf(successes: int, trials: int, probability: float) -> float:
    if successes > trials or successes < 0:
        return 0.0
    return (
        math.comb(trials, successes)
        * probability**successes
        * (1.0 - probability) ** (trials - successes)
    )


def bayesian_elephant_probability(
    sampled_packets: int,
    sampling_rate: float,
    elephant_threshold: int,
    size_prior: Mapping[int, float],
) -> float:
    """Posterior probability that a flow is an elephant given its sampled size.

    Implements the Bayes-theorem approach of [Mori et al. 2004]: with
    ``P(original size = x)`` given by ``size_prior`` and binomial thinning at
    rate ``sampling_rate``,

    ``P(x >= threshold | y sampled) =
      sum_{x >= threshold} P(y | x) P(x) / sum_x P(y | x) P(x)``.

    Parameters
    ----------
    sampled_packets:
        Number of packets of the flow observed in the sampled trace.
    sampling_rate:
        Per-packet sampling probability.
    elephant_threshold:
        Packet count from which a flow is called an elephant.
    size_prior:
        Prior distribution of original flow sizes (needs not be normalised).
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must lie in (0, 1]")
    if sampled_packets < 0:
        raise ValueError("sampled_packets must be non-negative")
    if elephant_threshold < 1:
        raise ValueError("elephant_threshold must be at least 1")
    if not size_prior:
        raise ValueError("size_prior must not be empty")

    numerator = 0.0
    denominator = 0.0
    for size, prior in size_prior.items():
        if prior <= 0:
            continue
        likelihood = _binomial_pmf(sampled_packets, size, sampling_rate)
        term = likelihood * prior
        denominator += term
        if size >= elephant_threshold:
            numerator += term
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def classify_flows(
    sampled: FlowTrace,
    sampling_rate: float,
    elephant_threshold: int,
    size_prior: Mapping[int, float],
    probability_threshold: float = 0.5,
) -> Dict[int, bool]:
    """Classify every sampled flow as elephant (True) or mouse (False).

    A flow is declared an elephant when its posterior elephant probability
    (:func:`bayesian_elephant_probability`) exceeds ``probability_threshold``.
    Flows absent from the sampled trace are necessarily absent from the
    output -- the very identification problem the paper highlights.
    """
    if not 0.0 < probability_threshold < 1.0:
        raise ValueError("probability_threshold must lie in (0, 1)")
    verdicts: Dict[int, bool] = {}
    for flow_id, observed in sampled.flow_sizes().items():
        probability = bayesian_elephant_probability(
            observed, sampling_rate, elephant_threshold, size_prior
        )
        verdicts[flow_id] = probability >= probability_threshold
    return verdicts
