"""Goodness-of-fit testing via the probability integral transform of order
statistics, with classical benchmark tests, a generalized Rosenblatt
transform, a distribution zoo, and a Monte Carlo power-study harness.
"""

from .classic import (
    EmpiricalNull,
    ad_statistic,
    build_empirical_null,
    classic_test,
    cvm_statistic,
    empirical_p_value,
    ks_statistic,
    lrt_statistic,
    nb_statistic,
)
from .core import OrderedSample, TestVerdict, conditional_os_cdf, pitos_p_value
from .distributions import (
    DistributionSpec,
    ScenarioSampler,
    draw_scenario_distribution,
    zoo_lookup,
)
from .harness import (
    PowerReport,
    RankSummary,
    estimate_power,
    null_pvalue_cdf,
    power_curve,
    scenario_study,
)
from .pairs import PairSequence, generate_pairs, halton
from .rosenblatt import ConditionalLaw, iid_laws, randomized_pit, rosenblatt_transform
from .special import beta_cdf, beta_inv_cdf, log_beta

__version__ = "0.1.0"

__all__ = [
    "ConditionalLaw",
    "DistributionSpec",
    "EmpiricalNull",
    "OrderedSample",
    "PairSequence",
    "PowerReport",
    "RankSummary",
    "ScenarioSampler",
    "TestVerdict",
    "ad_statistic",
    "beta_cdf",
    "beta_inv_cdf",
    "build_empirical_null",
    "classic_test",
    "conditional_os_cdf",
    "cvm_statistic",
    "draw_scenario_distribution",
    "empirical_p_value",
    "estimate_power",
    "generate_pairs",
    "halton",
    "iid_laws",
    "ks_statistic",
    "log_beta",
    "lrt_statistic",
    "nb_statistic",
    "null_pvalue_cdf",
    "pitos_p_value",
    "power_curve",
    "randomized_pit",
    "rosenblatt_transform",
    "scenario_study",
    "zoo_lookup",
]
