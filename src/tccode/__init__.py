"""Universal variable-to-fixed length coding with quantized type classes."""

from .models import (
    ExpFamilyModel,
    ModelError,
    bernoulli,
    ternary,
    quaternary,
    get_model,
    load_model,
    save_model,
)
from .qtypes import Grid, TypeCounter, CountingCapError
from .dictionary import (
    Dictionary,
    DictionaryError,
    LeafCapExceeded,
    build_tc_dictionary,
    build_tunstall,
    tc_dictionary,
    choose_gamma,
    choose_gamma_profile,
    tc_leaf_profile,
    gamma_reference,
    load_dictionary,
    save_dictionary,
)
from .converse import FVCode, vf_to_fv, check_event_equivalence
from .normal import gaussian_tail, gaussian_quantile
# The rates names import tccode.rates on first use, so that a command which
# computes no rates does not compile it.
_RATES_NAMES = frozenset({
    "RateDistribution",
    "RateEstimate",
    "AsymptoticPrediction",
    "exact_rate_distribution",
    "profile_rate_distribution",
    "mc_rate_distribution",
    "eps_coding_rate",
    "predicted_rate",
    "normality_deviation",
})


def __getattr__(name):
    if name in _RATES_NAMES:
        from . import rates

        return getattr(rates, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "0.1.0"
