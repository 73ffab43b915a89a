"""Randomized search and exact certification of polynomial realizability.

Monic real polynomials are hunted by rejection sampling over explicit roots
and every reported witness carries an exact-rational certificate: prescribed
coefficient sign patterns with root-count pairs, sign patterns with orders of
root moduli, and critical-point/midpoint gap classes.
"""

from .certifier import (
    Certificate,
    Mismatch,
    certify_couple,
    certify_gap_class,
    exact_expand,
    exact_sign_pattern,
    rationalize,
    rationalize_value,
)
from .concatenation import ConcatResult, Realizer, concat_pairs, extend_large, extend_small
from .criticalgaps import GapReport, critical_points, gap_report, midpoints
from .moduliorders import (
    ForcedConflict,
    ModuliCouple,
    ModuliOrder,
    enumerate_orders,
    forcing_test,
    is_compatible,
    order_from_roots,
    parse_order,
)
from .polycore import RealPolynomial, RootSpec, expand_from_roots
from .sampler import (
    Mixture,
    MultiplicityBias,
    SearchConfig,
    SearchOutcome,
    Uniform,
    draw_rootspec_pair,
    search_gap_class,
    search_moduli,
    search_pair,
)
from .signpatterns import (
    PairCouple,
    RootCountPair,
    SignPattern,
    act_g1,
    act_g2,
    canonical_representative,
    compatible_pairs,
    descartes_pair,
    from_runs,
    orbit,
    parse_pattern,
)
from .sweeps import SweepReport, SweepRow, enumerate_couples, sweep_moduli, sweep_pairs

__version__ = "0.1.0"
