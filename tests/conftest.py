"""Shared test configuration and deterministic sample generators."""

import math
import struct
import warnings

from hypothesis import HealthCheck, settings

# On a failing test, hypothesis's pytest plugin imports this module, which pulls
# in libcst and with it a DeprecationWarning that `filterwarnings = ["error"]`
# would turn into an INTERNALERROR ending the session.  Importing it here, with
# warnings silenced, keeps that filter for every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def unit_draws(seed: int, case: int, count: int) -> list[float]:
    """Deterministic uniforms for test data, independent of hypothesis."""
    from polyrealize.sampler import attempt_unit_draws

    return attempt_unit_draws(seed, case, count)


def bits(values) -> list[bytes]:
    """Each float's 8 bytes: equal lists have equal bits, -0.0 and NaN included."""
    return [struct.pack("d", v) for v in values]


def at_ell(strategy, ell):
    """`strategy` for a config at scale ell: a set narrow_scale (0.05 at ell = 1)
    scales with ell, so it stays below ell."""
    from polyrealize.sampler import Mixture

    if isinstance(strategy, Mixture) and strategy.narrow_scale is not None:
        return Mixture(strategy.narrow_scale * ell, strategy.narrow_fraction)
    return strategy


def q1_spec():
    """The roots of the catalog's degree-5 witness q1: its pair is that of x**2 - 1.97x + 0.977."""
    from polyrealize.polycore import RootSpec

    return RootSpec(
        real_roots=(-0.723, -0.59, -0.48),
        complex_pairs=((0.985, math.sqrt(0.977 - 0.985**2)),),
    )


def reference_draw_count(pos: int, neg: int, npairs: int, strategy, gap: bool = False) -> int:
    """Unit draws per attempt of a pair shape, or, with gap, of npairs gap values.

    A real root takes one draw under Uniform and two (a choice, then its
    position) under the other strategies.  A pair takes two position draws,
    a gap value one, each after a narrow/wide choice under Mixture.
    """
    from polyrealize.sampler import Mixture, Uniform

    per_real = 1 if isinstance(strategy, Uniform) else 2
    per_pair = (1 if gap else 2) + isinstance(strategy, Mixture)
    return per_real * (pos + neg) + per_pair * npairs


def lane_verdicts(kernel, u, b: int) -> list:
    """Every lane's verdict from a kernel that scans a block's lanes itself.

    kernel(u, k, b) returns (j, candidate) for the first lane j >= k that
    passes, or None.  It is called from lane 0, then from each returned lane
    plus one, as the scan calls it; lane j's verdict is its candidate, or
    None for a lane the kernel passed over.
    """
    verdicts = [None] * b
    start, found = 0, kernel(u, 0, b)
    while found is not None:
        j, candidate = found
        assert start <= j < b and candidate is not None, (start, j, b)
        verdicts[j] = candidate
        start, found = j + 1, kernel(u, j + 1, b)
    return verdicts


def random_rootspec(seed: int, case: int, max_degree: int = 8):
    """A random RootSpec with degree <= max_degree, reproducible per (seed, case)."""
    from polyrealize.polycore import RootSpec

    u = unit_draws(seed, case, 3 + 3 * max_degree)
    pos = int(u[0] * (max_degree + 1) / 2)
    neg = int(u[1] * (max_degree + 1 - pos) / 2)
    npairs = int(u[2] * (max_degree - pos - neg) / 2 / 2)
    t = 3
    reals = []
    for _ in range(pos):
        reals.append(1.0 - u[t])
        t += 1
    for _ in range(neg):
        reals.append(-(1.0 - u[t]))
        t += 1
    pairs = []
    for _ in range(npairs):
        pairs.append((2.0 * u[t] - 1.0, 1.0 - u[t + 1]))
        t += 2
    if not reals and not pairs:
        reals = [1.0 - u[t]]
    return RootSpec(real_roots=tuple(reals), complex_pairs=tuple(pairs))


def random_distinct_sorted(seed: int, case: int, n: int, spread: float = 1.0):
    """n strictly increasing reals in [-spread, spread], reproducible."""
    while True:
        u = unit_draws(seed, case, n)
        xs = sorted(spread * (2.0 * x - 1.0) for x in u)
        if all(a < b for a, b in zip(xs, xs[1:])):
            return xs
        case += 1_000_003
