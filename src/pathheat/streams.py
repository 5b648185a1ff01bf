"""Counter-based random streams and the registry of stream kinds.

Every Monte-Carlo sample in this package draws from its own Philox stream,
keyed by the master seed with the sample index placed in the upper half of
the 256-bit counter.  Streams are therefore a pure function of
``(master_seed, index)``: an ensemble partitioned across workers by sample
index reproduces the single-threaded result bit for bit, whatever the
partition.  A caller that opens one stream per sample may pass the previous
sample's generator back as ``into``: :func:`sample_stream` then reseats that
generator at stream (seed, i) instead of building a new one.  Since Philox is
counter-based (Salmon et al., SC 2011), the reseated stream is the same
stream, bit for bit, and still a pure function of ``(master_seed, index)``.

Stream families (``kind``), all keyed by the master seed:

* kind 0, :func:`sample_stream` (seed, i): Monte-Carlo sample i of
  ``solver.sample_increments``, hence of ``candidate_solution`` and the
  Euler ensemble of ``ito_verify`` (an antithetic pair 2j, 2j+1 shares
  stream j).  Every path of one ``candidate_solution`` call extends with
  the same sample i; so the points of ``experiments.comparison_demo`` at
  its j-th time, in increasing order, all read streams
  (seed + 101 + j, i), for both sides u and v_n; its smoothing modulus
  m(p0) opens the streams of p0's time once more, and so reads p0's draws.
* :class:`StreamKind`, through :func:`substream` (seed, kind, i): the
  jump draws of ``audit.random_lift_points`` (LIFT_POINTS),
  ``audit.random_pairs`` (PAIRS) and
  ``experiments.brownian_search_space`` (SEARCH_SPACE).  Only test oracles
  draw FLOW_INNER (the inner restarts of the flow-identity residual) and
  BRIDGE (the bridge maxima of the exact running-max estimator); the kinds
  keep their numbers, so that no other stream moves.

Stream (seed, 0) is also used whole by three callers that need one
generator per seed: the path draws of ``pathheat pde-check``, the objective
coefficients of ``pathheat vp-run`` and ``quadrature.monte_carlo_gaussian_rule``
(keyed by ``z_seed``, for a Monte-Carlo z-rule of the gauge or the factor
solution; comparison-demo opens no whole stream).  It is the same stream as
Monte-Carlo sample 0 under that seed; giving these callers kinds of their
own would change their outputs.

``numpy.random`` is imported here, at package import, on purpose: ``import
numpy`` loads it only lazily, and the package imports no other library that
would load it.  Loaded lazily, its 11 ms or so would land inside the first
stream a command opens, in the command's own run time rather than in the
package's start-up.
"""

from __future__ import annotations

from enum import IntEnum, unique
from typing import Optional

from numpy.random import Generator, Philox

from .errors import DomainError

__all__ = ["StreamKind", "sample_stream", "substream"]

# Each stream owns a disjoint 2^128 counter block.
_BLOCK_SHIFT = 128
_SEED_LIMIT = 1 << 128
# An index fills the upper 128 bits of the 256-bit counter.
_INDEX_LIMIT = 1 << (256 - _BLOCK_SHIFT)
_WORD = (1 << 64) - 1


@unique
class StreamKind(IntEnum):
    """Stream families disjoint from the plain sample streams (kind 0)."""

    FLOW_INNER = 3
    BRIDGE = 5
    LIFT_POINTS = 11
    PAIRS = 12
    SEARCH_SPACE = 21


def sample_stream(master_seed: int, index: int,
                  into: Optional[Generator] = None) -> Generator:
    """Return the generator for sample ``index`` under ``master_seed``.

    The seed is the 128-bit Philox key and must lie in [0, 2^128), the index
    in [0, 2^128).  Given ``into``, a generator on a Philox bit generator,
    the call reseats it at stream (seed, index) and returns it: key, counter
    and an emptied output buffer are set exactly as a new generator would
    start, so its draws equal those of ``sample_stream(seed, index)`` bit for
    bit, whatever ``into`` drew before.  Reseating one generator per sample
    costs a tenth of building one.  Never share ``into`` between two streams
    that are drawn from alternately.
    """
    seed = int(master_seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise DomainError(f"seed {master_seed} outside [0, 2^128)")
    index = int(index)
    if not 0 <= index < _INDEX_LIMIT:
        raise ValueError(f"stream index {index} outside [0, 2^128)")
    if into is None:
        return Generator(Philox(key=seed, counter=index << _BLOCK_SHIFT))
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, index & _WORD, index >> 64),
                  "key": (seed & _WORD, seed >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return into


def substream(master_seed: int, kind: StreamKind, index: int,
              into: Optional[Generator] = None) -> Generator:
    """A stream family disjoint from :func:`sample_stream` (e.g. inner loops).

    ``kind`` selects the family; index blocks within a family do not overlap
    sample-stream blocks because the kind tag lands in counter bits above
    any realistic sample count.  ``into`` is reseated as in
    :func:`sample_stream`.
    """
    if kind <= 0:
        raise ValueError("kind must be positive (0 is the plain sample family)")
    return sample_stream(master_seed, (int(kind) << 56) + index, into)
