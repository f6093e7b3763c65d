"""Sequential observer chains: averaged channels, thresholds, greedy runs.

Each observer pair measures one of three orthogonal spin directions with
equal probability, so the state handed to the next pair is the setting- and
outcome-averaged Lueders map.  It scales every Pauli coefficient on each
measured wing by s(lam) = (1 + 2 sqrt(1 - lam^2)) / 3, the scaling of
witness modulation (``qcore.scale_wings``) done on the 16 Python floats a
state carries (``qcore._scaled_state``); the Kraus sum is the tests' oracle.
The channels, ``violation_threshold`` and ``states.build`` reach ``qcore``
through ``states._qcore``, which imports it, and numpy, on first use and keeps
it; annotations name the matrix classes as strings, so loading this module
imports only ``math``, ``operator`` and ``states``.

The family witnesses see a state only through its correlation strength g
(``states.witness_value``), so a stage "detects" exactly when its sharpness
product exceeds the threshold 1/g, and an averaged stage multiplies g by
s(xi) s(lam).  The stage loop decides on g alone and records the g
entering each stage, which is all ``resource`` and the CLI read.  The
library chains then replay the schedule through the averaged channels to
attach the matrix state entering each stage, for the tests' matrix route and
the bench tracer; ``violation_threshold`` is that route to the threshold.
The greedy procedures saturate each stage just above its threshold to
disturb the state as little as possible and count the stages below product 1.
"""

import math
import operator

from . import states
from .states import _qcore

# Float guard when snapping a threshold onto the 0.01 grid.
_GRID_EPS = 1e-9


def average_shrink(lam: float) -> float:
    """Single-wing attenuation of every Bloch component under the
    setting-averaged unsharp measurement: (1 + 2 sqrt(1 - lam^2)) / 3."""
    return (1.0 + 2.0 * math.sqrt(1.0 - lam * lam)) / 3.0


def _sharpness_for_shrink(s: float) -> float:
    """Inverse of ``average_shrink``: the lam whose attenuation is s, from
    sqrt(1 - lam^2) = u = (3 s - 1) / 2 with u clipped to [0, 1], so s at
    or above 1 gives 0 and s at or below 1/3 gives 1."""
    u = min(1.0, max(0.0, (3.0 * s - 1.0) / 2.0))
    return math.sqrt((1.0 - u) * (1.0 + u))


def average_two_sided(rho, xi: float, lam: float) -> "DensityMatrix":
    """Average post-measurement state after both wings measure.

    Pauli components shrink by average_shrink(xi) on the first wing and by
    average_shrink(lam) on the second, on Python floats.  The test oracle is
    the 36-term Kraus sum over 3 directions and 2 outcomes per wing of
    (sqrt(E) x sqrt(E)) rho (sqrt(E) x sqrt(E)) / 9.
    """
    if not (0.0 < xi <= 1.0 and 0.0 < lam <= 1.0):  # NaN fails
        raise ValueError("sharpness must lie in (0, 1]")
    # the channels run once per stage, so they reach qcore through the one
    # reference states keeps, not through an import statement on every call
    return _qcore()._scaled_state(rho, average_shrink(xi), average_shrink(lam))


def average_one_sided(rho, lam: float) -> "DensityMatrix":
    """Average post-measurement state when only the second wing measures.

    Pauli components on the second wing shrink by average_shrink(lam), and a
    first-wing scale of 1.0 is exact; the test oracle is the 6-term Kraus sum
    of (I x sqrt(E)) rho (I x sqrt(E)) / 3.
    """
    if not 0.0 < lam <= 1.0:  # NaN fails
        raise ValueError("sharpness must lie in (0, 1]")
    return _qcore()._scaled_state(rho, 1.0, average_shrink(lam))


def violation_threshold(w: "WitnessOperator", rho) -> float:
    """Minimal sharpness product at which the witness expectation hits zero.

    The matrix route to a stage threshold, for any witness and state; the
    chains take the family witnesses' closed form 1/g instead, so it stays
    for the tests, which check one against the other, and the bench tracer.
    Detection requires strictly exceeding the returned value.  The same
    affine root bounds the two-sided product xi lam and the one-sided lam
    (xi pinned at 1).  Values above 1 are returned as-is and mean detection
    is impossible.  The expectation Tr(W rho) = 4 sum_ij w[i, j] c[i, j]
    reads the Pauli coefficients c that a state carries.
    """
    if w.modulation is not None:
        raise ValueError("threshold is defined for the unmodulated witness")
    full = _qcore().coefficient_expectation(w.coefficients, rho)
    ident = w.identity_weight()
    slope = full - ident  # coefficient of the sharpness product
    if slope >= -1e-15:
        return math.inf
    return ident / (ident - full)


class EpsilonPolicy(states._Record):
    """Slack added above each stage threshold, plus the rounding mode.

    ``sharpness()`` is the one place where a greedy stage's sharpness is
    chosen.  In paper-rounding mode every stage constraint is snapped up to
    the next point of the 0.01 grid and the chosen sharpness is kept on that
    grid; the grid step then plays the role of the slack and the two slack
    fields are ignored.
    """

    __slots__ = ("first_stage_slack", "later_stage_slack", "paper_rounding")

    def __init__(self, first_stage_slack: float = 1e-2, later_stage_slack: float = 1e-2,
                 paper_rounding: bool = False):
        if not (0.0 <= first_stage_slack < 0.1 and 0.0 <= later_stage_slack < 0.1):  # NaN fails
            raise ValueError("stage slack must lie in [0, 0.1)")
        if paper_rounding not in (True, False):  # a truthy "no" must not turn rounding on
            raise ValueError(f"paper_rounding must be True or False, not {paper_rounding!r}")
        _set_first_stage_slack(self, first_stage_slack)
        _set_later_stage_slack(self, later_stage_slack)
        _set_paper_rounding(self, bool(paper_rounding))

    @classmethod
    def asymmetric_default(cls, paper_rounding: bool = False) -> "EpsilonPolicy":
        """Asymmetric runs saturate later stages exactly at the threshold."""
        return cls(first_stage_slack=1e-2, later_stage_slack=0.0,
                   paper_rounding=paper_rounding)

    def sharpness(self, threshold: float, stage: int, two_sided: bool) -> float | None:
        """Sharpness of a stage with violation ``threshold``: the product
        just above the threshold (slack or grid step, capped at 1), taken as
        xi = lam = its square root on a two-sided stage.  None when the
        threshold reaches 1, since then no stage up to sharpness 1 detects."""
        if not threshold < 1.0:
            return None
        if self.paper_rounding:  # the 0.01-grid point strictly above, capped at 1
            x = math.sqrt(threshold) if two_sided else threshold
            return min(math.floor(x * 100.0 + _GRID_EPS) + 1, 100) / 100.0
        slack = self.first_stage_slack if stage == 1 else self.later_stage_slack
        value = min(threshold + slack, 1.0)
        return math.sqrt(value) if two_sided else value


class SharpnessSchedule(states._Record):
    """Ordered per-stage (xi, lam) values of the recorded stages, stored as
    a tuple of tuples; a tuple of tuples is kept as it is, without a copy."""

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[tuple[float, float], ...]):
        stages = stages if type(stages) is tuple else tuple(map(tuple, stages))
        for entry in stages:
            xi, lam = entry
            if not (0.0 < xi <= 1.0 and 0.0 < lam <= 1.0):
                raise ValueError("schedule entries must lie in (0, 1]")
            if type(entry) is not tuple:  # a list entry is unhashable and != its tuple
                stages = tuple(map(tuple, stages))
        _set_stages(self, stages)


class ChainReport(states._Record, repr_omit=("states",)):
    """Outcome of a chain run.

    ``strengths`` holds the correlation strength g entering every stage
    examined: one per stage, plus a last one when a greedy chain ends at an
    infeasible stage (none when it ends at its stage cap, nor for a fixed
    schedule).  ``states`` holds the matrix state entering each recorded
    stage, which the library chains replay from the schedule; it decides
    nothing and the repr omits it.  ``detected_stages`` and ``thresholds``
    are read-only properties of the schedule and the strengths, outside the
    fields.  A fixed schedule records every stage, so its
    ``detected_stages`` is the schedule's length, detecting or not.
    """

    __slots__ = ("family", "schedule", "strengths", "states")

    def __init__(self, family: states.StateFamily, schedule: SharpnessSchedule,
                 strengths: tuple[float, ...], states: "tuple[DensityMatrix, ...]"):
        _set_family(self, family)
        _set_schedule(self, schedule)
        _set_strengths(self, strengths)
        _set_states(self, states)

    @property
    def detected_stages(self) -> int:
        """Number of recorded stages: the schedule's length."""
        return len(self.schedule.stages)

    @property
    def thresholds(self) -> tuple[float, ...]:
        """Raw violation threshold 1/g of every stage examined, one per
        strength; the last one reaches 1 when a greedy chain ended there."""
        return tuple([_threshold(g) for g in self.strengths])


# the slot setters, which bypass the refusing __setattr__ on construction
# faster than object.__setattr__, as for states.StateFamily
_set_first_stage_slack = EpsilonPolicy.first_stage_slack.__set__
_set_later_stage_slack = EpsilonPolicy.later_stage_slack.__set__
_set_paper_rounding = EpsilonPolicy.paper_rounding.__set__
_set_stages = SharpnessSchedule.stages.__set__
_set_family = ChainReport.family.__set__
_set_schedule = ChainReport.schedule.__set__
_set_strengths = ChainReport.strengths.__set__
_set_states = ChainReport.states.__set__


def _threshold(g: float) -> float:
    """Violation threshold 1/g of a stage entering at correlation strength
    g; inf at the cut of ``violation_threshold``, a slope -g/4 >= -1e-15."""
    return 1.0 / g if g > 4e-15 else math.inf


def _run_chain(family: states.StateFamily, two_sided_stages: int | None,
               max_stages: int | None, sharpness) -> ChainReport:
    """The stage loop behind every chain, on g alone: it builds no state.

    ``two_sided_stages`` limits how many leading stages measure on both
    wings; ``None`` means every stage does (the symmetric scenario).  Once
    the limit is reached the remaining wing-one observer is projective and
    stages modulate the witness on the second wing only.  Each stage
    records its g, then takes the sharpness ``sharpness(threshold, stage,
    two_sided)`` at its violation threshold 1/g; ``None`` ends the chain.
    The stage multiplies g by s(lam)^2 (two-sided) or s(lam) (one-sided).
    """
    g = states.correlation_strength(family)
    stages: list[tuple[float, float]] = []
    strengths: list[float] = []
    while max_stages is None or len(stages) < max_stages:
        stage = len(stages) + 1
        two_sided = two_sided_stages is None or stage <= two_sided_stages
        strengths.append(g)
        s = sharpness(_threshold(g), stage, two_sided)
        if s is None:
            break
        stages.append((s if two_sided else 1.0, s))
        shrink = average_shrink(s)
        g *= shrink * shrink if two_sided else shrink
    return ChainReport(family, SharpnessSchedule(tuple(stages)), tuple(strengths), ())


def _chain_states(report: ChainReport, two_sided_stages: int | None) -> "tuple[DensityMatrix, ...]":
    """A chain's replay: the matrix state entering each recorded stage, built
    from the family only once a stage was recorded, with a channel only into
    a stage the chain examined (so into an infeasible stop too, then dropped)."""
    stages, examined = report.schedule.stages, len(report.strengths)
    rho, incoming = (states.build(report.family) if stages else None), []
    for stage, (xi, lam) in enumerate(stages, 1):
        incoming.append(rho)
        if stage < examined:
            two_sided = two_sided_stages is None or stage <= two_sided_stages
            rho = average_two_sided(rho, xi, lam) if two_sided else average_one_sided(rho, lam)
    return tuple(incoming)


def greedy_symmetric(family: states.StateFamily,
                     policy: EpsilonPolicy | None = None) -> ChainReport:
    """Greedy chain with equally many observers on both wings.

    Each stage takes the symmetric sharpness just above its threshold,
    disturbing the state as little as the detection constraint allows, and
    the chain stops at the first stage whose threshold reaches 1, stage 4 at most.
    """
    report = _run_chain(family, None, None, (policy or EpsilonPolicy()).sharpness)
    _set_states(report, _chain_states(report, None))
    return report


def greedy_asymmetric(alices: int, family: states.StateFamily,
                      policy: EpsilonPolicy | None = None,
                      max_bobs: int | None = None) -> ChainReport:
    """Greedy chain with ``alices`` observers on the first wing.

    The first ``alices - 1`` stages are symmetric two-sided stages; after
    that the last observer on the first wing measures projectively and each
    further Bob adds a one-sided stage.  The returned report's
    ``detected_stages`` is the total count of detecting Bobs.
    """
    if operator.index(alices) < 1:
        raise ValueError("need at least one observer on the first wing")
    if max_bobs is not None and operator.index(max_bobs) < 1:
        raise ValueError("max_bobs must be at least 1")
    policy = policy or EpsilonPolicy.asymmetric_default()
    report = _run_chain(family, alices - 1, max_bobs, policy.sharpness)
    _set_states(report, _chain_states(report, alices - 1))
    return report


def run_symmetric_schedule(family: states.StateFamily,
                           lambdas: "Iterable[float]") -> ChainReport:
    """Evolve the symmetric chain at a fixed per-stage sharpness schedule.

    No feasibility decision is taken; thresholds, strengths and incoming
    states are recorded for every stage, including those whose threshold
    reaches 1, so ``resource.detectability`` reports every stage.  Any
    iterable of sharpnesses is taken, a numpy array or a generator too.
    """
    lambdas = tuple(lambdas)
    if not lambdas:
        raise ValueError("schedule must have at least one stage")
    # an entry above 1 gets the schedule's message, not average_shrink's math
    # domain error; the entries become floats only once checked, so a str fails
    SharpnessSchedule((lam, lam) for lam in lambdas)
    lambdas = tuple(map(float, lambdas))
    report = _run_chain(family, None, len(lambdas), lambda t, stage, _: lambdas[stage - 1])
    _set_states(report, _chain_states(report, None))
    return report


def _symmetric_edge_before(h: float, cap: float = 1.0, need: float = 1.0) -> float:
    """Backward stage map: the least g from which one symmetric stage of
    sharpness at most ``cap`` detects (lam^2 g >= need) and hands on at
    least h, need max(1/cap^2, E(h/need)).  The stage at lam = 1/sqrt(g)
    leaves ((sqrt(g) + 2 sqrt(g - 1)) / 3)^2 >= 1/9, rising with g, so
    sqrt(E(h)) = -sqrt(h) + 2 sqrt(h + 1/3), bit for bit at the defaults,
    with h clamped at 1/9, where E = 1: every detecting stage hands on that
    much.  need scales g and h alike, and the cap adds g >= need/cap^2.

    Count lemma: no schedule hands on more.  (1) At fixed P = xi lam,
    s(xi) s(lam) peaks at xi = lam, as log s(e^a) is concave: its slope
    -2 (1 - u^2) / (u (1 + 2u)), u = sqrt(1 - lam^2), falls as lam rises.
    (2) Detection needs P >= need/g, and g s(xi) s(lam) falls as P rises.
    (3) The zero-slack map rises with g; by induction no schedule's k-th g
    exceeds the zero-slack chain's.  So xi = lam loses nothing: at fixed P it
    hands on the most g (1) at the least RoM, xi + lam >= 2 sqrt(P) (AM-GM), so no
    unequal split raises the count, improves detectability or lowers a RoM.
    """
    x = max(h / need, 1.0 / 9.0)
    root = -math.sqrt(x) + 2.0 * math.sqrt(x + 1.0 / 3.0)
    return need * max(1.0 / (cap * cap), root * root)


def _stage_window(g: float, cap: float, next_edge: float,
                  need: float = 1.0) -> tuple[float, float]:
    """(lo, hi) sharpness window of a symmetric stage entering at g: lo is
    the least lam that detects (lam^2 g >= need), hi the most, at most
    ``cap``, that hands on g s(lam)^2 >= next_edge.  Empty (lo > hi) for
    every g < need; colored families reach g <= 0."""
    if not g >= need:
        return math.inf, 0.0
    return math.sqrt(need / g), min(cap, _sharpness_for_shrink(math.sqrt(next_edge / g)))


def classify_pair_count(family: states.StateFamily) -> int:
    """Most symmetric pairs that can detect entanglement (0 to 3): the
    number of band edges E_1 = 1 < E_2 < ... below g, E_{k+1} the backward
    map of E_k, 1, 1.714531, 2.410788, then 3.099032 > 3 (bell's g).  The
    zero-slack chain, each stage at its threshold 1/g, detects that many,
    and by the map's count lemma no schedule, split evenly or not, more.
    """
    if family.kind not in (states.WERNER, states.PURE):
        raise ValueError("pair-count classification applies to werner and pure families")
    g = states.correlation_strength(family)
    count, edge = 0, 1.0
    while g > edge:
        count += 1
        edge = _symmetric_edge_before(edge)
    return count
