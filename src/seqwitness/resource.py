"""Detectability and robustness-of-measurement accounting.

Compares the sequential scheme (one entangled pair reused by three observer
pairs) against non-sequential schemes where each pair consumes its own copy
of a noisier state: first at equal measurement resources, solving for the
entanglement budget, then at equal entanglement, minimizing the total
measurement robustness.  Records store only independent values; a value
they fix, such as a row's two-decimal cascade, is a read-only property.
"""

import math
import operator

from . import states
from .sequential import (ChainReport, SharpnessSchedule, _run_chain, _sharpness_for_shrink,
                         _stage_window, _symmetric_edge_before, average_shrink)
from .states import _set

# The colored-noise budget match is carried at two-decimal precision in the
# state parameter, which puts the derived quadratic constant at 2.26 rather
# than the exact-parameter 2.28; the row reports only the two-decimal route.
_COLORED_PARAM_DECIMALS = 2

_COPIES = 3  # copies the non-sequential scheme consumes, one per observer pair

# The detectability optimum keeps every stage's witness value at or below
# -_BOUNDARY_MARGIN, to within round-off.
_BOUNDARY_MARGIN = 1e-12


class DetectabilityReport(states._Record):
    """Stage-wise witness expectations of a chain and the schedule that gave
    them; their sum ``total`` is a read-only property, outside the fields."""

    __slots__ = ("per_stage", "schedule")

    def __init__(self, per_stage: tuple[float, ...], schedule: SharpnessSchedule):
        _set(self, "per_stage", per_stage)
        _set(self, "schedule", schedule)

    @property
    def total(self) -> float:
        """Detectability: the sum of the stage-wise witness values."""
        return float(sum(self.per_stage))


class ComparisonRow(states._Record):
    """One scenario row of the sequential vs non-sequential comparison; its
    two-decimal cascade ``paper_rounded`` is a read-only property."""

    __slots__ = ("family", "detectability", "total_rom", "eta_ebits", "mode",
                 "matching_parameter", "quadratic_constraint", "per_pair_floor")

    def __init__(self, family: str, detectability: float, total_rom: float, eta_ebits: float,
                 mode: str, matching_parameter: float | None = None,
                 quadratic_constraint: float | None = None, per_pair_floor: float | None = None):
        _set(self, "family", family)
        _set(self, "detectability", detectability)
        _set(self, "total_rom", total_rom)
        _set(self, "eta_ebits", eta_ebits)
        _set(self, "mode", mode)
        _set(self, "matching_parameter", matching_parameter)
        _set(self, "quadratic_constraint", quadratic_constraint)
        _set(self, "per_pair_floor", per_pair_floor)

    @property
    def paper_rounded(self) -> dict | None:
        """Two-decimal cascade of printed comparisons: None on the sequential
        row; on a table-1 row the parameter, the concurrence at it and the
        budget of _COPIES copies; on a table-2 row the RoM, constraint, floor."""
        if self.family == "sequential":
            return None
        if self.mode == "fixed-rom-solve-eta":
            p2 = round(self.matching_parameter, 2)
            c2 = round(states.concurrence_closed_form(states.StateFamily(self.family, p2)), 2)
            return {"matching_parameter": p2, "concurrence": c2,
                    "eta_ebits": round(_COPIES * c2, 2)}
        return {k: round(getattr(self, k), 2)
                for k in ("total_rom", "quadratic_constraint", "per_pair_floor")}


def detectability(chain: ChainReport) -> DetectabilityReport:
    """Stage-wise witness values of a chain: ``states.witness_value`` of
    each stage (xi, lam) at the correlation strength g entering it.  Only
    the schedule and ``chain.strengths`` are read, so a chain that carries
    no states gives the same report; the optimizer and the tables read
    their fixed schedules off such a chain."""
    if chain.detected_stages < 1:
        raise ValueError("detectability needs at least one stage")
    per = tuple(states.witness_value(g, xi, lam)
                for (xi, lam), g in zip(chain.schedule.stages, chain.strengths))
    return DetectabilityReport(per_stage=per, schedule=chain.schedule)


def maximize_detectability(family: states.StateFamily,
                           stage_caps: tuple[float, float, float] = (1.0, 1.0, 1.0)
                           ) -> DetectabilityReport:
    """Most negative 3-stage symmetric detectability with every stage negative.

    An exact active-set solve over symmetric schedules (xi_i = lam_i <=
    cap_i).  Each stage scales the correlation strength g by s^2, with
    s = (1 + 2u) / 3, u = sqrt(1 - lam^2), the ``sequential.average_shrink``
    attenuation, so the total is 3/4 - g F / 4 with
    F = lam1^2 + s1^2 lam2^2 + s1^2 s2^2 lam3^2.  Stage 3 takes lam3 = cap3,
    which helps the total and its own witness.  Given lam1, lam2^2 +
    cap3^2 s2^2 rises with lam2 up to u2 = 2 cap3^2 / (9 - 4 cap3^2) <= 0.4,
    where s2 <= 0.6; stage 3 stops detecting before that, since detection
    needs lam_i > 1/sqrt(g_i) and g <= 3 puts s1 <= 0.88, so
    cap3^2 g s1^2 s2^2 < 1 there.  So lam2 is the top of its stage window.

    Stage i detects with margin iff lam_i^2 g_i >= need = 1 + 4 margin.
    With n = need / g, K = sqrt(n) / cap3 and u = u1, F is piecewise in u,
    each piece concave; the candidates are stage-1 shrinks s1, each mapped
    to lam1 by the inverse ``sequential._sharpness_for_shrink``:

    - stage 3 binds (s1 s2 = K, small u): F_B = const + (1/3 + K) u
      - (2/3) u^2, with its vertex at s1 = (1 + K) / 2;
    - cap2 binds (large u): F_A = 1 - u^2 + C s1^2 with
      C = cap2^2 + cap3^2 s(cap2)^2 <= 1.2 < 9/4, with its vertex at
      s1 = 3 / (9 - 4C);
    - the pieces meet where the stage-3 bound on lam2 equals cap2, at
      s1 = K / s(cap2).

    Stage 3 detects iff g3 >= edge3 = need / cap3^2, stages 2 and 3 iff
    g2 >= edge2, the capped backward stage map
    ``sequential._symmetric_edge_before`` of edge3, and
    ``sequential._stage_window`` turns the edges into lam1's range
    [lo, top] and stage 2's window.  On the feasible interval the maximum
    of F is at an end, a vertex or the breakpoint; each is scored with
    ``stage_two``, at most 12 calls.  Float rounding can put the computed
    top a few ulps outside the feasible set, so it steps inward until
    ``stage_two`` accepts it.

    The supremum lies where a stage's witness reaches 0 (for bell, stage
    3's), so each stage is held at or below -_BOUNDARY_MARGIN, to within
    round-off: every returned stage detects, and the total is within
    O(_BOUNDARY_MARGIN) of the supremum.
    ``tests/oracles.py::golden_section_detectability`` keeps a scan and
    golden-section search over lam1 as the independent check.
    """
    if len(stage_caps) != 3:
        raise ValueError("stage caps must be three values in (0, 1]")
    if not all(0.0 < cap <= 1.0 for cap in stage_caps):
        raise ValueError("stage caps must lie in (0, 1]")
    g = states.correlation_strength(family)
    cap1, cap2, cap3 = stage_caps
    need = 1.0 + 4.0 * _BOUNDARY_MARGIN  # witness <= -margin iff lam_i^2 g_i >= need
    edge3 = need / (cap3 * cap3)
    edge2 = _symmetric_edge_before(edge3, cap2, need)

    def stage_two(lam1):
        """(lam1^2 + s1^2 (lam2^2 + cap3^2 s2^2), lam2) at the best lam2 after
        stage 1 at lam1, or (-inf, None) if no lam2 lets both stages detect."""
        s1 = average_shrink(lam1)
        lo, hi = _stage_window(g * s1 * s1, cap2, edge3, need)
        if lo > hi:
            return -math.inf, None
        return lam1 * lam1 + s1 * s1 * (hi * hi + (cap3 * average_shrink(hi)) ** 2), hi

    # Stage 1 detects from lo up; a larger lam1 leaves stages 2 and 3 less
    # room, so the feasible lam1 form an interval [lo, edge].
    lo, top = _stage_window(g, cap1, edge2, need)
    scored = {lo: stage_two(lo) if lo <= cap1 else (-math.inf, None)}
    if scored[lo][1] is None:
        raise ValueError(f"family {family.kind!r} admits no 3-stage schedule "
                         "with every stage detecting")

    k = lo / cap3
    for ulps in (0, 1, 3, 7, 15, 31, 63, 127):
        edge = max(lo, top - ulps * math.ulp(top))
        scored[edge] = stage_two(edge)
        if scored[edge][1] is not None:
            break

    s_cap2 = average_shrink(cap2)
    c = cap2 * cap2 + (cap3 * s_cap2) ** 2
    for s1 in ((1.0 + k) / 2.0, 3.0 / (9.0 - 4.0 * c), k / s_cap2):
        lam = min(edge, max(lo, _sharpness_for_shrink(s1)))
        if lam not in scored:
            scored[lam] = stage_two(lam)
    lam1 = max(scored, key=lambda lam: scored[lam][0])
    lams = (lam1, scored[lam1][1], cap3)
    return detectability(_run_chain(family, None, 3, lambda t, stage, _: lams[stage - 1]))


def total_rom(schedule: SharpnessSchedule) -> float:
    """Total robustness of measurement: the sum of all sharpness values."""
    return float(sum(xi + lam for xi, lam in schedule.stages))


def solve_matching_parameter(kind: str, schedule: SharpnessSchedule,
                             target_detectability: float) -> float:
    """State parameter at which the non-sequential scheme matches a target.

    Each pair of the schedule measures its own copy of the state.  The
    family witnesses see the state through g alone, so stage i contributes
    ``states.witness_value(g, xi_i, lam_i)``, where g is the state's
    ``states.correlation_strength``.  The summed target D therefore fixes
    g = (n - 4 D) / sum(xi_i lam_i), which ``states.param_for_strength``
    inverts.  Returns p for werner/colored and theta for the pure family;
    ``tests/oracles.py`` keeps a bisection over full state builds
    (``bisect_matching_parameter``) as the independent check.
    """
    products = sum(xi * lam for xi, lam in schedule.stages)
    if products <= 0.0:
        raise ValueError("matching needs at least one stage")
    strength = (len(schedule.stages) - 4.0 * target_detectability) / products
    param = states.param_for_strength(kind, strength)
    hi = 1.0 if kind != states.PURE else math.pi / 4.0 - 1e-9
    if param is None or not 1e-9 <= param <= hi:
        raise ValueError("target detectability is not reachable within the parameter range")
    return param


def entanglement_budget(family: states.StateFamily, copies: int) -> float:
    """Total entanglement consumed: copies times the state's concurrence."""
    if operator.index(copies) < 1:
        raise ValueError("need at least one copy")
    return copies * states.concurrence_closed_form(family)


class NonSequentialSolution(states._Record):
    """Internals of the equal-entanglement RoM minimization; the total RoM
    ``rom`` is a read-only property of ``lambdas``, outside the fields."""

    __slots__ = ("param", "per_pair_floor", "quadratic_constraint", "lambdas")

    def __init__(self, param: float, per_pair_floor: float, quadratic_constraint: float,
                 lambdas: tuple[float, ...]):
        _set(self, "param", param)
        _set(self, "per_pair_floor", per_pair_floor)
        _set(self, "quadratic_constraint", quadratic_constraint)
        _set(self, "lambdas", lambdas)

    @property
    def rom(self) -> float:
        """Total RoM: 2 sum(lam), each pair measuring at xi = lam."""
        return 2.0 * sum(self.lambdas)


def _greedy_fill(constraint: float, floor: float, copies: int) -> tuple[float, ...]:
    """Least-sum(lam) point, descending, with sum(lam^2) = constraint and
    floor <= lam <= 1.  sum(lam) is Schur-concave in x = lam^2, so the least
    point of the slice sum(x) = constraint of [floor^2, 1]^copies is its
    majorization-maximal point, the greedy fill: floor(q) lambdas at 1,
    q = (constraint - copies floor^2) / (1 - floor^2), one free, the rest at
    the floor.  A pattern with no free lambda counts within 1e-12 of the
    constraint, so the least such cap count lies just above q - w, with
    w = 1e-12 / (1 - floor^2), and fewer caps give a smaller sum.
    low = floor(q - w), clamped to [0, copies], is off by at most one count
    in every case the tests scan (1 to 6 copies): near a floor of 1, where q
    has no correct digits, w exceeds copies and low is 0.  The patterns with
    low, low + 1 or low + 2 lambdas at 1 and one free lambda or none are
    scored as ``tests/oracles.py::boundary_pattern_lambdas`` scores them, and
    the first least sum wins."""
    f2 = floor * floor
    low = min(copies, max(0, math.floor((constraint - 1e-12 - copies * f2) / (1.0 - f2))))
    candidates = []
    for n_cap in range(low, min(copies, low + 2) + 1):
        n_floor = copies - n_cap
        if n_floor:  # one free lambda; floor * floor is f2 bit for bit
            remaining = constraint - sum((1.0,) * n_cap + (f2,) * (n_floor - 1))
            if remaining > 0.0 and floor <= math.sqrt(remaining) <= 1.0:
                candidates.append((1.0,) * n_cap + (math.sqrt(remaining),)
                                  + (floor,) * (n_floor - 1))
        if abs(constraint - sum((1.0,) * n_cap + (f2,) * n_floor)) < 1e-12:
            candidates.append((1.0,) * n_cap + (floor,) * n_floor)
    return min(candidates, key=sum)


def _solve_min_rom(kind: str, ebit_budget: float, target_detectability: float,
                   copies: int = _COPIES) -> NonSequentialSolution:
    if operator.index(copies) < 1:
        raise ValueError("need at least one copy")
    if not (math.isfinite(ebit_budget) and math.isfinite(target_detectability)):
        raise ValueError("ebit budget and target detectability must be finite")
    # Every family has concurrence (g - 1) / 2, so each copy holding c ebits
    # has correlation strength 2c + 1.
    c = ebit_budget / copies
    if not 0.0 < c <= 1.0:
        raise ValueError("target concurrence must lie in (0, 1]")
    param = states.param_for_strength(kind, 2.0 * c + 1.0)
    if kind == states.COLORED:
        param = round(param, _COLORED_PARAM_DECIMALS)
    family = states.StateFamily(kind, param)
    strength = states.correlation_strength(family)

    # Sum of (1 - lam_i^2 g)/4 = target fixes the quadratic constraint;
    # each pair detecting fixes the per-pair floor lam > 1/sqrt(g).
    if strength <= 1.0:
        raise ValueError("state is too weakly correlated for every pair to detect")
    floor = 1.0 / math.sqrt(strength)
    constraint = (copies - 4.0 * target_detectability) / strength
    if constraint > float(copies) or constraint <= copies * floor**2:
        raise ValueError("detectability and budget constraints are jointly infeasible")

    best = _greedy_fill(constraint, floor, copies)
    return NonSequentialSolution(param=param, per_pair_floor=floor,
                                 quadratic_constraint=constraint, lambdas=best)


def min_total_rom(kind: str, ebit_budget: float, target_detectability: float,
                  copies: int = _COPIES) -> float:
    """Least total RoM of a non-sequential scheme at fixed entanglement.

    ``copies`` copies hold ``ebit_budget`` ebits, every pair must detect, and
    the summed expectations must reach the target.  The value, the infimum
    over the closed constraint set, is the greedy fill of ``_greedy_fill``.
    """
    return _solve_min_rom(kind, ebit_budget, target_detectability, copies).rom


def build_comparison_tables() -> tuple[list[ComparisonRow], list[ComparisonRow]]:
    """Assemble both comparison tables for the three noisy families.

    The sequential reference point is the maximal-detectability schedule
    quantized to two decimals, with its detectability rounded the same way,
    so the anchor row reads (-0.20, 5.06, 1 ebit) independently of the
    optimizer's final refinement digits.  Each table is the sequential row,
    then the werner, colored and pure rows, with ``paper_rounded`` cascades.
    """
    bell = states.StateFamily.bell()
    opt = maximize_detectability(bell)
    canon = tuple(round(lam, 2) for lam, _ in opt.schedule.stages)
    report = detectability(_run_chain(bell, None, 3, lambda t, stage, _: canon[stage - 1]))
    if any(d >= 0.0 for d in report.per_stage):
        raise RuntimeError("canonical schedule lost stage-wise feasibility")
    target = round(report.total, 2)
    rom_seq = total_rom(report.schedule)

    table1 = [ComparisonRow(family="sequential", detectability=target,
                            total_rom=rom_seq, eta_ebits=1.0,
                            mode="fixed-rom-solve-eta")]
    table2 = [ComparisonRow(family="sequential", detectability=target,
                            total_rom=rom_seq, eta_ebits=1.0,
                            mode="fixed-eta-minimize-rom")]

    for kind in (states.WERNER, states.COLORED, states.PURE):
        param = solve_matching_parameter(kind, report.schedule, target)
        family = states.StateFamily(kind, param)
        eta = entanglement_budget(family, _COPIES)
        table1.append(ComparisonRow(
            family=kind, detectability=target, total_rom=rom_seq, eta_ebits=eta,
            mode="fixed-rom-solve-eta", matching_parameter=param,
        ))

        sol = _solve_min_rom(kind, 1.0, target, _COPIES)
        table2.append(ComparisonRow(
            family=kind, detectability=target, total_rom=sol.rom, eta_ebits=1.0,
            mode="fixed-eta-minimize-rom", matching_parameter=sol.param,
            quadratic_constraint=sol.quadratic_constraint,
            per_pair_floor=sol.per_pair_floor,
        ))

    return table1, table2
