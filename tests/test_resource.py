import math
import tracemalloc

import numpy as np
import pytest

import oracles
from seqwitness import resource, sequential, states, witness

BELL = states.StateFamily.bell()
BEST_SCHEDULE = (0.73, 0.80, 1.0)


def best_chain():
    return sequential.run_symmetric_schedule(BELL, BEST_SCHEDULE)


def summed_expectation(kind, schedule, param):
    """Summed stage witness values of one copy per stage, via the matrix route."""
    rho = states.build(states.StateFamily(kind, param))
    w = witness.family_witness(kind)
    return sum(witness.expectation(witness.modulate(w, xi, lam), rho)
               for xi, lam in schedule.stages)


def witness_on_carried_states(chain):
    """Each stage's modulated family witness on the state the chain carried
    into it: the matrix route that ``resource.detectability`` is checked by."""
    w = witness.family_witness(chain.family.kind)
    return tuple(witness.expectation(witness.modulate(w, xi, lam), rho)
                 for (xi, lam), rho in zip(chain.schedule.stages, chain.states))


def test_detectability_best_schedule():
    report = resource.detectability(best_chain())
    assert report.per_stage[0] == pytest.approx(-0.149675, abs=1e-6)
    assert report.per_stage[1] == pytest.approx(-0.048783, abs=1e-6)
    assert report.per_stage[2] == pytest.approx(-0.001061, abs=1e-6)
    assert report.total == pytest.approx(sum(report.per_stage), abs=1e-12)
    assert report.total == pytest.approx(-0.20, abs=0.005)


def test_detectability_weak_measurement_limit():
    chain = sequential.run_symmetric_schedule(BELL, (1e-6, 1e-6, 1e-6))
    report = resource.detectability(chain)
    for value in report.per_stage:
        assert value == pytest.approx(0.25, abs=1e-5)


def test_detectability_requires_stages():
    empty = sequential.greedy_symmetric(states.StateFamily.werner(0.2))
    with pytest.raises(ValueError):
        resource.detectability(empty)


def test_closed_form_detectability_matches_matrix_route():
    strength = states.correlation_strength(BELL)
    closed = oracles.closed_form_detectability(strength, BEST_SCHEDULE)
    assert np.allclose(closed, witness_on_carried_states(best_chain()), atol=1e-12)


def test_detectability_of_a_chain_that_carries_no_states():
    # the stage loop, which builds no states (as the CLI runs it), records the same g
    stateless = sequential._run_chain(BELL, None, 3, lambda t, stage, _: BEST_SCHEDULE[stage - 1])
    assert stateless.states == ()
    report = resource.detectability(stateless)
    assert report == resource.detectability(best_chain())
    assert len(report.per_stage) == 3 and round(report.total, 2) == -0.20


OPTIMIZER_CASES = [
    (BELL, (1.0, 1.0, 1.0)),
    (states.StateFamily.werner(0.93), (1.0, 1.0, 1.0)),
    (states.StateFamily.werner(0.97), (1.0, 1.0, 1.0)),
    (states.StateFamily.werner(1.0), (1.0, 1.0, 1.0)),
    (states.StateFamily.colored(0.95), (1.0, 1.0, 1.0)),
    (states.StateFamily.colored(0.99), (1.0, 1.0, 1.0)),
    (states.StateFamily.pure(0.6), (1.0, 1.0, 1.0)),
    (states.StateFamily.pure(0.7), (1.0, 1.0, 1.0)),
    (states.StateFamily.pure(0.77), (1.0, 1.0, 1.0)),
    (BELL, (1.0, 1.0, 0.9)),
    (BELL, (0.937, 0.991, 0.903)),
    (states.StateFamily.werner(0.97), (0.951, 0.913, 0.977)),
]


# Input ranges of the benchmark's resource-comparison workload: every family
# admits a three-stage schedule with every stage detecting under these caps.
TABLE_RANGES = {"werner": (0.93, 1.0), "colored": (0.95, 1.0), "pure": (0.6, 0.77),
                "caps": (0.9, 1.0)}
# Weaker states and lower caps, where most cases admit no such schedule and
# the optimum can sit on stage 2's boundary or at a cap.
WIDE_RANGES = {"werner": (0.75, 1.0), "colored": (0.75, 1.0), "pure": (0.2, 0.78),
               "caps": (0.5, 1.0)}


def random_optimizer_cases(count, seed, ranges):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        kind = ("bell", "werner", "colored", "pure")[int(rng.integers(4))]
        family = BELL if kind == "bell" else states.StateFamily(
            kind, float(rng.uniform(*ranges[kind])))
        cases.append((family, tuple(float(c) for c in rng.uniform(*ranges["caps"], size=3))))
    return cases


def check_optimizer_case(family, caps):
    """The exact optimum against the grid oracle and the stage-3 boundary
    scan; returns the report and whether stage 3 binds."""
    strength = states.correlation_strength(family)
    report = resource.maximize_detectability(family, caps)
    lams = [lam for _, lam in report.schedule.stages]
    assert all(xi == lam for xi, lam in report.schedule.stages)
    assert all(0.02 <= lam <= cap for lam, cap in zip(lams, caps))
    assert all(d < 0.0 for d in report.per_stage)
    # the grid's points are feasible, so its total can never be better;
    # both totals go through the same closed-form arithmetic
    exact = sum(oracles.closed_form_detectability(strength, lams))
    assert report.total == pytest.approx(exact, abs=1e-14)
    try:
        grid = oracles.detectability_grid_argmax(strength, caps)
    except ValueError:  # a thin feasible set can fall between grid points
        grid = None
    if grid is not None:
        assert exact <= sum(oracles.closed_form_detectability(strength, grid))
    # points on the curve where stage 3's witness is 0 are limits of
    # feasible points; where the optimum lies on it, stage 3 sits within
    # 10 margins of 0
    boundary = oracles.stage_three_boundary_min(strength, caps)
    if boundary is None:
        return report, False
    assert report.total <= boundary + 1e-9
    binds = abs(report.total - boundary) <= 1e-9
    if binds:
        assert -10.0 * resource._BOUNDARY_MARGIN <= report.per_stage[2] < 0.0
    return report, binds


@pytest.mark.parametrize("family,caps", OPTIMIZER_CASES)
def test_maximize_detectability_matches_scalar_grid(family, caps):
    """At least as good as the scalar-grid oracle, and on the stage-3
    boundary where a dense scan along it puts the optimum."""
    check_optimizer_case(family, caps)


def test_maximize_detectability_random_cases_beat_grid_oracle():
    binding = sum(check_optimizer_case(family, caps)[1]
                  for family, caps in random_optimizer_cases(300, 7, TABLE_RANGES))
    # over these ranges stage 3 always limits the optimum
    assert binding == 300


def test_maximize_detectability_wide_ranges_reach_every_active_set():
    near_zero = 10.0 * resource._BOUNDARY_MARGIN
    active = set()
    solved = 0
    for family, caps in random_optimizer_cases(500, 5, WIDE_RANGES):
        caps = tuple(1.0 if cap > 0.85 else cap for cap in caps)  # sharp stages too
        try:
            report, _ = check_optimizer_case(family, caps)
        except ValueError:
            with pytest.raises(ValueError):
                oracles.detectability_grid_argmax(states.correlation_strength(family), caps)
            continue
        solved += 1
        lams = [lam for _, lam in report.schedule.stages]
        active |= {f"stage{i + 1}" for i, d in enumerate(report.per_stage) if d >= -near_zero}
        active |= {f"cap{i + 1}" for i, (lam, cap) in enumerate(zip(lams, caps)) if lam == cap}
    assert solved >= 50
    assert {"stage2", "stage3", "cap1", "cap2"} <= active


def test_maximize_detectability_matches_golden_section_oracle():
    """Same verdict as the scan-and-search oracle, a total never worse than
    its total, and the same stage-1 sharpness up to the ~sqrt(eps) that a
    search resolves where F is flat at its optimum."""
    wide = [(family, tuple(1.0 if cap > 0.85 else cap for cap in caps))
            for family, caps in random_optimizer_cases(500, 5, WIDE_RANGES)]
    solved = 0
    for family, caps in random_optimizer_cases(300, 7, TABLE_RANGES) + wide:
        strength = states.correlation_strength(family)
        try:
            expected = oracles.golden_section_detectability(strength, caps)
        except ValueError:
            with pytest.raises(ValueError):
                resource.maximize_detectability(family, caps)
            continue
        report = resource.maximize_detectability(family, caps)
        lams = [lam for _, lam in report.schedule.stages]
        assert (sum(oracles.closed_form_detectability(strength, lams))
                <= sum(oracles.closed_form_detectability(strength, expected)) + 1e-15)
        assert lams[0] == pytest.approx(expected[0], abs=1e-6)
        solved += 1
    assert solved >= 350


def test_maximize_detectability_bell():
    report = resource.maximize_detectability(BELL)
    assert report.total == pytest.approx(-0.199759526, abs=1e-9)
    # stage 3 binds, and the vertex of F in u = sqrt(1 - lam1^2) is
    # u = (1 + 3 sqrt(need / g)) / 4 with g = 3
    need = 1.0 + 4.0 * resource._BOUNDARY_MARGIN
    u = (1.0 + 3.0 * math.sqrt(need / 3.0)) / 4.0
    assert report.schedule.stages[0][1] == pytest.approx(math.sqrt(1.0 - u * u), abs=1e-12)
    for (xi, lam), target in zip(report.schedule.stages, (0.730407, 0.801439, 1.0)):
        assert xi == lam
        assert lam == pytest.approx(target, abs=1e-5)
    assert all(d < 0.0 for d in report.per_stage)
    assert -10.0 * resource._BOUNDARY_MARGIN <= report.per_stage[2]


def test_maximize_detectability_capped_stage_three():
    full = resource.maximize_detectability(BELL)
    capped = resource.maximize_detectability(BELL, stage_caps=(1.0, 1.0, 0.9))
    assert abs(capped.total) < abs(full.total)
    assert capped.schedule.stages[2][1] <= 0.9 + 1e-12


EDGE_CAPS = [(1.0, 1.0, 1.0), (1.0, 0.8, 1.0), (1.0, 1.0, 0.9), (0.9, 1.0, 0.95),
             (0.62, 1.0, 1.0), (1.0, 0.75, 0.8)]


def three_stage_edge(caps):
    """Least g at which all three capped stages detect with margin: the
    backward stage map applied twice, each stage also held under its cap."""
    back = sequential._symmetric_edge_before
    cap1, cap2, cap3 = caps
    need = 1.0 + 4.0 * resource._BOUNDARY_MARGIN
    edge2 = max(1.0 / cap2**2, back(1.0 / cap3**2))
    return need * max(1.0 / cap1**2, back(edge2))


@pytest.mark.parametrize("caps", EDGE_CAPS)
def test_maximize_detectability_switches_on_at_the_three_stage_edge(caps):
    edge = three_stage_edge(caps)
    assert 2.410788 <= round(edge, 6) <= 2.950945
    with pytest.raises(ValueError):
        resource.maximize_detectability(states.StateFamily.werner(edge * (1 - 1e-9) / 3), caps)
    report = resource.maximize_detectability(states.StateFamily.werner(edge * (1 + 1e-9) / 3),
                                             caps)
    assert all(d < 0.0 for d in report.per_stage)
    assert all(d <= -resource._BOUNDARY_MARGIN + 1e-15 for d in report.per_stage)
    assert all(lam <= cap for (_, lam), cap in zip(report.schedule.stages, caps))


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("family", [BELL, states.StateFamily.werner(0.95),
                                    states.StateFamily.pure(0.7)])
def test_maximize_detectability_at_a_stage_cap_equal_to_its_least_sharpness(family, stage):
    # cap1 = sqrt(need / g), computed as the optimizer computes stage 1's
    # least detecting sharpness lo; for stage 2, cap2 is stage 2's least
    # sharpness after stage 1 at cap1, computed as stage_two computes it.
    # The capped stage's window is then the single point lam = cap, and one
    # ulp below it no schedule has every stage detecting.
    need = 1.0 + 4.0 * resource._BOUNDARY_MARGIN
    g = states.correlation_strength(family)
    caps = [math.sqrt(need / g), 1.0, 1.0]
    if stage == 2:
        s1 = sequential.average_shrink(caps[0])
        caps[1] = math.sqrt(need / (g * s1 * s1))
    report = resource.maximize_detectability(family, tuple(caps))
    assert report.schedule.stages[:stage] == tuple((cap, cap) for cap in caps[:stage])
    assert all(d < 0.0 for d in report.per_stage)
    caps[stage - 1] = math.nextafter(caps[stage - 1], 0.0)
    with pytest.raises(ValueError, match="admits no 3-stage schedule"):
        resource.maximize_detectability(family, tuple(caps))


def test_maximize_detectability_rejects_weak_family():
    with pytest.raises(ValueError):
        resource.maximize_detectability(states.StateFamily.werner(0.5))


@pytest.mark.parametrize("family", [states.StateFamily.werner(0.3), states.StateFamily.werner(1 / 3),
                                    states.StateFamily.colored(0.5), states.StateFamily.colored(0.2)])
def test_maximize_detectability_names_states_no_stage_detects(family):
    # g < 1: not even stage 1 detects, which must reach the optimizer's own message
    with pytest.raises(ValueError, match="admits no 3-stage schedule"):
        resource.maximize_detectability(family)


@pytest.mark.parametrize("caps", [(1.0, 1.0, 1.5), (0.0, 1.0, 1.0), (1.0, -0.5, 1.0),
                                  (1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
def test_maximize_detectability_rejects_caps_outside_unit_interval(caps):
    # a cap outside (0, 1], or other than three caps
    with pytest.raises(ValueError, match="stage caps must"):
        resource.maximize_detectability(BELL, caps)


def test_maximize_detectability_memory_stays_small():
    # the solve holds a few floats and at most a dozen scored candidates;
    # the report comes from the scalar recursion on g
    resource.maximize_detectability(BELL)
    tracemalloc.start()
    try:
        resource.maximize_detectability(BELL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


def test_total_rom():
    report = resource.detectability(best_chain())
    assert resource.total_rom(report.schedule) == pytest.approx(5.06, abs=1e-12)
    all_sharp = sequential.SharpnessSchedule(((1.0, 1.0),) * 3)
    assert resource.total_rom(all_sharp) == 6.0
    single = sequential.SharpnessSchedule(((0.4, 0.4),))
    assert resource.total_rom(single) == pytest.approx(0.8)


def test_solve_matching_parameter_values():
    schedule = best_chain().schedule
    p_w = resource.solve_matching_parameter("werner", schedule, -0.20)
    assert p_w == pytest.approx(0.582938, abs=1e-6)
    p_c = resource.solve_matching_parameter("colored", schedule, -0.20)
    assert p_c == pytest.approx(0.687204, abs=1e-6)
    theta = resource.solve_matching_parameter("pure", schedule, -0.20)
    assert math.sin(2 * theta) == pytest.approx(0.374407, abs=1e-6)


def test_solve_matching_parameter_reproduces_target():
    schedule = best_chain().schedule
    for kind in ("werner", "colored", "pure"):
        param = resource.solve_matching_parameter(kind, schedule, -0.20)
        assert summed_expectation(kind, schedule, param) == pytest.approx(-0.20, abs=1e-9)


def test_solve_matching_parameter_no_root():
    schedule = best_chain().schedule
    with pytest.raises(ValueError):
        resource.solve_matching_parameter("werner", schedule, -5.0)
    # no stage, no root: the summed detectability is 0 for every parameter
    for kind in ("werner", "colored", "pure"):
        with pytest.raises(ValueError):
            resource.solve_matching_parameter(kind, sequential.SharpnessSchedule(()), 0.0)


def bisect_matching_parameter(kind, schedule, target_detectability):
    """Family parameter at which one copy per stage, measured with the
    schedule, sums to the target detectability: a bisection to 1e-10 over
    full state builds and materialized modulated witnesses.  Returns p for
    werner/colored and theta for pure."""
    if kind not in (states.WERNER, states.COLORED, states.PURE):
        raise ValueError("matching parameter applies to werner, colored and pure families")
    w = witness.family_witness(kind)
    mods = [witness.modulate(w, xi, lam) for xi, lam in schedule.stages]

    def total(param):
        rho = states.build(states.StateFamily(kind, param))
        return sum(witness.expectation(m, rho) for m in mods)

    lo, hi = (1e-9, 1.0) if kind != states.PURE else (1e-9, math.pi / 4.0 - 1e-9)
    f_lo, f_hi = total(lo) - target_detectability, total(hi) - target_detectability
    if f_lo * f_hi > 0.0:
        raise ValueError("target detectability is not reachable within the parameter range")
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if (total(mid) - target_detectability) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_matching_parameter_at_both_ends_of_its_range():
    # one stage at (1, lam) and target D give werner p = (1 - 4 D) / (3 lam)
    def match(lam, target):
        schedule = sequential.SharpnessSchedule(((1.0, lam),))
        return resource.solve_matching_parameter("werner", schedule, target)

    # the top, p = 1, at D = -1/2 and lam = 1; one step of D lower, p > 1
    assert match(1.0, -0.5) == 1.0
    with pytest.raises(ValueError, match="not reachable"):
        match(1.0, math.nextafter(-0.5, -1.0))
    # the bottom, p = 1e-9: 1 - 4 D = 2^-53 and lam = 2^-53 / 3e-9 give it
    # exactly; the next lam up gives one ulp less
    target, lam = 0.25 - 2.0**-55, 2.0**-53 / 3e-9
    assert match(lam, target) == 1e-9
    with pytest.raises(ValueError, match="not reachable"):
        match(math.nextafter(lam, 1.0), target)


def test_solve_matching_parameter_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    brackets = {"werner": (1e-9, 1.0), "colored": (1e-9, 1.0),
                "pure": (1e-9, math.pi / 4.0 - 1e-9)}
    solved = rejected = 0
    signs = set()
    for kind, (lo, hi) in brackets.items():
        for case in range(115):
            n = int(rng.integers(1, 6))
            stages = tuple((float(xi), float(lam))
                           for xi, lam in rng.uniform(0.01, 1.0, size=(n, 2)))
            schedule = sequential.SharpnessSchedule(stages)
            ends = (summed_expectation(kind, schedule, lo), summed_expectation(kind, schedule, hi))
            if case < 10:
                # just inside and just outside both ends of the bracket
                targets = [end + delta for end in ends for delta in (-1e-5, 1e-5)]
            else:
                # strengths from -1.5 to 3.5 cover every family's range and beyond
                products = sum(xi * lam for xi, lam in stages)
                targets = [float((n - rng.uniform(-1.5, 3.5) * products) / 4.0)]
            for target in targets:
                if min(abs(target - end) for end in ends) < 1e-6:
                    continue
                try:
                    expected = bisect_matching_parameter(kind, schedule, target)
                except ValueError:
                    with pytest.raises(ValueError):
                        resource.solve_matching_parameter(kind, schedule, target)
                    rejected += 1
                    continue
                got = resource.solve_matching_parameter(kind, schedule, target)
                assert abs(got - expected) <= 1e-10, (kind, stages, target)
                solved += 1
                signs.add(target > 0.0)
    assert solved >= 150 and rejected >= 100
    assert signs == {True, False}


def test_family_witnesses_carry_no_single_wing_terms():
    # the closed-form matching parameter rests on (1 - xi lam g) / 4 per stage
    for kind in ("werner", "colored", "pure"):
        c = witness.family_witness(kind).coefficients
        assert c[0, 0] == 0.25
        assert not c[0, 1:].any() and not c[1:, 0].any()


def test_werner_symbolic_identity():
    # three copies measured with (xi_i, lam_i): D = (3 - 3p sum(xi_i lam_i)) / 4
    schedule = sequential.SharpnessSchedule(((0.73, 0.73), (0.8, 0.8), (1.0, 1.0)))
    for p in np.linspace(0.1, 1.0, 7):
        total = summed_expectation("werner", schedule, float(p))
        products = sum(xi * lam for xi, lam in schedule.stages)
        assert total == pytest.approx((3 - 3 * p * products) / 4, abs=1e-12)


def test_entanglement_budget_values():
    assert resource.entanglement_budget(states.StateFamily.werner(0.582938), 3) == pytest.approx(1.12, abs=0.02)
    assert resource.entanglement_budget(states.StateFamily.colored(0.687204), 3) == pytest.approx(1.14, abs=0.02)
    with pytest.raises(ValueError):
        resource.entanglement_budget(BELL, 0)


def test_entanglement_budget_of_one_copy_is_the_concurrence():
    # the least copy count: 1 is taken, 0 refused
    family = states.StateFamily.werner(0.9)
    assert resource.entanglement_budget(family, 1) == states.concurrence_closed_form(family)


def test_min_total_rom_values():
    assert resource.min_total_rom("werner", 1.0, -0.20) == pytest.approx(5.198436, abs=2e-4)
    assert resource.min_total_rom("colored", 1.0, -0.20) == pytest.approx(5.176027, abs=2e-4)
    assert resource.min_total_rom("pure", 1.0, -0.20) == pytest.approx(5.198436, abs=2e-4)


def test_min_rom_internals():
    sol = resource._solve_min_rom("werner", 1.0, -0.20)
    assert sol.param == pytest.approx(5 / 9, abs=1e-12)
    assert sol.quadratic_constraint == pytest.approx(2.28, abs=1e-9)
    assert sol.per_pair_floor == pytest.approx(math.sqrt(0.6), abs=1e-12)
    assert sol.lambdas[0] == pytest.approx(1.0, abs=1e-9)
    sol_c = resource._solve_min_rom("colored", 1.0, -0.20)
    assert sol_c.param == 0.67
    assert sol_c.quadratic_constraint == pytest.approx(2.261905, abs=1e-6)


@pytest.mark.parametrize("kind,budget,target", [
    ("werner", 1.0, -0.20), ("colored", 1.0, -0.20), ("pure", 1.0, -0.20),
    ("werner", 0.5, -0.20), ("colored", 1.5, -0.20), ("pure", 2.5, -0.20),
    ("werner", 2.9, -0.35), ("pure", 0.8, -0.10),
])
def test_min_rom_lambdas_match_scalar_scan(kind, budget, target):
    sol = resource._solve_min_rom(kind, budget, target)
    expected = oracles.min_rom_lambdas(sol.quadratic_constraint, sol.per_pair_floor)
    assert sol.lambdas == expected
    assert sol.rom == 2.0 * sum(expected)


def test_min_rom_boundary_enumeration_matches_refined_oracle():
    # the closed-form fill must agree with the oracle's grid-refined answer
    # on random feasible cases of every family
    rng = np.random.default_rng(29)
    checked = 0
    worst = 0.0
    for _ in range(3000):
        kind = ("werner", "colored", "pure")[int(rng.integers(3))]
        budget = float(rng.uniform(0.05, 3.0))
        target = float(rng.uniform(-0.5, 0.2))
        try:
            sol = resource._solve_min_rom(kind, budget, target)
        except ValueError:
            continue
        expected = oracles.min_rom_lambdas(sol.quadratic_constraint, sol.per_pair_floor)
        worst = max(worst, abs(sol.rom - 2.0 * sum(expected)))
        checked += 1
        if checked == 300:
            break
    assert checked == 300
    assert worst <= 4e-15


def test_min_rom_exhaustive_grid_oracle():
    # brute-force scan over ordered triples confirms the boundary solution
    sol = resource._solve_min_rom("werner", 1.0, -0.20)
    c, floor = sol.quadratic_constraint, sol.per_pair_floor
    best = math.inf
    grid = np.linspace(floor, 1.0, 400)
    for l1 in grid:
        for l2 in grid:
            rest = c - l1 * l1 - l2 * l2
            if floor * floor <= rest <= 1.0:
                best = min(best, l1 + l2 + math.sqrt(rest))
    assert sol.rom <= 2 * best + 1e-6


def test_min_rom_bounds():
    rom = resource.min_total_rom("werner", 1.0, -0.20)
    sol = resource._solve_min_rom("werner", 1.0, -0.20)
    assert 2 * math.sqrt(sol.quadratic_constraint) <= rom <= 6.0


@pytest.mark.parametrize("budget,target,copies,message", [
    (0.03, -0.20, 3, "jointly infeasible"),   # C above n
    (1.0, 0.05, 3, "jointly infeasible"),     # C below n floor^2
    (3.3, -0.20, 3, "concurrence"),           # 1.1 ebit per copy
    (1.5, -0.20, 1, "concurrence"),
    (0.0, -0.20, 3, "concurrence"),
    (-1.0, -0.20, 3, "concurrence"),
])
def test_min_rom_infeasible(budget, target, copies, message):
    with pytest.raises(ValueError, match=message):
        resource.min_total_rom("werner", budget, target, copies)


def test_min_rom_takes_one_ebit_per_copy():
    # c = 1, the top of (0, 1]: a werner copy at p = 1, g = 3
    sol = resource._solve_min_rom("werner", 3.0, -0.20)
    assert sol.param == 1.0 and sol.per_pair_floor == 1.0 / math.sqrt(3.0)
    with pytest.raises(ValueError, match="target concurrence"):
        resource._solve_min_rom("werner", math.nextafter(3.0, 4.0), -0.20)


def test_min_rom_joint_feasibility_at_both_ends():
    # at 3 ebits over 3 werner copies g = 3, so the quadratic constraint
    # (3 - 4 D) / 3 must lie in (3 floor^2, 3], floor = 1 / sqrt(3)
    floor = 1.0 / math.sqrt(3.0)
    low, high = 3 * floor**2, 3.0
    # D = -1.5 puts the constraint at 3 exactly: every pair at sharpness 1
    assert (3 - 4 * -1.5) / 3.0 == high
    assert resource._solve_min_rom("werner", 3.0, -1.5).lambdas == (1.0, 1.0, 1.0)
    # one float below -1.5, 3 - 4 D rounds back to 9; two below, it is the
    # float above 9 and the constraint the float above 3
    beyond = -1.5 - 2.0**-51
    assert (3 - 4 * beyond) / 3.0 == math.nextafter(high, 4.0)
    with pytest.raises(ValueError, match="jointly infeasible"):
        resource._solve_min_rom("werner", 3.0, beyond)
    # D = -2^-52 puts it at 3 floor^2 exactly, where every pair sits at the
    # floor and none detects; D = -2^-51 one step above, which is taken
    at_floor, above = -(2.0**-52), -(2.0**-51)
    assert (3 - 4 * at_floor) / 3.0 == low < (3 - 4 * above) / 3.0
    with pytest.raises(ValueError, match="jointly infeasible"):
        resource._solve_min_rom("werner", 3.0, at_floor)
    assert resource._solve_min_rom("werner", 3.0, above).quadratic_constraint > low


def test_min_rom_rejects_a_colored_budget_at_g_one():
    # 0.01 ebits over 3 copies gives a colored parameter that rounds to 0.50,
    # where g = 1, so no pair can detect
    with pytest.raises(ValueError, match="state is too weakly correlated"):
        resource.min_total_rom("colored", 0.01, 0.0)


@pytest.mark.parametrize("copies", [0, -1])
def test_min_rom_needs_a_copy(copies):
    with pytest.raises(ValueError, match="need at least one copy"):
        resource.min_total_rom("werner", 1.0, -0.20, copies)
    with pytest.raises(ValueError, match="need at least one copy"):
        resource._solve_min_rom("pure", 1.0, -0.20, copies)


@pytest.mark.parametrize("copies", [2.5, 3.0])
@pytest.mark.parametrize("run", [
    lambda copies: resource.entanglement_budget(states.StateFamily.werner(0.9), copies),
    lambda copies: resource.min_total_rom("werner", 1.0, -0.20, copies=copies),
], ids=["entanglement_budget", "min_total_rom"])
def test_non_integral_copy_counts_are_refused(run, copies):
    # the budget would otherwise price 2.5 copies, and the minimization fail
    # deep in its fill on a float count
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run(copies)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["werner", "colored", "pure"])
def test_min_rom_rejects_non_finite_input(kind, value):
    with pytest.raises(ValueError, match="must be finite"):
        resource.min_total_rom(kind, value, -0.20)
    with pytest.raises(ValueError, match="must be finite"):
        resource.min_total_rom(kind, 1.0, value)


def test_greedy_fill_matches_boundary_enumeration_on_random_cases():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(20_000):
        copies = int(rng.integers(1, 7))
        floor = float(rng.uniform(0.0, 1.0))
        constraint = float(rng.uniform(copies * floor * floor, copies))
        if not copies * floor**2 < constraint <= copies:
            continue
        assert (resource._greedy_fill(constraint, floor, copies)
                == oracles.boundary_pattern_lambdas(constraint, floor, copies))
        checked += 1
    assert checked >= 19_990


def edge_cases(floors):
    """(constraint, floor, copies) within 0, 1, 2 and 4 ulps either side of
    every pattern edge k + (copies - k) floor^2, inside (copies floor^2,
    copies]."""
    for floor in floors:
        for copies in range(1, 7):
            for k in range(copies + 1):
                edge = k + (copies - k) * floor * floor
                for ulps in (0, 1, 2, 4):
                    for direction in (math.inf, -math.inf):
                        c = edge
                        for _ in range(ulps):
                            c = math.nextafter(c, direction)
                        if copies * floor**2 < c <= copies:
                            yield c, floor, copies


_TINY_FLOOR = 2.0**-30
_NEAR_ONE_FLOOR = math.nextafter(1.0, 0.0)


@pytest.mark.parametrize("constraint,floor,copies,expected", [
    # A difference of exactly 1e-12 from the pinned pattern's sum of squares
    # is representable only below ~2e-12, so one copy at a floor of 2^-30:
    # the pinned floor counts strictly within 1e-12, else the free lambda wins.
    (_TINY_FLOOR**2 + 1e-12, _TINY_FLOOR, 1, (math.sqrt(_TINY_FLOOR**2 + 1e-12),)),
    (math.nextafter(_TINY_FLOOR**2 + 1e-12, 0.0), _TINY_FLOOR, 1, (_TINY_FLOOR,)),
    # A free lambda exactly at the floor counts: at the floor an ulp below 1
    # and a constraint 4 ulps below 3, the one-cap pattern's free lambda is
    # the floor, and it is the first least sum.
    (2.9999999999999996, _NEAR_ONE_FLOOR, 3, (1.0, _NEAR_ONE_FLOOR, _NEAR_ONE_FLOOR)),
], ids=["1e-12 from pinned", "under 1e-12 from pinned", "free lambda at the floor"])
def test_greedy_fill_at_its_candidate_guards_end_points(constraint, floor, copies, expected):
    assert resource._greedy_fill(constraint, floor, copies) == expected


def test_greedy_fill_matches_boundary_enumeration_at_pattern_edges():
    # At an edge the enumeration's patterns with two or more free lambdas
    # tie the fill in exact arithmetic and can undercut it by rounding, so
    # the fill matches the enumeration of patterns with at most one free
    # lambda exactly, and the full enumeration's sum within the rounding of
    # the free lambda, sqrt of a difference of sums of up to six squares.
    rng = np.random.default_rng(43)
    floors = [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0), 0.5, 0.1]
    floors += [float(f) for f in rng.uniform(0.01, 0.99, 60)]
    checked = 0
    for c, floor, copies in edge_cases(floors):
        fill = resource._greedy_fill(c, floor, copies)
        assert fill == oracles.boundary_pattern_lambdas(c, floor, copies, max_free=1)
        full = oracles.boundary_pattern_lambdas(c, floor, copies)
        assert 0.0 <= sum(fill) - sum(full) <= 8 * copies * math.ulp(copies) / floor
        checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("floor", [
    1e-12, 0.3, 1.0 / math.sqrt(3.0), 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-14,
    math.nextafter(1.0, 0.0),
])
def test_greedy_fill_finds_a_feasible_point_everywhere(floor):
    # Down to a floor an ulp below the cap, where the whole slice lies
    # within 1e-12 of every pattern edge, some scored pattern fits.
    rng = np.random.default_rng(47)
    for copies in range(1, 7):
        lo = copies * floor**2
        cases = [math.nextafter(lo, math.inf), float(copies)]
        cases += [c for c, _, n in edge_cases([floor]) if n == copies]
        cases += [float(c) for c in rng.uniform(lo, copies, 50) if lo < c <= copies]
        for c in cases:
            fill = resource._greedy_fill(c, floor, copies)
            assert len(fill) == copies
            assert list(fill) == sorted(fill, reverse=True)
            assert all(floor <= lam <= 1.0 for lam in fill)
            assert abs(sum(lam * lam for lam in fill) - c) < 1e-12


def test_comparison_tables_shape_and_sequential_row():
    tab1, tab2 = resource.build_comparison_tables()
    assert len(tab1) == 4 and len(tab2) == 4
    for table in (tab1, tab2):
        seq_row = table[0]
        assert seq_row.family == "sequential"
        assert seq_row.detectability == pytest.approx(-0.20, abs=1e-12)
        assert seq_row.total_rom == pytest.approx(5.06, abs=1e-12)
        assert seq_row.eta_ebits == 1.0
        assert sum(r.family != "sequential" for r in table) == 3


def test_comparison_tables_values():
    tab1, tab2 = resource.build_comparison_tables()
    by_family_1 = {r.family: r for r in tab1}
    assert by_family_1["werner"].matching_parameter == pytest.approx(0.58, abs=0.01)
    assert by_family_1["colored"].matching_parameter == pytest.approx(0.69, abs=0.01)
    assert by_family_1["werner"].eta_ebits == pytest.approx(1.12, abs=0.02)
    assert by_family_1["colored"].eta_ebits == pytest.approx(1.14, abs=0.02)
    assert by_family_1["pure"].eta_ebits == pytest.approx(1.11, abs=0.02)
    by_family_2 = {r.family: r for r in tab2}
    assert by_family_2["werner"].total_rom == pytest.approx(5.20, abs=0.03)
    assert by_family_2["colored"].total_rom == pytest.approx(5.18, abs=0.03)
    assert by_family_2["pure"].total_rom == pytest.approx(5.20, abs=0.03)
    assert by_family_2["werner"].quadratic_constraint == pytest.approx(2.28, abs=0.01)
    assert by_family_2["colored"].quadratic_constraint == pytest.approx(2.26, abs=0.01)


def test_table1_eta_agrees_across_families():
    # eta = 3 (g - 1) / 2 for every family at the matched strength g
    tab1, _ = resource.build_comparison_tables()
    etas = [row.eta_ebits for row in tab1[1:]]
    assert max(etas) - min(etas) <= 1e-12


def test_comparison_tables_sequential_advantage():
    tab1, tab2 = resource.build_comparison_tables()
    for row in tab1[1:]:
        assert row.eta_ebits > 1.0
    for row in tab2[1:]:
        assert row.total_rom > 5.06


def test_comparison_tables_paper_rounded_columns():
    # every noisy row derives its cascade, and every row of both tables hashes
    tab1, tab2 = resource.build_comparison_tables()
    by_family = {r.family: r for r in tab1}
    assert by_family["colored"].paper_rounded["eta_ebits"] == pytest.approx(1.14)
    by_family = {r.family: r for r in tab2}
    assert by_family["werner"].paper_rounded["total_rom"] == pytest.approx(5.20)
    assert by_family["colored"].paper_rounded["quadratic_constraint"] == pytest.approx(2.26)
    assert [r.paper_rounded is None for r in tab1 + tab2] == [True, False, False, False] * 2
    assert len(set(tab1 + tab2)) == 8
    with pytest.raises(TypeError, match="unexpected keyword argument 'paper_rounded'"):
        resource.build_comparison_tables(paper_rounded=True)


def test_closed_form_report_matches_matrix_chain():
    # the recursion e_i = (1 - xi_i lam_i g_i)/4 that detectability reads off
    # a fixed schedule, a greedy symmetric chain and a greedy asymmetric one
    # (one-sided stages at xi = 1), against the witness on the carried states;
    # zero-slack stages read 0 up to round-off, so no sign is asserted.  The
    # optimizer and the tables run fixed schedules without states.
    rng = np.random.default_rng(29)
    ranges = {"bell": None, "werner": (1e-6, 1.0), "colored": (1e-6, 1.0),
              "pure": (1e-6, math.pi / 4.0 - 1e-6)}
    one_sided = 0
    for _ in range(300):
        kind = str(rng.choice(list(ranges)))
        param = None if kind == "bell" else float(rng.uniform(*ranges[kind]))
        family = states.StateFamily(kind, param)
        lams = tuple(float(v) for v in rng.uniform(1e-3, 1.0, size=rng.integers(1, 5)))
        fixed = sequential.run_symmetric_schedule(family, lams)
        stateless = sequential._run_chain(family, None, len(lams),
                                          lambda t, stage, _: lams[stage - 1])
        assert resource.detectability(stateless) == resource.detectability(fixed)
        first, later = (float(v) for v in rng.uniform(0.0, 0.1, size=2))
        policy = sequential.EpsilonPolicy(first, later * bool(rng.integers(2)),
                                          bool(rng.integers(2)))
        chains = (fixed, sequential.greedy_symmetric(family, policy),
                  sequential.greedy_asymmetric(int(rng.integers(1, 5)), family, policy))
        for chain in chains:
            if chain.detected_stages == 0:
                continue
            report = resource.detectability(chain)
            matrix = witness_on_carried_states(chain)
            assert report.schedule == chain.schedule
            assert len(report.per_stage) == len(matrix) == chain.detected_stages
            for got, want in zip(report.per_stage, matrix):
                assert abs(got - want) <= 1e-15, (kind, param, chain.schedule)
            assert abs(report.total - sum(matrix)) <= 1e-15
            one_sided += sum(xi == 1.0 for xi, _ in chain.schedule.stages[1:])
    assert one_sided > 100


def test_total_rom_sums_measurement_rom_over_both_wings():
    # RoM = sharpness: every observer's unsharp spin measurement adds its sharpness
    rng = np.random.default_rng(31)
    for _ in range(100):
        stages = tuple((float(xi), float(lam))
                       for xi, lam in rng.uniform(1e-3, 1.0, size=(rng.integers(1, 6), 2)))
        schedule = sequential.SharpnessSchedule(stages)
        by_observer = 0.0
        for xi, lam in stages:
            for sharpness in (xi, lam):
                d = rng.normal(size=3)
                by_observer += oracles.rom(d / np.linalg.norm(d), sharpness)
        assert resource.total_rom(schedule) == pytest.approx(by_observer, abs=1e-12)
