import math
import random

import numpy as np
import pytest

from seqwitness import sequential as seq
from seqwitness import qcore, states, witness

import oracles


def eq14_parameter(xi, lam):
    return (1 + 2 * math.sqrt(1 - xi * xi)) * (1 + 2 * math.sqrt(1 - lam * lam)) / 9


BELL = states.StateFamily.bell()


def test_two_sided_channel_matches_closed_form_on_bell():
    rho = states.build(BELL)
    for xi, lam in [(0.3, 0.9), (0.58, 0.58), (1.0, 1.0)]:
        out = seq.average_two_sided(rho, xi, lam)
        expected = states.build(states.StateFamily.werner(eq14_parameter(xi, lam)))
        assert oracles.trace_distance(out.matrix, expected.matrix) < 1e-12


def test_two_sided_channel_multiplies_werner_parameter():
    for p in (0.4, 0.85):
        rho = states.build(states.StateFamily.werner(p))
        out = seq.average_two_sided(rho, 0.7, 0.6)
        expected = states.build(states.StateFamily.werner(p * eq14_parameter(0.7, 0.6)))
        assert oracles.trace_distance(out.matrix, expected.matrix) < 1e-12


def test_two_sided_channel_weak_limit():
    rho = states.build(BELL)
    out = seq.average_two_sided(rho, 1e-6, 1e-6)
    assert oracles.trace_distance(out.matrix, rho.matrix) < 1e-6


def test_channels_are_unital():
    mixed = np.eye(4) / 4
    out = seq.average_two_sided(mixed, 0.8, 0.33)
    assert np.max(np.abs(out.matrix - mixed)) < 1e-14
    out = seq.average_one_sided(mixed, 0.52)
    assert np.max(np.abs(out.matrix - mixed)) < 1e-14


def test_channels_match_kraus_oracle_on_generic_states():
    rng = np.random.default_rng(7)
    worst_two = worst_one = 0.0
    for _ in range(200):
        rho = oracles.random_density_matrix(rng, 4)
        xi, lam = 1.0 - rng.uniform(size=2)  # in (0, 1]
        two = seq.average_two_sided(rho, xi, lam).matrix
        one = seq.average_one_sided(rho, lam).matrix
        worst_two = max(worst_two, np.max(np.abs(two - oracles.kraus_two_sided(rho, xi, lam))))
        worst_one = max(worst_one, np.max(np.abs(one - oracles.kraus_one_sided(rho, lam))))
    assert worst_two < 1e-14
    assert worst_one < 1e-14


def test_one_sided_channel_closed_form():
    for p, lam in [(0.9, 0.44), (0.6, 1.0)]:
        rho = states.build(states.StateFamily.werner(p))
        out = seq.average_one_sided(rho, lam)
        expected = states.build(states.StateFamily.werner(p * seq.average_shrink(lam)))
        assert oracles.trace_distance(out.matrix, expected.matrix) < 1e-12


def test_one_sided_channel_weak_and_sharp_limits():
    rho = states.build(BELL)
    out = seq.average_one_sided(rho, 1e-6)
    assert oracles.trace_distance(out.matrix, rho.matrix) < 1e-6
    out = seq.average_one_sided(rho, 1.0)
    expected = states.build(states.StateFamily.werner(1 / 3))
    assert oracles.trace_distance(out.matrix, expected.matrix) < 1e-12


def test_channels_reject_non_hermitian_and_two_by_two_input():
    skewed = (np.eye(4) / 4).astype(complex)
    skewed[0, 1] = 0.1
    for bad in (skewed, np.eye(2) / 2):
        with pytest.raises(ValueError):
            seq.average_two_sided(bad, 0.7, 0.6)
        with pytest.raises(ValueError):
            seq.average_one_sided(bad, 0.6)


@pytest.mark.parametrize("bad", [-0.5, 0.0, 2.0, math.nan])
def test_channels_reject_sharpness_outside_the_unit_interval(bad):
    # -0.5 would act as 0.5, 0 would pass as the identity channel, and 2.0
    # would fail inside the square root of average_shrink
    rho = states.build(BELL)
    for run in (lambda: seq.average_two_sided(rho, bad, 0.5),
                lambda: seq.average_two_sided(rho, 0.5, bad),
                lambda: seq.average_one_sided(rho, bad)):
        with pytest.raises(ValueError, match=r"sharpness must lie in \(0, 1\]"):
            run()


def test_violation_threshold_bell():
    w = witness.witness_psi_plus()
    t = seq.violation_threshold(w, states.build(BELL))
    assert t == pytest.approx(1 / 3, abs=1e-12)


def test_violation_threshold_second_stage():
    w = witness.witness_psi_plus()
    rho = seq.average_two_sided(states.build(BELL), 0.58, 0.58)
    t = seq.violation_threshold(w, rho)
    assert t == pytest.approx(3 / (9 * eq14_parameter(0.58, 0.58)), abs=1e-12)
    assert round(t, 2) == 0.43


def test_violation_threshold_impossible():
    w = witness.witness_psi_plus()
    separable = states.build(states.StateFamily.werner(0.2))
    assert seq.violation_threshold(w, separable) > 1.0
    k00 = oracles.ket(0)
    assert seq.violation_threshold(w, np.outer(k00, k00.conj())) == math.inf


def test_violation_threshold_and_expectation_reject_one_qubit_states():
    # a one-qubit state is refused as a DensityMatrix, and as a raw array by
    # the Pauli coefficients both routes read
    w = witness.witness_psi_plus()
    qubit = np.eye(2) / 2
    with pytest.raises(ValueError, match="density matrix must be 4x4"):
        qcore.DensityMatrix(qubit)
    with pytest.raises(ValueError, match="Pauli coefficients need a Hermitian 4x4 matrix"):
        seq.violation_threshold(w, qubit)
    with pytest.raises(ValueError, match="Pauli coefficients need a Hermitian 4x4 matrix"):
        witness.expectation(w, qubit)
    with pytest.raises(ValueError, match="concurrence is defined for two-qubit states"):
        qcore.concurrence_wootters(qubit)


def test_violation_threshold_rejects_modulated_witness():
    w = witness.modulate(witness.witness_psi_plus(), 0.9, 0.9)
    with pytest.raises(ValueError):
        seq.violation_threshold(w, states.build(BELL))


def _chain_products():
    reports = []
    for family in (BELL, states.StateFamily.werner(0.9)):
        for rounding in (False, True):
            symmetric = seq.EpsilonPolicy(paper_rounding=rounding)
            asymmetric = seq.EpsilonPolicy.asymmetric_default(paper_rounding=rounding)
            reports.append(seq.greedy_symmetric(family, symmetric))
            reports += [seq.greedy_asymmetric(a, family, asymmetric) for a in (2, 3, 4)]
    return {xi * lam for report in reports for xi, lam in report.schedule.stages}


def test_symmetric_sharpness_maximizes_survival_on_constraint_curve():
    """xi = lam = sqrt(p) maximizes s(xi) s(lam) on xi * lam = p, so a greedy
    two-sided stage disturbs the state least at the symmetric point."""
    rng = np.random.default_rng(11)
    products = set(1.0 - rng.uniform(size=500)) | {1.0} | _chain_products()
    assert len(products) > 501
    for p in products:
        symmetric = seq.average_shrink(math.sqrt(p)) ** 2
        for xi in np.linspace(p, 1.0, 201):
            lam = p / xi
            if lam > 1.0:
                continue
            assert seq.average_shrink(xi) * seq.average_shrink(lam) <= symmetric + 1e-6


def test_epsilon_policy_sharpness_stops_at_threshold_one():
    for policy in (seq.EpsilonPolicy(), seq.EpsilonPolicy(paper_rounding=True)):
        for two_sided in (False, True):
            assert policy.sharpness(1.0, 1, two_sided) is None
            assert policy.sharpness(math.inf, 2, two_sided) is None


def test_epsilon_policy_sharpness_paper_rounding_snaps_to_grid():
    policy = seq.EpsilonPolicy(paper_rounding=True)
    assert policy.sharpness(1 / 3, 1, True) == 0.58
    assert policy.sharpness(0.4, 2, False) == 0.41


def test_paper_rounding_snaps_both_sidednesses_by_one_grid_rule():
    # the grid guard is 1e-9 on the percent scale: a threshold, or a
    # two-sided threshold's root, 1e-12 below 0.35 snaps past it, and one
    # 1e-10 below stays on it, on either side alike
    policy = seq.EpsilonPolicy(paper_rounding=True)
    for below, expected in ((1e-12, 0.36), (1e-10, 0.35)):
        root = 0.35 - below
        assert policy.sharpness(root, 2, False) == expected
        assert policy.sharpness(root * root, 2, True) == expected


def test_epsilon_policy_sharpness_slack_by_stage():
    policy = seq.EpsilonPolicy(first_stage_slack=0.01, later_stage_slack=0.0)
    assert policy.sharpness(0.5, 1, True) == math.sqrt(0.51)
    assert policy.sharpness(0.5, 2, True) == math.sqrt(0.5)


def test_epsilon_policy_validation():
    with pytest.raises(ValueError):
        seq.EpsilonPolicy(first_stage_slack=0.2)
    with pytest.raises(ValueError):
        seq.EpsilonPolicy(later_stage_slack=-0.01)
    # paper_rounding must equal True or False: a truthy string such as "no"
    # would otherwise turn grid rounding on
    for value in ("no", "yes", "", None, 2, 0.5):
        with pytest.raises(ValueError, match="paper_rounding"):
            seq.EpsilonPolicy(paper_rounding=value)
        with pytest.raises(ValueError, match="paper_rounding"):
            seq.EpsilonPolicy.asymmetric_default(paper_rounding=value)
    for value, stored in ((1, True), (0, False), (np.True_, True), (np.False_, False)):
        assert seq.EpsilonPolicy(paper_rounding=value).paper_rounding is stored


def test_sharpness_for_shrink_inverts_average_shrink():
    # average_shrink turns one ulp of lam into |ds/dlam| ulp(1), which grows
    # without bound as s nears 1/3 (lam near 1); from s = 1/2 up the round
    # trip is within a few ulps of s
    rng = np.random.default_rng(31)
    draws = np.concatenate([np.linspace(1 / 3, 1.0, 2001), rng.uniform(1 / 3, 1.0, 2000)])
    for s in draws.tolist():
        lam = seq._sharpness_for_shrink(s)
        u = (3.0 * s - 1.0) / 2.0
        slope = 2.0 * lam / (3.0 * u) if u > 0.0 else 0.0
        err = abs(seq.average_shrink(lam) - s)
        assert err <= 4 * math.ulp(s) + slope * math.ulp(1.0), s
        assert s < 0.5 or err <= 4 * math.ulp(s), s


def test_sharpness_for_shrink_clips_outside_the_range_of_average_shrink():
    for s in (1.0, 1.0 + 1e-12, 1.5, math.inf):
        assert seq._sharpness_for_shrink(s) == 0.0
    for s in (1 / 3, 1 / 3 - 1e-12, 0.0, -1.0, -math.inf):
        assert seq._sharpness_for_shrink(s) == 1.0


def test_greedy_symmetric_paper_rounding_schedule():
    report = seq.greedy_symmetric(BELL, seq.EpsilonPolicy(paper_rounding=True))
    assert report.detected_stages == 3
    assert report.schedule.stages == ((0.58, 0.58), (0.66, 0.66), (0.79, 0.79))
    assert len(report.thresholds) == 4
    assert 1.10 <= report.thresholds[3] <= 1.16


def test_greedy_symmetric_full_precision_schedule():
    report = seq.greedy_symmetric(BELL)
    assert report.detected_stages == 3
    for (xi, lam), target in zip(report.schedule.stages, (0.58, 0.66, 0.79)):
        assert xi == lam
        assert abs(xi - target) <= 0.02
    assert report.thresholds[3] > 1.0


def test_greedy_symmetric_thresholds_strictly_increase():
    for policy in (seq.EpsilonPolicy(), seq.EpsilonPolicy(paper_rounding=True)):
        ts = seq.greedy_symmetric(BELL, policy).thresholds
        assert all(a < b for a, b in zip(ts, ts[1:]))


def test_greedy_symmetric_stage_expectations_negative():
    report = seq.greedy_symmetric(BELL, seq.EpsilonPolicy(paper_rounding=True))
    w = witness.witness_psi_plus()
    for (xi, lam), rho in zip(report.schedule.stages, report.states):
        assert witness.expectation(witness.modulate(w, xi, lam), rho) < 0.0
    # the stage after the last detecting one fails even at full sharpness
    final = seq.average_two_sided(report.states[-1], *report.schedule.stages[-1])
    assert witness.expectation(witness.modulate(w, 1.0, 1.0), final) >= 0.0


def test_greedy_symmetric_werner_counts():
    assert seq.greedy_symmetric(states.StateFamily.werner(0.9)).detected_stages == 3
    assert seq.greedy_symmetric(states.StateFamily.werner(0.5)).detected_stages == 1
    report = seq.greedy_symmetric(states.StateFamily.werner(0.3))
    assert report.detected_stages == 0
    assert report.thresholds[0] > 1.0
    assert report.schedule == seq.SharpnessSchedule(())  # an empty schedule stays valid


def test_greedy_symmetric_count_stable_over_policy_range():
    for first in (0.0, 0.01, 0.02):
        for later in (0.0, 0.01, 0.02):
            for rounding in (False, True):
                policy = seq.EpsilonPolicy(first, later, rounding)
                assert seq.greedy_symmetric(BELL, policy).detected_stages == 3


def test_greedy_symmetric_max_stages_cap():
    report = seq.greedy_symmetric(BELL, max_stages=2)
    assert report.detected_stages == 2
    assert len(report.thresholds) == len(report.states) == 2
    # a cap below 1 would give an empty report, read as "detects nothing"
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_stages"):
            seq.greedy_symmetric(BELL, max_stages=cap)


def test_greedy_symmetric_infeasible_stop_records_one_more_threshold():
    report = seq.greedy_symmetric(BELL)
    assert len(report.thresholds) == report.detected_stages + 1
    assert report.thresholds[-1] >= 1.0
    assert len(report.states) == report.detected_stages


@pytest.mark.parametrize("alices,expected", [(1, 12), (2, 8), (3, 5), (4, 3)])
def test_greedy_asymmetric_counts(alices, expected):
    for rounding in (False, True):
        policy = seq.EpsilonPolicy.asymmetric_default(paper_rounding=rounding)
        report = seq.greedy_asymmetric(alices, BELL, policy)
        assert report.detected_stages == expected


def test_greedy_asymmetric_counts_stable_over_first_slack():
    for first in (0.0, 0.01, 0.02):
        policy = seq.EpsilonPolicy(first, 0.0, False)
        assert seq.greedy_asymmetric(2, BELL, policy).detected_stages == 8
        assert seq.greedy_asymmetric(1, BELL, policy).detected_stages == 12


def test_greedy_asymmetric_two_alice_sequence():
    printed = (0.44, 0.47, 0.51, 0.56, 0.63, 0.74, 0.95)
    rounded = seq.greedy_asymmetric(
        2, BELL, seq.EpsilonPolicy.asymmetric_default(paper_rounding=True))
    assert rounded.schedule.stages[0] == (0.58, 0.58)
    assert tuple(lam for _, lam in rounded.schedule.stages[1:]) == printed
    full = seq.greedy_asymmetric(2, BELL)
    for (xi, lam), target in zip(full.schedule.stages[1:], printed):
        assert xi == 1.0
        assert abs(lam - target) <= 0.01


def test_greedy_asymmetric_one_alice_is_purely_one_sided():
    report = seq.greedy_asymmetric(1, BELL)
    assert all(xi == 1.0 for xi, _ in report.schedule.stages)


def test_greedy_asymmetric_thresholds_increase():
    report = seq.greedy_asymmetric(2, BELL)
    ts = report.thresholds
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_greedy_asymmetric_max_bobs_cap():
    report = seq.greedy_asymmetric(3, BELL, max_bobs=1)
    assert report.detected_stages == 1
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_bobs"):
            seq.greedy_asymmetric(2, BELL, max_bobs=cap)
    with pytest.raises(ValueError, match="need at least one observer on the first wing"):
        seq.greedy_asymmetric(0, BELL)


@pytest.mark.parametrize("run", [
    lambda: seq.greedy_symmetric(states.StateFamily.werner(0.9), max_stages=2.5),
    lambda: seq.greedy_asymmetric(1, BELL, max_bobs=2.5),
    lambda: seq.greedy_asymmetric(2.5, BELL),
], ids=["max_stages", "max_bobs", "alices"])
def test_non_integral_counts_and_caps_are_refused(run):
    # the stage loop would otherwise run a cap of 2.5 to 3 stages and read
    # 2.5 Alices as 2
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run()


def test_classify_pair_counts():
    assert seq.classify_pair_count(states.StateFamily.werner(0.9)) == 3
    assert seq.classify_pair_count(states.StateFamily.werner(0.7)) == 2
    assert seq.classify_pair_count(states.StateFamily.werner(0.5)) == 1
    assert seq.classify_pair_count(states.StateFamily.pure(math.pi / 7)) == 3
    assert seq.classify_pair_count(states.StateFamily.pure(math.pi / 12)) == 2
    assert seq.classify_pair_count(states.StateFamily.pure(math.pi / 20)) == 1


def _float_edges(count):
    edges = [1.0]
    while len(edges) < count:
        edges.append(seq._symmetric_edge_before(edges[-1]))
    return edges


def test_pair_count_matches_zero_slack_matrix_chain():
    # a mismatch is forgiven only within 1e-12 relative of a band edge;
    # draws at 1e-11 on either side of each edge must agree too.  The matrix
    # route is the greedy chain over built states with zero slack.
    edges = _float_edges(4)
    rng = np.random.default_rng(1313)
    families = [states.StateFamily.werner(float(p)) for p in 1.0 - rng.uniform(0.0, 0.7, 1500)]
    families += [states.StateFamily.pure(float(t)) for t in rng.uniform(0.01, math.pi / 4, 1500)]
    for edge in edges[:3]:
        for g in (edge * (1.0 - 1e-11), edge * (1.0 + 1e-11)):
            families.append(states.StateFamily.werner(g / 3.0))
            if g > 1.0:
                families.append(states.StateFamily.pure(states.param_for_strength(states.PURE, g)))
    mismatches = []
    counts = set()
    for family in families:
        count = seq.classify_pair_count(family)
        counts.add(count)
        g = states.correlation_strength(family)
        if (count != seq.greedy_symmetric(family, seq.EpsilonPolicy(0.0, 0.0)).detected_stages
                and all(abs(g - e) > 1e-12 * e for e in edges)):
            mismatches.append((family, count))
    assert mismatches == []
    assert counts == {0, 1, 2, 3}


def test_symmetric_edges_match_50_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = oracles.symmetric_edges_mp(4)
        for before, after in zip(exact, exact[1:]):
            assert abs(oracles.zero_slack_stage_mp(after) - before) < mpmath.mpf(10) ** -45
        assert exact[3] > 3
        for edge, reference in zip(_float_edges(4), exact):
            assert abs(mpmath.mpf(edge) - reference) <= 4 * math.ulp(float(reference))
    assert [round(e, 6) for e in _float_edges(4)] == [1.0, 1.714531, 2.410788, 3.099032]


def test_stage_map_defaults_are_the_need_one_closed_form_bit_for_bit():
    rng = np.random.default_rng(37)
    for h in _float_edges(4) + rng.uniform(1 / 9, 12.0, 500).tolist():
        root = -math.sqrt(h) + 2.0 * math.sqrt(h + 1.0 / 3.0)
        assert seq._symmetric_edge_before(h) == root * root
        assert seq._symmetric_edge_before(h, 1.0, 1.0) == root * root


def test_stage_map_matches_50_digit_backward_map():
    # the oracle finds the root of the forward stage at the least detecting
    # sharpness; its need-n edge is n times its need-1 edge of h / n
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(41)
    with mpmath.workdps(50):
        for _ in range(300):
            need = rng.choice((1.0, 1.0 + 4e-12, 1.5, math.sqrt(3.0), rng.uniform(1.0, 2.0)))
            cap = rng.choice((1.0, rng.uniform(0.3, 1.0)))
            h = need * rng.uniform(1 / 9, 12.0)
            exact = oracles.symmetric_edge_before_mp(h, cap, need)
            edge = seq._symmetric_edge_before(h, cap, need)
            assert abs(mpmath.mpf(edge) - exact) <= 8 * math.ulp(float(exact)), (h, cap, need)
            scaled = need * oracles.symmetric_edge_before_mp(mpmath.mpf(h) / need)
            assert abs(oracles.symmetric_edge_before_mp(h, 1, need) - scaled) < 1e-45


@pytest.mark.parametrize("need", [1.0, 1.5, math.sqrt(3.0)])
@pytest.mark.parametrize("cap", [1.0, 0.95, 0.9])
def test_stage_map_up_to_need_over_nine_is_the_least_detecting_g(cap, need):
    # every detecting stage hands on at least need/9, so h up to that asks
    # only that the stage detect: the closed form's other root (E(0) = 4/3)
    # lies above need/cap^2 at these caps
    mpmath = pytest.importorskip("mpmath")
    for h in (0.0, 0.05, need / 9):
        edge = seq._symmetric_edge_before(h, cap, need)
        assert edge == need * (1.0 / (cap * cap)), (h, cap, need)
        with mpmath.workdps(50):
            exact = oracles.symmetric_edge_before_mp(h, cap, need)
            assert abs(mpmath.mpf(edge) - exact) <= 8 * math.ulp(float(exact)), (h, cap, need)


def _brute_window(g, cap, next_edge, need, lams):
    """Least and most grid sharpness that detects, keeps to the cap and
    hands on at least next_edge, or None when none does."""
    shrink = (1.0 + 2.0 * np.sqrt(1.0 - lams * lams)) / 3.0
    ok = lams[(lams * lams * g >= need) & (lams <= cap) & (g * shrink * shrink >= next_edge)]
    return (ok.min(), ok.max()) if ok.size else None


def test_stage_window_matches_brute_force_sharpness_grid():
    lams = np.linspace(0.0, 1.0, 20001)
    step = lams[1]
    rng = random.Random(43)
    nonempty = 0
    for _ in range(400):
        need = rng.choice((1.0, 1.0 + 4e-12, 1.5))
        g = need * rng.uniform(0.8, 3.5)
        cap = rng.choice((1.0, rng.uniform(0.3, 1.0)))
        next_edge = rng.uniform(need / 9, g)
        lo, hi = seq._stage_window(g, cap, next_edge, need)
        brute = _brute_window(g, cap, next_edge, need, lams)
        if brute is None:
            assert lo > hi - step, (g, cap, next_edge, need)
            continue
        nonempty += 1
        assert lo <= hi
        assert abs(lo - brute[0]) <= step and abs(hi - brute[1]) <= step
    assert nonempty > 100


@pytest.mark.parametrize("g,need", [(0.0, 1.0), (-0.5, 1.0), (-1e-300, 1.0), (0.5, 1.0),
                                    (1.0 - 1e-12, 1.0), (1.2, 1.5), (math.nan, 1.0)])
def test_stage_window_is_empty_below_need(g, need):
    lo, hi = seq._stage_window(g, 1.0, 0.5, need)
    assert lo > hi


def _shrink(x):
    return (1.0 + 2.0 * math.sqrt(1.0 - x * x)) / 3.0


def test_no_schedule_detects_more_leading_stages_than_the_pair_count():
    # the count lemma: schedules near each stage's threshold 1/g, split
    # evenly or not, never beat the band-edge count away from an edge, and
    # the near-zero-slack even ones reach it
    rng = random.Random(47)
    edges = _float_edges(4)
    reached = checked = 0
    for i in range(2000):
        if i % 2:
            family = states.StateFamily.werner(rng.uniform(0.3, 1.0))
        else:
            family = states.StateFamily.pure(rng.uniform(0.01, math.pi / 4 - 0.01))
        g0 = states.correlation_strength(family)
        if any(abs(g0 - e) < 1e-9 for e in edges):
            continue
        count = seq.classify_pair_count(family)
        best = 0
        for _ in range(20):
            g, detected = g0, 0
            while detected <= count:
                slack = rng.choice((0.0, 10.0 ** rng.uniform(-16, -1), rng.random()))
                split = rng.choice((0.5, rng.random()))
                product = min(1.0, (1.0 + slack) / g)
                xi, lam = product ** split, product ** (1.0 - split)
                if not xi * lam * g > 1.0:
                    break
                detected += 1
                g *= _shrink(xi) * _shrink(lam)
            best = max(best, detected)
        assert best <= count, (family, best, count)
        reached += best == count
        checked += 1
    assert reached > 0.9 * checked


def test_classify_rejects_other_families():
    with pytest.raises(ValueError):
        seq.classify_pair_count(states.StateFamily.bell())
    with pytest.raises(ValueError):
        seq.classify_pair_count(states.StateFamily.colored(0.9))


def test_run_symmetric_schedule_records_states():
    report = seq.run_symmetric_schedule(BELL, (0.73, 0.80, 1.0))
    assert report.detected_stages == 3
    assert len(report.states) == 3
    assert report.states[0].matrix[1, 1] == pytest.approx(0.5)
    p2 = eq14_parameter(0.73, 0.73)
    expected = states.build(states.StateFamily.werner(p2))
    assert oracles.trace_distance(report.states[1].matrix, expected.matrix) < 1e-12


def test_run_symmetric_schedule_records_every_stage_past_detection():
    report = seq.run_symmetric_schedule(states.StateFamily.werner(0.6), (0.9, 0.9, 0.9))
    assert report.thresholds == pytest.approx((0.5556, 1.4271, 3.6660), abs=1e-4)
    assert len(report.states) == 3


@pytest.mark.parametrize("family", [BELL, states.StateFamily.werner(0.9),
                                    states.StateFamily.pure(0.5), states.StateFamily.colored(0.95)])
@pytest.mark.parametrize("rounding", [False, True])
def test_fixed_schedule_of_greedy_lambdas_reproduces_the_chain(family, rounding):
    greedy = seq.greedy_symmetric(family, seq.EpsilonPolicy(paper_rounding=rounding))
    lambdas = tuple(lam for _, lam in greedy.schedule.stages)
    assert lambdas
    fixed = seq.run_symmetric_schedule(family, lambdas)
    assert fixed.thresholds == greedy.thresholds[:len(lambdas)]
    assert fixed.schedule == greedy.schedule
    assert len(fixed.states) == len(greedy.states)
    for a, b in zip(fixed.states, greedy.states):
        assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("lambdas", [(1.5, 0.5), (0.5, 1.5), (math.nan, 0.5)])
def test_run_symmetric_schedule_checks_entries_before_any_channel(lambdas):
    with pytest.raises(ValueError, match=r"schedule entries must lie in \(0, 1\]"):
        seq.run_symmetric_schedule(BELL, lambdas)


def test_no_channel_runs_after_a_chain_s_last_stage(monkeypatch):
    calls = {"two": 0, "one": 0}
    two_sided, one_sided = seq.average_two_sided, seq.average_one_sided

    def count_two(*args):
        calls["two"] += 1
        return two_sided(*args)

    def count_one(*args):
        calls["one"] += 1
        return one_sided(*args)

    monkeypatch.setattr(seq, "average_two_sided", count_two)
    monkeypatch.setattr(seq, "average_one_sided", count_one)
    runs = [
        (lambda: seq.run_symmetric_schedule(BELL, (0.73, 0.8, 1.0)), (2, 0)),
        (lambda: seq.greedy_symmetric(BELL, max_stages=2), (1, 0)),
        (lambda: seq.greedy_asymmetric(1, BELL, max_bobs=5), (0, 4)),
        # an infeasible stop needs the state entering the failing stage
        (lambda: seq.greedy_symmetric(BELL), (3, 0)),
    ]
    for run, expected in runs:
        calls.update(two=0, one=0)
        run()
        assert (calls["two"], calls["one"]) == expected


@pytest.mark.parametrize("family", [BELL, states.StateFamily.werner(0.9),
                                    states.StateFamily.colored(0.95), states.StateFamily.pure(0.6)])
@pytest.mark.parametrize("chain", [seq.greedy_symmetric,
                                   lambda family: seq.greedy_asymmetric(1, family),
                                   lambda family: seq.greedy_asymmetric(3, family)])
def test_chain_states_carry_read_only_coefficients_of_their_matrix(family, chain):
    report = chain(family)
    assert report.states
    for rho in report.states:
        c = qcore.pauli_coefficients(rho)
        with pytest.raises(ValueError):
            c[0, 0] = 0.0
        assert np.max(np.abs(c - oracles.pauli_coefficients(rho.matrix))) < 1e-15


def _random_policy_chain(rng):
    """A seeded greedy chain over all four families, both layouts and both
    rounding modes, with the number of leading two-sided stages (None: all)."""
    kind = rng.choice(states.KINDS)
    param = {states.BELL: None, states.WERNER: rng.uniform(0.4, 1.0),
             states.COLORED: rng.uniform(0.55, 1.0),
             states.PURE: rng.uniform(0.05, math.pi / 4)}[kind]
    family = states.StateFamily(str(kind), param)
    policy = seq.EpsilonPolicy(rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05),
                               bool(rng.integers(2)))
    if rng.integers(2):
        return seq.greedy_symmetric(family, policy), None
    alices = int(rng.integers(1, 4))
    return seq.greedy_asymmetric(alices, family, policy, max_bobs=20), alices - 1


def test_chain_states_are_bitwise_the_numpy_route():
    # every carried state's matrix is from_pauli_coefficients of its
    # coefficients, both within 1e-15 of the term-by-term sum, and each
    # channel scales the coefficients as the in-place numpy row and column
    # scalings do, (c * first) * second, bit for bit
    rng = np.random.default_rng(2024)
    carried = 0
    for _ in range(200):
        report, two_sided_stages = _random_policy_chain(rng)
        coefficients = [qcore.pauli_coefficients(rho) for rho in report.states]
        for rho, c in zip(report.states, coefficients):
            assert np.array_equal(rho.matrix, qcore.from_pauli_coefficients(c))
            assert np.max(np.abs(rho.matrix - oracles.witness_matrix(c))) <= 1e-15
        for stage, (before, after) in enumerate(zip(coefficients, coefficients[1:]), 1):
            xi, lam = report.schedule.stages[stage - 1]
            two_sided = two_sided_stages is None or stage <= two_sided_stages
            want = np.array(before)
            want[1:, :] *= seq.average_shrink(xi) if two_sided else 1.0
            want[:, 1:] *= seq.average_shrink(lam)
            assert np.array_equal(after, want)
        carried += len(report.states)
    assert carried > 400


class _NoNumpy:
    """Stands in for numpy: any attribute read fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_chains_carry_states_without_numpy_and_build_arrays_on_read(monkeypatch):
    monkeypatch.setattr(qcore, "np", _NoNumpy())
    reports = (seq.greedy_symmetric(BELL), seq.greedy_asymmetric(2, states.StateFamily.werner(0.9)))
    monkeypatch.undo()
    for report in reports:
        assert len(report.states) == report.detected_stages > 1
        for rho in report.states:
            m = rho.matrix
            assert m.dtype == np.complex128 and m.shape == (4, 4) and not m.flags.writeable
            assert rho.matrix is m


def test_chains_build_a_state_only_for_a_recorded_stage(monkeypatch):
    built = []
    init = qcore.DensityMatrix.__init__

    def counting_init(self, matrix):
        built.append(1)
        init(self, matrix)

    monkeypatch.setattr(qcore.DensityMatrix, "__init__", counting_init)
    # colored p <= 0.5 has g <= 1: no stage detects, so no state is built
    colored = states.StateFamily.colored(0.45)
    for report in (seq.greedy_symmetric(colored), seq.greedy_asymmetric(2, colored)):
        assert report.detected_stages == 0 and report.states == ()
    assert built == []
    # bell: the initial state, then one channel after each of its 3 stages
    report = seq.greedy_symmetric(BELL)
    assert report.detected_stages == 3 and len(report.states) == 3
    assert len(built) == 1 + 3
    # the one-sided route: bell with 2 Alices detects 8 Bobs and ends at an
    # infeasible ninth stage, so a channel follows each of the 8 stages
    del built[:]
    report = seq.greedy_asymmetric(2, BELL, max_bobs=20)
    assert report.detected_stages == 8 and len(report.states) == 8
    assert len(built) == 1 + 8
    # capped at its last detecting stage, no channel follows that stage
    del built[:]
    report = seq.greedy_asymmetric(2, BELL, max_bobs=8)
    assert report.detected_stages == 8 and len(report.states) == 8
    assert len(built) == 1 + 7


def test_run_symmetric_schedule_rejects_an_empty_schedule_before_any_channel(monkeypatch):
    def no_build(family):
        raise AssertionError("states.build ran for an empty schedule")

    monkeypatch.setattr(states, "build", no_build)
    with pytest.raises(ValueError, match="schedule must have at least one stage"):
        seq.run_symmetric_schedule(BELL, ())


def test_run_symmetric_schedule_takes_any_iterable_of_sharpnesses():
    lambdas = (0.73, 0.8, 1.0)
    expected = seq.run_symmetric_schedule(BELL, list(lambdas))
    assert expected.schedule.stages == tuple((lam, lam) for lam in lambdas)
    for given in (lambdas, np.array(lambdas), (lam for lam in lambdas)):
        assert seq.run_symmetric_schedule(BELL, given) == expected
    with pytest.raises(ValueError, match="schedule must have at least one stage"):
        seq.run_symmetric_schedule(BELL, iter(()))


@pytest.mark.parametrize("family", [BELL, states.StateFamily.werner(0.9),
                                    states.StateFamily.colored(0.95), states.StateFamily.pure(0.6)])
def test_greedy_chains_call_no_numpy_linalg_function(monkeypatch, family):
    # every chain state is validated by the scalar checks in DensityMatrix;
    # LAPACK runs only when a check fails and its message names the eigenvalue
    def refuse(*args, **kwargs):
        raise AssertionError("a chain called numpy.linalg")

    for name in np.linalg.__all__:
        if name != "LinAlgError" and callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    for rounding in (False, True):
        sym = seq.greedy_symmetric(family, seq.EpsilonPolicy(paper_rounding=rounding))
        asym = seq.greedy_asymmetric(2, family, seq.EpsilonPolicy.asymmetric_default(rounding))
        assert sym.states and asym.states
    with pytest.raises(AssertionError, match="numpy.linalg"):
        np.linalg.cholesky(np.eye(2))


def _random_chain(rng):
    """A seeded random greedy chain (family, policy, wing-one count, cap) and
    its count of leading two-sided stages, None for the symmetric chain."""
    kind = str(rng.choice(states.KINDS))
    if kind == states.BELL:
        family = BELL
    elif kind == states.PURE:
        family = states.StateFamily.pure(float(rng.uniform(1e-6, math.pi / 4 - 1e-6)))
    else:
        family = states.StateFamily(kind, float(rng.uniform(1e-6, 1.0)))
    first, later = (float(v) for v in rng.uniform(0.0, 0.1, size=2))
    policy = seq.EpsilonPolicy(first, later * bool(rng.integers(2)), bool(rng.integers(2)))
    cap = None if rng.integers(2) else int(rng.integers(1, 21))
    alices = int(rng.integers(0, 5))  # 0 stands for the symmetric chain
    if alices == 0:
        return seq.greedy_symmetric(family, policy, max_stages=cap), None
    return seq.greedy_asymmetric(alices, family, policy, max_bobs=cap), alices - 1


def test_g_thresholds_match_the_matrix_route_on_the_carried_states():
    # the chains decide on 1/g; violation_threshold reads the carried matrix
    # state, and the threshold past an infeasible stop reads the state that
    # the last detecting stage hands on
    rng = np.random.default_rng(2121)
    checked = infinite = 0
    for _ in range(2000):
        report, two_sided_stages = _random_chain(rng)
        incoming = list(report.states)
        if len(report.thresholds) > len(incoming):
            if incoming:
                stage = len(incoming)
                xi, lam = report.schedule.stages[-1]
                if two_sided_stages is None or stage <= two_sided_stages:
                    incoming.append(seq.average_two_sided(incoming[-1], xi, lam))
                else:
                    incoming.append(seq.average_one_sided(incoming[-1], lam))
            else:
                incoming.append(states.build(report.family))
        assert len(incoming) == len(report.thresholds) == len(report.strengths)
        for t, g in zip(report.thresholds, report.strengths):
            assert t == (1.0 / g if g > 4e-15 else math.inf)
        w = witness.family_witness(report.family.kind)
        for t, rho in zip(report.thresholds, incoming):
            expected = seq.violation_threshold(w, rho)
            if math.isinf(expected) or math.isinf(t):
                assert t == expected, (report.family, t, expected)
                infinite += 1
            else:
                assert abs(t - expected) <= 1e-14 * abs(expected), (report.family, t, expected)
            checked += 1
    assert checked > 4000 and infinite > 0
