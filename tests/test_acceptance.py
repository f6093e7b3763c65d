"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math

import numpy as np

from seqwitness import cli, measurement, qcore, resource, sequential, states, witness

import oracles

BELL = states.StateFamily.bell()


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_symmetric_bound():
    report = sequential.greedy_symmetric(BELL, sequential.EpsilonPolicy(paper_rounding=True))
    ok = (report.detected_stages == 3
          and len(report.thresholds) == 4
          and 1.10 <= report.thresholds[3] <= 1.16)
    _report(1, "three symmetric pairs, fourth threshold in [1.10, 1.16] "
               f"(got {report.detected_stages} pairs, {report.thresholds[3]:.4f})", ok)


def test_criterion_2_symmetric_schedule():
    report = sequential.greedy_symmetric(BELL, sequential.EpsilonPolicy(paper_rounding=True))
    targets = (0.58, 0.66, 0.79)
    ok = all(abs(xi - t) <= 0.02 and abs(lam - t) <= 0.02
             for (xi, lam), t in zip(report.schedule.stages, targets))
    values = tuple(round(xi, 4) for xi, _ in report.schedule.stages)
    _report(2, f"symmetric schedule within 0.02 of {targets} (got {values})", ok)


def test_criterion_3_channel_oracle():
    rng = np.random.default_rng(2024)
    worst = worst_kraus = 0.0
    for _ in range(1000):
        xi = rng.uniform(0.01, 1.0)
        lam = rng.uniform(0.01, 1.0)
        p = rng.uniform(0.01, 1.0)
        rho = states.build(states.StateFamily.werner(p))
        out = sequential.average_two_sided(rho, xi, lam)
        q = (1 + 2 * math.sqrt(1 - xi * xi)) * (1 + 2 * math.sqrt(1 - lam * lam)) / 9
        expected = states.build(states.StateFamily.werner(p * q))
        worst = max(worst, oracles.trace_distance(out.matrix, expected.matrix))
        kraus = oracles.kraus_two_sided(rho.matrix, xi, lam)
        worst_kraus = max(worst_kraus, np.max(np.abs(out.matrix - kraus)))
    _report(3, "channel matches the Werner closed form and the 36-term Kraus-sum oracle "
               f"for 1000 draws (worst {worst:.2e} and {worst_kraus:.2e})",
            worst < 1e-12 and worst_kraus < 1e-12)


def test_criterion_4_detectability():
    report = resource.maximize_detectability(BELL)
    schedule = tuple(lam for _, lam in report.schedule.stages)
    rom = resource.total_rom(report.schedule)
    ok = (abs(report.total - (-0.20)) <= 0.005
          and all(abs(s - t) <= 0.01 for s, t in zip(schedule, (0.73, 0.80, 1.00)))
          and abs(rom - 5.06) <= 0.02)
    _report(4, f"max detectability {report.total:.4f} at "
               f"{tuple(round(s, 4) for s in schedule)}, total RoM {rom:.4f}", ok)


def test_criterion_5_table1():
    tab1, _ = resource.build_comparison_tables()
    rows = {r.family: r for r in tab1}
    ok = (abs(rows["werner"].matching_parameter - 0.58) <= 0.01
          and abs(rows["colored"].matching_parameter - 0.69) <= 0.01
          and abs(rows["werner"].eta_ebits - 1.12) <= 0.02
          and abs(rows["colored"].eta_ebits - 1.14) <= 0.02
          and abs(rows["pure"].eta_ebits - 1.11) <= 0.02)
    _report(5, "table 1: parameters 0.58/0.69, budgets 1.12/1.14/1.11 "
               f"(got {rows['werner'].matching_parameter:.4f}/"
               f"{rows['colored'].matching_parameter:.4f}, "
               f"{rows['werner'].eta_ebits:.4f}/{rows['colored'].eta_ebits:.4f}/"
               f"{rows['pure'].eta_ebits:.4f})", ok)


def test_criterion_6_table2():
    _, tab2 = resource.build_comparison_tables()
    rows = {r.family: r for r in tab2}
    ok = (abs(rows["werner"].total_rom - 5.20) <= 0.03
          and abs(rows["colored"].total_rom - 5.18) <= 0.03
          and abs(rows["pure"].total_rom - 5.20) <= 0.03
          and abs(rows["werner"].quadratic_constraint - 2.28) <= 0.01
          and abs(rows["colored"].quadratic_constraint - 2.26) <= 0.01)
    _report(6, "table 2: min RoM 5.20/5.18/5.20, constraints 2.28/2.26 "
               f"(got {rows['werner'].total_rom:.4f}/{rows['colored'].total_rom:.4f}/"
               f"{rows['pure'].total_rom:.4f}, "
               f"{rows['werner'].quadratic_constraint:.4f}/"
               f"{rows['colored'].quadratic_constraint:.4f})", ok)


def test_criterion_7_asymmetric_counts():
    counts = {}
    for alices in (1, 2, 3):
        counts[alices] = sequential.greedy_asymmetric(alices, BELL).detected_stages
    symmetric_cap = sequential.greedy_asymmetric(4, BELL).detected_stages
    two_alice = sequential.greedy_asymmetric(
        2, BELL, sequential.EpsilonPolicy.asymmetric_default(paper_rounding=True))
    lams = tuple(lam for _, lam in two_alice.schedule.stages[1:])
    printed = (0.44, 0.47, 0.51, 0.56, 0.63, 0.74, 0.95)
    ok = (counts == {1: 12, 2: 8, 3: 5}
          and symmetric_cap == 3
          and len(lams) == len(printed)
          and all(abs(a - b) <= 0.01 for a, b in zip(lams, printed)))
    _report(7, f"asymmetric counts {counts} with 4-observer cap {symmetric_cap}; "
               f"two-observer sequence {lams}", ok)


def _bisect_edge(count_fn, lo, hi, tol=1e-4):
    """Smallest parameter whose pair count exceeds count(lo)."""
    base = count_fn(lo)
    assert count_fn(hi) > base
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if count_fn(mid) > base:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# Criterion 8's bisection brackets for the 3|2, 2|1 and 1|0 edges in werner p,
# and the 3|2 and 2|1 edges in pure theta.
WERNER_EDGE_BRACKETS = ((0.75, 0.88), (0.50, 0.65), (0.30, 0.40))
PURE_EDGE_BRACKETS = ((0.30, math.pi / 4 - 1e-6), (0.12, 0.30))


def test_criterion_8_classification_bands():
    def werner_count(p):
        return sequential.classify_pair_count(states.StateFamily.werner(p))

    def pure_count(theta):
        return sequential.classify_pair_count(states.StateFamily.pure(theta))

    samples_ok = (werner_count(0.9) == 3 and werner_count(0.7) == 2
                  and werner_count(0.5) == 1
                  and pure_count(math.pi / 7) == 3
                  and pure_count(math.pi / 12) == 2
                  and pure_count(math.pi / 20) == 1)

    w32, w21, w10 = WERNER_EDGE_BRACKETS
    edge_32 = _bisect_edge(werner_count, *w32)
    edge_21 = _bisect_edge(werner_count, *w21)
    edge_10 = _bisect_edge(lambda p: werner_count(p) if p > 0 else 0, *w10)
    pure_32 = _bisect_edge(pure_count, *PURE_EDGE_BRACKETS[0])
    pure_21 = _bisect_edge(pure_count, *PURE_EDGE_BRACKETS[1])

    edges_ok = (abs(edge_32 - 0.80) <= 0.01 and abs(edge_21 - 0.57) <= 0.01
                and abs(edge_10 - 0.33) <= 0.01
                and abs(pure_32 - math.pi / 8) <= 0.02
                and abs(pure_21 - math.pi / 17) <= 0.02)
    _report(8, "classification bands 3/2/1 with edges "
               f"{edge_32:.4f}/{edge_21:.4f}/{edge_10:.4f} and "
               f"{pure_32:.4f}/{pure_21:.4f} rad", samples_ok and edges_ok)


def test_band_edges_lie_in_criterion_8_brackets():
    edges = [1.0]  # E_1..E_3 in g: the 1|0, 2|1 and 3|2 edges
    for _ in range(2):
        edges.append(sequential._symmetric_edge_before(edges[-1]))
    werner = [states.param_for_strength(states.WERNER, g) for g in reversed(edges)]
    pure = [states.param_for_strength(states.PURE, g) for g in reversed(edges[1:])]
    assert [round(p, 6) for p in werner] == [0.803596, 0.571510, 0.333333]
    assert [round(theta, 6) for theta in pure] == [0.391489, 0.182669]
    for value, (lo, hi) in zip(werner + pure, WERNER_EDGE_BRACKETS + PURE_EDGE_BRACKETS):
        assert lo < value < hi


def test_criterion_9_property_suites():
    floors = [
        witness.separability_floor(witness.witness_psi_plus(), 100_000, seed=1),
        witness.separability_floor(witness.witness_phi_colored(), 100_000, seed=2),
        witness.separability_floor(
            witness.modulate(witness.witness_psi_plus(), 0.5, 0.5), 100_000, seed=3),
    ]
    floors_ok = all(f >= -1e-10 for f in floors)

    concurrence_ok = True
    for p in np.linspace(0.02, 1.0, 25):
        for kind in ("werner", "colored"):
            fam = states.StateFamily(kind, float(p))
            if abs(qcore.concurrence_wootters(states.build(fam))
                   - states.concurrence_closed_form(fam)) > 1e-10:
                concurrence_ok = False
    for theta in np.linspace(0.02, math.pi / 4 - 0.02, 25):
        fam = states.StateFamily.pure(float(theta))
        if abs(qcore.concurrence_wootters(states.build(fam))
               - states.concurrence_closed_form(fam)) > 1e-10:
            concurrence_ok = False

    pointer_ok = all(
        abs(measurement.pointer_tradeoff(
            measurement.UnsharpObservable(measurement.Z_AXIS, lam)).quality ** 2
            + lam ** 2 - 1.0) < 1e-12
        for lam in np.linspace(0.01, 1.0, 50))

    rng = np.random.default_rng(5)
    trace_ok = True
    for _ in range(50):
        rho = oracles.random_density_matrix(rng, 2)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        obs = measurement.UnsharpObservable(v, rng.uniform(0.01, 1.0))
        total = sum(measurement.sqrt_effect(obs, o) @ rho @ measurement.sqrt_effect(obs, o)
                    for o in (+1, -1))
        if abs(np.trace(total) - 1.0) > 1e-12:
            trace_ok = False

    chains = [
        sequential.greedy_symmetric(BELL, sequential.EpsilonPolicy(paper_rounding=True)),
        sequential.greedy_symmetric(BELL),
        sequential.greedy_asymmetric(2, BELL),
    ]
    thresholds_ok = all(
        all(a < b for a, b in zip(c.thresholds, c.thresholds[1:])) for c in chains)

    ok = floors_ok and concurrence_ok and pointer_ok and trace_ok and thresholds_ok
    _report(9, "property suites: separability floors "
               f"{tuple(f'{f:.1e}' for f in floors)}, concurrence oracle, pointer "
               "identity, trace preservation, increasing thresholds", ok)


def test_criterion_10_determinism(capsys):
    argv = ["compare", "--table", "2", "--format", "json", "--seed", "0"]
    assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["sequential"]["rom"] == 5.06
    with capsys.disabled():
        _report(10, "byte-identical compare output across runs", ok)
