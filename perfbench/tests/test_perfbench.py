"""Tests of the benchmark itself: the checks reject wrong answers, accept
the program's right ones, and inputs are a pure function of the seed.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError  # noqa: E402

ASYM = dict(two_sided=0, limit=20, slack1=0.01, slack2=0.0, paper=False)


def _chain(g, **spec):
    return checks.expected_chain(g, **spec)


# ------------------------------------------------------------- the recursion

def test_recursion_reproduces_paper_counts():
    # bell: 12, 8 and 5 Bobs for 1, 2 and 3 Alices; 3 symmetric pairs
    for alices, count in ((1, 12), (2, 8), (3, 5)):
        _, stages = _chain(3.0, **dict(ASYM, two_sided=alices - 1))
        assert len(stages) == count
    _, stages = _chain(3.0, two_sided=None, limit=None, slack1=0.0, slack2=0.0, paper=True)
    assert [s for s, _ in stages] == [0.58, 0.66, 0.79]


def test_werner_band_edges():
    # zero-slack symmetric pairs: 3 above p ~ 0.80, 2 above ~ 0.57, 1 above 1/3
    for p, count in ((0.81, 3), (0.79, 2), (0.58, 2), (0.56, 1), (0.34, 1), (0.33, 0)):
        checks.check_pair_count(checks.strength("werner", p), count)


# ------------------------------------------------------------- chains

def test_chain_check_accepts_recursion_and_rejects_perturbations():
    g = checks.strength("pure", 0.6)
    thresholds, stages = _chain(g, **ASYM)
    checks.check_chain(g, thresholds, stages, **ASYM)
    with pytest.raises(CheckError):  # one detecting stage dropped
        checks.check_chain(g, thresholds[:-1], stages[:-1], **ASYM)
    with pytest.raises(CheckError):  # a threshold off by 1e-6
        bent = list(thresholds)
        bent[2] *= 1.0 + 1e-6
        checks.check_chain(g, bent, stages, **ASYM)
    with pytest.raises(CheckError):  # a stage at the wrong sharpness
        bent = list(stages)
        bent[1] = (1.0, bent[1][1] + 1e-4)
        checks.check_chain(g, thresholds, bent, **ASYM)


def test_chain_check_rejects_stopping_early_or_late():
    g = 3.0
    spec = dict(ASYM, limit=4)
    thresholds, stages = _chain(g, **spec)
    assert len(thresholds) == len(stages) == 4  # the cap, not infeasibility
    checks.check_chain(g, thresholds, stages, **spec)
    with pytest.raises(CheckError):
        checks.check_chain(g, thresholds, stages, **dict(spec, limit=5))


def test_pair_count_check_rejects_wrong_count():
    g = checks.strength("werner", 0.9)
    checks.check_pair_count(g, 3)
    for wrong in (2, 4):
        with pytest.raises(CheckError):
            checks.check_pair_count(g, wrong)


# ------------------------------------------------------------- tables

def test_optimum_check():
    caps = (1.0, 1.0, 1.0)
    lams = [0.7269, 0.804, 1.0]  # the paper's bell optimum
    per = checks.stage_detectabilities(3.0, lams)
    checks.check_optimum(3.0, caps, lams, per, sum(per))
    with pytest.raises(CheckError):  # total not the sum of the stages
        checks.check_optimum(3.0, caps, lams, per, sum(per) + 1e-6)
    with pytest.raises(CheckError):  # a point a perturbation improves
        worse = [0.70, 0.804, 1.0]
        per = checks.stage_detectabilities(3.0, worse)
        checks.check_optimum(3.0, caps, worse, per, sum(per))
    with pytest.raises(CheckError):  # above its cap
        checks.check_optimum(3.0, (1.0, 0.8, 1.0), lams, per, sum(per))


def test_matching_check_rejects_perturbed_eta_and_parameter():
    products = [0.53, 0.65, 1.0]
    target = -0.2
    g = checks.matched_strength(products, target)
    for kind in inputs.NOISY:
        param = checks.param_for_strength(kind, g)
        eta = 3.0 * (g - 1.0) / 2.0
        checks.check_matching(kind, products, target, param, eta)
        with pytest.raises(CheckError):
            checks.check_matching(kind, products, target, param, eta + 1e-6)
        with pytest.raises(CheckError):
            checks.check_matching(kind, products, target, param + 1e-6, eta)


def test_min_rom_check_rejects_perturbed_rom():
    for kind in inputs.NOISY:
        rom = checks.min_rom(kind, 1.0, -0.2)
        checks.check_min_rom(kind, 1.0, -0.2, rom)
        for wrong in (rom - 1e-6, rom + 1e-6):
            with pytest.raises(CheckError):
                checks.check_min_rom(kind, 1.0, -0.2, wrong)


def test_min_rom_matches_a_dense_scan():
    g = checks.budget_strength("werner", 1.3)
    floor, q = 1.0 / math.sqrt(g), (3.0 + 0.8) / g
    best = math.inf
    steps = 400
    for i in range(steps + 1):
        for j in range(steps + 1):
            a = floor + (1.0 - floor) * i / steps
            b = floor + (1.0 - floor) * j / steps
            rest = q - a * a - b * b
            if floor * floor <= rest <= 1.0:
                best = min(best, 2.0 * (a + b + math.sqrt(rest)))
    assert checks.min_rom("werner", 1.3, -0.2) <= best + 1e-12
    assert best - checks.min_rom("werner", 1.3, -0.2) < 1e-2


# ------------------------------------------------------------- CLI output

WITNESS = dict(digits=6, kind="werner", param=0.9, xi=0.8, lam=0.7)


def test_witness_eval_output():
    value = (1.0 - 0.8 * 0.7 * 2.7) / 4.0
    checks.check_witness_eval(json.dumps({"state": "werner", "expectation": value}),
                              fmt="json", **WITNESS)
    checks.check_witness_eval(f"{value:.6g}\n", fmt="text", **WITNESS)
    for text, fmt in ((f"{value * 1.001:.6g}", "text"),
                      ('{"state": "werner", "expectation": ', "json"),
                      ("state,parameter\nwerner,0.9", "csv"),
                      ("", "text"),
                      ("not a number", "text")):
        with pytest.raises(CheckError):
            checks.check_witness_eval(text, fmt=fmt, **WITNESS)


MAX_OBS = dict(digits=6, kind="bell", param=None, alices=3, bobs=20,
               slack1=0.01, slack2=0.0, paper=False)


def _max_observers_csv(thresholds, stages):
    lines = ["stage,xi,lambda,threshold,detected"]
    for i, t in enumerate(thresholds):
        if i < len(stages):
            xi, lam = stages[i]
            lines.append(f"{i + 1},{xi:.6g},{lam:.6g},{t:.6g},true")
        else:
            lines.append(f"{i + 1},,,{t:.6g},false")
    return "\n".join(lines)


def test_max_observers_output():
    thresholds, stages = _chain(3.0, two_sided=2, limit=20, slack1=0.01, slack2=0.0,
                                paper=False)
    assert len(stages) == 5
    good = _max_observers_csv(thresholds, stages)
    checks.check_max_observers(good, fmt="csv", **MAX_OBS)
    payload = {"bobs_detected": 5, "schedule": stages, "thresholds": thresholds}
    checks.check_max_observers(json.dumps(payload), fmt="json", **MAX_OBS)
    bad_count = dict(payload, bobs_detected=6)
    bad_threshold = dict(payload, thresholds=[thresholds[0] * 1.01] + thresholds[1:])
    for text, fmt in ((json.dumps(bad_count), "json"),
                      (json.dumps(bad_threshold), "json"),
                      (_max_observers_csv(thresholds, stages[:-1]), "csv"),
                      (good.replace("true", "yes", 1), "csv"),
                      ("bobs_detected: five", "text"),
                      ("{}", "json")):
        with pytest.raises(CheckError):
            checks.check_max_observers(text, fmt=fmt, **MAX_OBS)


def _compare_csv(rom_werner=5.2):
    return "\n".join(["family,detectability,total_rom,eta_ebits",
                      "sequential,-0.2,5.06,1",
                      f"werner,-0.2,{rom_werner},1",
                      "colored,-0.2,5.18,1",
                      "pure,-0.2,5.2,1"])


def test_compare_output():
    checks.check_compare(_compare_csv(), fmt="csv", table="2")
    for text, fmt, table in ((_compare_csv(5.3), "csv", "2"),
                             (_compare_csv(), "csv", "both"),
                             (_compare_csv(), "csv", "1"),
                             (_compare_csv().replace("5.18", "x"), "csv", "2"),
                             ("table 2\n  werner: D -0.2", "text", "2"),
                             ("[]", "json", "2")):
        with pytest.raises(CheckError):
            checks.check_compare(text, fmt=fmt, table=table)


# ------------------------------------------------------------- inputs

def test_inputs_are_a_pure_function_of_the_seed():
    for make in inputs.ROUNDS.values():
        assert make(7, 3) == make(7, 3)
        assert make(7, 3) != make(8, 3)
        assert make(7, 3) != make(7, 4)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print(repr([f(7, 3) for f in inputs.ROUNDS.values()]))")
    outs = {subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, text=True,
                           capture_output=True, env=dict(os.environ, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")}
    assert outs == {repr([f(7, 3) for f in inputs.ROUNDS.values()]) + "\n"}


def test_round_make_up_is_fixed():
    for seed in range(5):
        calls = sorted(op.call for op in inputs.chain_round(seed, seed))
        assert calls == sorted(["greedy_symmetric"] * 4 + ["greedy_asymmetric"] * 8
                               + ["classify_pair_count"] * 4)
        assert sorted(op.kind for op in inputs.table_round(seed, 0)) == sorted(inputs.KINDS)
        commands = sorted(op.command for op in inputs.cli_round(seed, seed))
        assert commands == sorted(["witness-eval"] * 4 + ["max-observers"] * 3 + ["compare"])


# ------------------------------------------------------------- against the program

def test_program_answers_pass_the_checks():
    pytest.importorskip("numpy")
    import workloads

    chains = workloads.Chains(3)
    for op in inputs.chain_round(3, 0):
        chains.check(op, chains.run(op))
    cli = workloads.Cli(3, sys.executable, {})
    for op in inputs.cli_round(3, 1):
        if op.command != "compare":
            cli.check(op, cli.replay(op))


def test_tracer_counts_and_restores():
    pytest.importorskip("numpy")
    import tracing
    from seqwitness import sequential, states

    original = sequential.average_two_sided
    tracer = tracing.Tracer()
    with tracer.active():
        report = sequential.greedy_symmetric(states.StateFamily.bell())
    assert sequential.average_two_sided is original
    assert tracer.calls["sequential.greedy_symmetric"] == 1
    assert tracer.calls["sequential.average_two_sided"] == report.detected_stages
    assert tracer.stages == len(report.thresholds)
    assert tracer.calls["qcore.DensityMatrix"] > 0
    assert all(v >= 0.0 for v in tracer.self_s.values())
