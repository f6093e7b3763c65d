"""The three workloads: how one operation runs and how its answer is checked.

Each workload offers ``round(r)`` (the inputs of round r), ``run(op)`` (one
timed operation), ``check(op, out)`` (raises ``CheckError`` on a wrong
answer), ``warm_up()`` and ``replay(op)``, the in-process form of an
operation that the traced run times.  For ``chains`` and ``tables`` the
replay is the operation itself; for ``cli`` it is ``cli.main`` called with
the same argv.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

from seqwitness import cli, resource, sequential
from seqwitness.sequential import EpsilonPolicy
from seqwitness.states import StateFamily

import checks
import inputs
from reference import Gauge


class Chains:
    name = "chains"

    def __init__(self, seed: int):
        self.seed = seed
        self.gauge = Gauge("chains")

    def round(self, r: int):
        return inputs.chain_round(self.seed, r)

    def run(self, op: inputs.ChainOp):
        family = StateFamily(op.kind, op.param)
        if op.call == "classify_pair_count":
            return sequential.classify_pair_count(family)
        policy = EpsilonPolicy(op.slack1, op.slack2, op.paper)
        if op.call == "greedy_symmetric":
            return sequential.greedy_symmetric(family, policy)
        return sequential.greedy_asymmetric(op.alices, family, policy, max_bobs=op.limit)

    replay = run

    def check(self, op: inputs.ChainOp, out):
        g = checks.strength(op.kind, op.param)
        if op.call == "classify_pair_count":
            checks.check_pair_count(g, out)
            return
        if out.detected_stages != len(out.schedule.stages):
            raise checks.CheckError("detected_stages disagrees with the schedule")
        checks.check_chain(g, out.thresholds, out.schedule.stages,
                           two_sided=None if op.call == "greedy_symmetric" else op.alices - 1,
                           limit=op.limit, slack1=op.slack1, slack2=op.slack2, paper=op.paper)

    def warm_up(self):
        for op in (inputs.ChainOp("greedy_symmetric", "werner", 0.9),
                   inputs.ChainOp("greedy_asymmetric", "pure", 0.5, alices=2, limit=3,
                                  paper=True),
                   inputs.ChainOp("classify_pair_count", "werner", 0.7)):
            self.run(op)


class Tables:
    name = "tables"

    def __init__(self, seed: int):
        self.seed = seed
        self.gauge = Gauge("tables")

    def round(self, r: int):
        return inputs.table_round(self.seed, r)

    def run(self, op: inputs.TableOp):
        best = resource.maximize_detectability(StateFamily(op.kind, op.param), op.caps)
        target = best.total
        matched = {}
        for kind in inputs.NOISY:
            param = resource.solve_matching_parameter(kind, best.schedule, target)
            matched[kind] = (param, resource.entanglement_budget(StateFamily(kind, param), 3))
        budget = op.ebit_budget(target)
        roms = {kind: resource.min_total_rom(kind, budget, target) for kind in inputs.NOISY}
        return best, matched, budget, roms

    replay = run

    def check(self, op: inputs.TableOp, out):
        best, matched, budget, roms = out
        stages = best.schedule.stages
        if any(xi != lam for xi, lam in stages):
            raise checks.CheckError(f"optimum schedule {stages} is not symmetric")
        checks.check_optimum(checks.strength(op.kind, op.param), op.caps,
                             [lam for _, lam in stages], best.per_stage, best.total)
        products = [xi * lam for xi, lam in stages]
        for kind, (param, eta) in matched.items():
            checks.check_matching(kind, products, best.total, param, eta)
        for kind, rom in roms.items():
            checks.check_min_rom(kind, budget, best.total, rom)

    def warm_up(self):
        # Every call of an operation except the (pure-Python) optimizer.
        chain = sequential.run_symmetric_schedule(StateFamily.bell(), (0.73, 0.8, 1.0))
        report = resource.detectability(chain)
        for kind in inputs.NOISY:
            resource.solve_matching_parameter(kind, report.schedule, report.total)
            resource.min_total_rom(kind, 1.0, report.total)


class Cli:
    """Each operation is a fresh ``python -m seqwitness.cli`` process."""

    name = "cli"

    def __init__(self, seed: int, python: str, env: dict):
        self.seed = seed
        self.python = python
        self.env = env
        self.gauge = Gauge("spawn", python, env)
        self.peak_rss_kb = 0  # largest child seen by run()

    def round(self, r: int):
        return inputs.cli_round(self.seed, r)

    def run(self, op: inputs.CliOp):
        """Spawn, read the output and reap; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen([self.python, "-m", "seqwitness.cli", *op.argv()],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        with proc.stdout, proc.stderr:
            out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    def replay(self, op: inputs.CliOp):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op.argv())
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code
        return code, buffer.getvalue(), ""

    def check(self, op: inputs.CliOp, out):
        code, text, err = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()[-200:]}")
        if op.command == "witness-eval":
            checks.check_witness_eval(text, fmt=op.fmt, digits=op.digits, kind=op.kind,
                                      param=op.param, xi=op.xi, lam=op.lam)
        elif op.command == "max-observers":
            checks.check_max_observers(text, fmt=op.fmt, digits=op.digits, kind=op.kind,
                                       param=op.param, alices=op.alices, bobs=op.bobs,
                                       slack1=op.slack1, slack2=op.slack2, paper=op.paper)
        else:
            checks.check_compare(text, fmt=op.fmt, table=op.table)

    def warm_up(self):
        self.replay(inputs.CliOp("witness-eval", "json", 6, "werner", 0.9, xi=0.8, lam=0.7))


def make(name: str, seed: int, env: dict):
    if name == "cli":
        return Cli(seed, sys.executable, env)
    return {"chains": Chains, "tables": Tables}[name](seed)
