"""Seeded inputs of the three workloads.

Inputs come in rounds of fixed make-up.  Round ``r`` of a workload is drawn
from ``random.Random(f"{workload}:{seed}:{r}")``, so it is a pure function of
the seed and the round number, every operation gets fresh parameters, and
a run that completes whole rounds always attempts the same mix of calls.
Operations are shuffled within a round, so each short stretch of a run mixes
the kinds of call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("bell", "werner", "colored", "pure")
NOISY = ("werner", "colored", "pure")
FORMATS = ("json", "csv", "text")

# Observer-count queries: wide parameter ranges, from no detecting stage
# (werner p near 1/3) to the noiseless bell chains.
CHAIN_P = (0.35, 1.0)
CHAIN_THETA = (0.05, 0.77)
MAX_SLACK1, MAX_SLACK2 = 0.05, 0.02
MAX_BOBS = 20

# Resource comparisons: every family must admit a three-stage schedule in
# which every stage detects, under caps drawn from CAP_RANGE.
TABLE_P = {"werner": (0.93, 1.0), "colored": (0.95, 1.0)}
TABLE_THETA = (0.6, 0.77)
CAP_RANGE = (0.9, 1.0)
# The ebit budget of the non-sequential scheme is drawn between the least
# budget at which three copies can reach the target and BUDGET_MAX.
BUDGET_MARGIN, BUDGET_MAX = 0.05, 2.9


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _param(rng: random.Random, kind: str, p_range, theta_range) -> float | None:
    if kind == "bell":
        return None
    if kind == "pure":
        return rng.uniform(*theta_range)
    return rng.uniform(*p_range)


@dataclass(frozen=True)
class ChainOp:
    """One observer-count query.

    ``call`` is greedy_symmetric, greedy_asymmetric or classify_pair_count;
    ``alices`` and ``limit`` (max_bobs) apply to greedy_asymmetric.
    """

    call: str
    kind: str
    param: float | None
    alices: int = 0
    limit: int | None = None
    slack1: float = 0.0
    slack2: float = 0.0
    paper: bool = False


def chain_round(seed: int, r: int) -> list[ChainOp]:
    """16 queries: 4 symmetric chains (one per family, half paper-rounded),
    8 asymmetric chains (1-4 Alices twice each, half paper-rounded) and
    4 pair-count classifications (2 werner, 2 pure)."""
    rng = _rng("chains", seed, r)
    ops = []
    kinds = list(KINDS)
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        paper = i % 2 == 0
        ops.append(ChainOp("greedy_symmetric", kind, _param(rng, kind, CHAIN_P, CHAIN_THETA),
                           slack1=0.0 if paper else rng.uniform(0.0, MAX_SLACK1),
                           slack2=0.0 if paper else rng.uniform(0.0, MAX_SLACK1),
                           paper=paper))
    for i, alices in enumerate((1, 1, 2, 2, 3, 3, 4, 4)):
        kind = rng.choice(KINDS)
        paper = i % 2 == 1
        ops.append(ChainOp("greedy_asymmetric", kind, _param(rng, kind, CHAIN_P, CHAIN_THETA),
                           alices=alices, limit=rng.randint(5, MAX_BOBS),
                           slack1=0.0 if paper else rng.uniform(0.0, MAX_SLACK1),
                           slack2=0.0 if paper or i % 4 == 0 else rng.uniform(0.0, MAX_SLACK2),
                           paper=paper))
    for kind in ("werner", "werner", "pure", "pure"):
        ops.append(ChainOp("classify_pair_count", kind,
                           _param(rng, kind, CHAIN_P, CHAIN_THETA)))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class TableOp:
    """One resource comparison: optimize the family's three-stage schedule
    under ``caps``, match the three noisy families to it, then minimize
    their RoM at the budget ``budget_frac`` of the way up its range."""

    kind: str
    param: float | None
    caps: tuple[float, float, float]
    budget_frac: float

    def ebit_budget(self, target: float) -> float:
        lo = -2.0 * target + BUDGET_MARGIN
        return lo + self.budget_frac * (BUDGET_MAX - lo)


def table_round(seed: int, r: int) -> list[TableOp]:
    """4 comparisons, one per input family."""
    rng = _rng("tables", seed, r)
    ops = []
    for kind in KINDS:
        param = _param(rng, kind, TABLE_P.get(kind), TABLE_THETA)
        caps = tuple(rng.uniform(*CAP_RANGE) for _ in range(3))
        ops.append(TableOp(kind, param, caps, rng.random()))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class CliOp:
    """One ``seqwitness`` invocation; the fields the check needs ride along."""

    command: str
    fmt: str
    digits: int
    kind: str = "bell"
    param: float | None = None
    xi: float = 1.0
    lam: float = 1.0
    alices: int = 1
    bobs: int = MAX_BOBS
    slack1: float = 0.0
    slack2: float = 0.0
    paper: bool = False
    table: str = "both"

    def argv(self) -> list[str]:
        args = [self.command]
        if self.command == "compare":
            args += ["--table", self.table]
            if self.paper:
                args.append("--paper-rounding")
        else:
            if self.command == "max-observers":
                args += ["--alices", str(self.alices), "--bobs", str(self.bobs)]
            args += ["--state", self.kind]
            if self.kind in ("werner", "colored"):
                args += ["--p", repr(self.param)]
            elif self.kind == "pure":
                args += ["--theta", repr(self.param)]
            if self.command == "witness-eval":
                args += ["--xi", repr(self.xi), "--lambda", repr(self.lam)]
            elif self.paper:
                args.append("--paper-rounding")
            else:
                args += ["--epsilon1", repr(self.slack1), "--epsilon", repr(self.slack2)]
        return args + ["--format", self.fmt, "--digits", str(self.digits)]


def cli_round(seed: int, r: int) -> list[CliOp]:
    """8 invocations: 4 witness-eval, 3 max-observers (one per format) and
    1 compare, whose table and format cycle with the round number."""
    rng = _rng("cli", seed, r)
    ops = []
    for fmt in FORMATS + (rng.choice(FORMATS),):
        kind = rng.choice(KINDS)
        ops.append(CliOp("witness-eval", fmt, rng.randint(4, 10), kind,
                         _param(rng, kind, CHAIN_P, CHAIN_THETA),
                         xi=rng.uniform(0.05, 1.0), lam=rng.uniform(0.05, 1.0)))
    fmts = list(FORMATS)
    rng.shuffle(fmts)
    for fmt in fmts:
        kind = rng.choice(KINDS)
        paper = rng.random() < 1.0 / 3.0
        ops.append(CliOp("max-observers", fmt, rng.randint(4, 10), kind,
                         _param(rng, kind, CHAIN_P, CHAIN_THETA),
                         alices=rng.randint(1, 4), bobs=rng.randint(5, MAX_BOBS),
                         slack1=0.0 if paper else rng.uniform(0.0, MAX_SLACK1),
                         slack2=0.0 if paper else rng.uniform(0.0, MAX_SLACK2),
                         paper=paper))
    fmt = FORMATS[r % 3]
    ops.append(CliOp("compare", fmt, rng.randint(3, 8), table=("1", "2", "both")[(r // 3) % 3],
                     paper=fmt == "json" and rng.random() < 0.5))
    rng.shuffle(ops)
    return ops


ROUNDS = {"chains": chain_round, "tables": table_round, "cli": cli_round}
