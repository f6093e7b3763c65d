"""Answer checks computed apart from the program.

Nothing here imports ``seqwitness``.  Every check rebuilds the expected
answer from the scalar correlation-strength recursion:

* the input state starts with strength ``g``: 3 for bell, 3p for werner,
  4p - 1 for colored and 1 + 2 sin 2theta for pure;
* a stage's violation threshold is 1/g;
* a two-sided stage at sharpness s scales g by shrink(s)^2 and a one-sided
  stage at sharpness lam scales it by shrink(lam), where
  shrink(x) = (1 + 2 sqrt(1 - x^2)) / 3.

A failed check raises ``CheckError``.
"""

from __future__ import annotations

import json
import math

# Relative tolerance between the program's float answers and the recursion.
REL_TOL = 1e-9
# A count decision or grid snap this close to its boundary may go either way.
AMBIGUOUS = 1e-9
# Bisection and grid-refinement tolerances of the answers being checked.
PARAM_TOL = 1e-8
ROM_TOL = 1e-8
# Optimizer perturbation sizes and the improvement that counts as a miss.
PERTURB_STEPS = (1e-3, 1e-2)
IMPROVE_TOL = 1e-12
# Paper anchors of the comparison tables and their acceptance tolerances.
ANCHOR_D, ANCHOR_D_TOL = -0.20, 0.005
ANCHOR_ROM, ANCHOR_ROM_TOL = 5.06, 0.02
ANCHOR_ETA, ANCHOR_ETA_TOL = {"werner": 1.12, "colored": 1.14, "pure": 1.11}, 0.02
ANCHOR_MIN_ROM = {"werner": 5.20, "colored": 5.18, "pure": 5.20}
ANCHOR_MIN_ROM_TOL = 0.03
# Lower end of the optimizer's sharpness grid.
GRID_FLOOR = 0.02


class CheckError(Exception):
    """An answer disagrees with the independent computation."""


def strength(kind: str, param: float | None) -> float:
    if kind == "bell":
        return 3.0
    if kind == "werner":
        return 3.0 * param
    if kind == "colored":
        return 4.0 * param - 1.0
    if kind == "pure":
        return 1.0 + 2.0 * math.sin(2.0 * param)
    raise CheckError(f"unknown state family {kind!r}")


def shrink(x: float) -> float:
    return (1.0 + 2.0 * math.sqrt(max(0.0, 1.0 - x * x))) / 3.0


def threshold(g: float) -> float:
    return 1.0 / g if g > 1e-12 else math.inf


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- chains

def _grid_choices(t: float, two_sided: bool) -> set[float]:
    """Paper-rounded sharpness values acceptable for threshold ``t``.

    The chosen grid point is the smallest k/100 whose sharpness product
    strictly exceeds t, capped at 1; within ``AMBIGUOUS`` of a grid point
    the next one up is accepted too.
    """
    x = math.sqrt(t) if two_sided else t
    k = 1
    while k < 100 and ((k / 100.0) ** 2 if two_sided else k / 100.0) <= t:
        k += 1
    choices = {k / 100.0}
    if abs(x * 100.0 - round(x * 100.0)) < AMBIGUOUS * 100.0:
        choices.add(min(k + 1, 100) / 100.0)
        choices.add(max(k - 1, 1) / 100.0)
    return choices


def _slack_choice(t: float, slack: float, two_sided: bool) -> float:
    value = min(t + slack, 1.0)
    return math.sqrt(value) if two_sided else value


def expected_chain(g: float, *, two_sided: int | None, limit: int | None,
                   slack1: float, slack2: float, paper: bool):
    """Thresholds and stages the greedy chain should produce.

    ``two_sided`` is the number of leading two-sided stages (None: all),
    ``limit`` the stage cap (None: none).
    """
    thresholds, stages = [], []
    while limit is None or len(stages) < limit:
        t = threshold(g)
        thresholds.append(t)
        if not t < 1.0:
            break
        i = len(stages)
        two = two_sided is None or i < two_sided
        if paper:
            lam = min(_grid_choices(t, two))
        else:
            lam = _slack_choice(t, slack1 if i == 0 else slack2, two)
        stages.append((lam, lam) if two else (1.0, lam))
        g *= shrink(lam) ** 2 if two else shrink(lam)
    return thresholds, stages


def match_chain(g: float, count: int, thresholds, stages, near, **spec):
    """Hold a chain's count, thresholds and stages to ``expected_chain``.

    ``near(got, want, what)`` compares one figure.  The recursion also runs
    at g(1 -+ AMBIGUOUS); where a count or grid decision differs between
    the two, the count may take either value and only the stages before
    that decision are compared.
    """
    thresholds, stages = list(thresholds), list(stages)
    _require(len(stages) == count, f"{len(stages)} schedule rows for {count} detecting stages")
    want_t, want_s = expected_chain(g, **spec)
    lo_s = expected_chain(g * (1.0 - AMBIGUOUS), **spec)[1]
    hi_s = expected_chain(g * (1.0 + AMBIGUOUS), **spec)[1]
    # Slack-placed sharpness moves smoothly with g; only counts and grid
    # snaps are decisions.
    agreed = 0
    while (agreed < min(len(lo_s), len(hi_s))
           and (not spec["paper"] or lo_s[agreed] == hi_s[agreed])):
        agreed += 1
    if agreed < max(len(lo_s), len(hi_s)):
        _require(min(len(lo_s), len(hi_s)) <= count <= max(len(lo_s), len(hi_s)),
                 f"{count} detecting stages, expected {len(lo_s)}..{len(hi_s)}")
        want_t, want_s = want_t[:agreed], want_s[:agreed]
        thresholds, stages = thresholds[:agreed], stages[:agreed]
    else:
        _require(count == len(want_s), f"{count} detecting stages, expected {len(want_s)}")
        _require(len(thresholds) == len(want_t),
                 f"{len(thresholds)} thresholds, expected {len(want_t)}")
    for i, (got, want) in enumerate(zip(thresholds, want_t), 1):
        near(got, want, f"stage {i} threshold")
    for i, (got, want) in enumerate(zip(stages, want_s), 1):
        near(got[0], want[0], f"stage {i} xi")
        near(got[1], want[1], f"stage {i} lambda")


def _near_exact(got: float, want: float, what: str):
    _require(_close(got, want), f"{what} {got!r}, expected {want!r}")


def check_chain(g: float, thresholds, stages, **spec):
    """A greedy chain as the library returns it, at full precision."""
    match_chain(g, len(stages), thresholds, stages, _near_exact, **spec)


def check_pair_count(g: float, count: int):
    """Zero-slack symmetric count, allowing a flip within ``AMBIGUOUS`` of a
    band edge."""
    spec = dict(two_sided=None, limit=None, slack1=0.0, slack2=0.0, paper=False)
    lo = len(expected_chain(g * (1.0 - AMBIGUOUS), **spec)[1])
    hi = len(expected_chain(g * (1.0 + AMBIGUOUS), **spec)[1])
    _require(lo <= count <= hi, f"pair count {count}, expected {lo}..{hi}")


# ---------------------------------------------------------------- tables

def stage_detectabilities(g: float, lams) -> list[float]:
    """Witness expectation of each stage of a symmetric schedule."""
    out = []
    for lam in lams:
        out.append((1.0 - lam * lam * g) / 4.0)
        g *= shrink(lam) ** 2
    return out


def check_optimum(g: float, caps, lams, per_stage, total):
    """The maximizer: feasible, recomputed through the recursion, and not
    improved by any small feasible perturbation."""
    lams = list(lams)
    _require(len(lams) == 3, f"{len(lams)} stages in the optimum")
    for lam, cap in zip(lams, caps):
        _require(GRID_FLOOR - 1e-12 <= lam <= cap + 1e-12,
                 f"sharpness {lam!r} outside [{GRID_FLOOR}, {cap!r}]")
    ref = stage_detectabilities(g, lams)
    for d, want in zip(per_stage, ref):
        _require(_close(d, want), f"stage detectability {d!r}, expected {want!r}")
    _require(all(d < 0.0 for d in ref), "a stage of the optimum does not detect")
    _require(_close(total, sum(ref)), f"total {total!r}, expected {sum(ref)!r}")
    best = sum(ref)
    for step in PERTURB_STEPS:
        for i in range(3):
            for j in range(i, 3):
                for si in (-step, step):
                    for sj in ((0.0,) if i == j else (-step, step)):
                        trial = list(lams)
                        trial[i] += si
                        trial[j] += sj
                        if not all(GRID_FLOOR <= x <= c for x, c in zip(trial, caps)):
                            continue
                        per = stage_detectabilities(g, trial)
                        if all(d < 0.0 for d in per):
                            _require(sum(per) >= best - IMPROVE_TOL,
                                     f"perturbed schedule {trial} beats the optimum "
                                     f"({sum(per)!r} < {best!r})")


def matched_strength(products, target: float) -> float:
    """Strength at which three fresh copies sum to ``target``:
    (3 - 4D) / sum of the sharpness products."""
    return (3.0 - 4.0 * target) / sum(products)


def param_for_strength(kind: str, g: float) -> float:
    if kind == "werner":
        return g / 3.0
    if kind == "colored":
        return (g + 1.0) / 4.0
    if kind == "pure":
        return math.asin((g - 1.0) / 2.0) / 2.0
    raise CheckError(f"no matching parameter for {kind!r}")


def check_matching(kind: str, products, target: float, param: float, eta: float):
    g = matched_strength(products, target)
    want = param_for_strength(kind, g)
    _require(abs(param - want) <= PARAM_TOL, f"{kind} matching parameter {param!r}, "
             f"expected {want!r}")
    want_eta = 3.0 * (g - 1.0) / 2.0
    _require(abs(eta - want_eta) <= PARAM_TOL * 10.0,
             f"{kind} eta {eta!r}, expected {want_eta!r}")


def budget_strength(kind: str, ebit_budget: float) -> float:
    """Strength of each of three copies holding ``ebit_budget`` ebits; the
    colored parameter is carried at two decimals, as the program does."""
    c = ebit_budget / 3.0
    if kind == "colored":
        return 4.0 * round((c + 1.0) / 2.0, 2) - 1.0
    return 1.0 + 2.0 * c


def min_rom(kind: str, ebit_budget: float, target: float) -> float:
    """Least 2 * sum(lam) over lam in [floor, 1]^3 with fixed sum(lam^2).

    A linear function on a sphere slice is smallest at a point with at most
    one coordinate strictly inside the box, so it is enough to pin two
    coordinates at the cap or the floor and solve for the third.
    """
    g = budget_strength(kind, ebit_budget)
    floor = 1.0 / math.sqrt(g)
    q = (3.0 - 4.0 * target) / g
    sums = []
    for a, b in ((1.0, 1.0), (1.0, floor), (floor, floor)):
        rest = q - a * a - b * b
        if floor * floor - 1e-12 <= rest <= 1.0 + 1e-12:
            sums.append(a + b + math.sqrt(min(max(rest, floor * floor), 1.0)))
    _require(bool(sums), f"{kind}: no feasible boundary pattern")
    return 2.0 * min(sums)


def check_min_rom(kind: str, ebit_budget: float, target: float, rom: float):
    want = min_rom(kind, ebit_budget, target)
    _require(abs(rom - want) <= ROM_TOL, f"{kind} min RoM {rom!r}, expected {want!r}")


# ---------------------------------------------------------------- CLI output

def _printed(value: float, digits: int) -> float:
    """Largest error a value printed at ``digits`` significant digits may carry."""
    return 10.0 ** (1 - digits) * abs(value) + 1e-300


def _near(got, want: float, digits: int, what: str):
    try:
        got = float(got)
    except (TypeError, ValueError):
        raise CheckError(f"{what}: unreadable value {got!r}") from None
    if math.isinf(want):
        _require(got == want, f"{what} {got!r}, expected {want!r}")
        return
    _require(abs(got - want) <= _printed(want, digits) + 1e-12,
             f"{what} {got!r}, expected {want!r} at {digits} digits")


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        raise CheckError("output is not JSON") from None


def _lines(text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    _require(bool(lines) and lines[0] != "", "empty output")
    return lines


def check_witness_eval(text: str, *, fmt: str, digits: int, kind: str,
                       param: float | None, xi: float, lam: float):
    want = (1.0 - xi * lam * strength(kind, param)) / 4.0
    if fmt == "json":
        data = _json(text)
        _require(isinstance(data, dict) and data.get("state") == kind,
                 f"witness-eval state {data!r}")
        got = data.get("expectation")
    elif fmt == "csv":
        lines = _lines(text)
        _require(len(lines) == 2 and lines[0] == "state,parameter,xi,lambda,expectation",
                 "witness-eval csv layout")
        cells = lines[1].split(",")
        _require(len(cells) == 5 and cells[0] == kind, "witness-eval csv row")
        got = cells[4]
    else:
        lines = _lines(text)
        _require(len(lines) == 1, "witness-eval text layout")
        got = lines[0]
    _near(got, want, digits, "expectation")


def _parse_max_observers(text: str, fmt: str):
    """(count, thresholds, stages) from any output format."""
    if fmt == "json":
        data = _json(text)
        try:
            return (int(data["bobs_detected"]), [float(t) for t in data["thresholds"]],
                    [(float(a), float(b)) for a, b in data["schedule"]])
        except (KeyError, TypeError, ValueError):
            raise CheckError("max-observers json layout") from None
    lines = _lines(text)
    thresholds, stages = [], []
    if fmt == "csv":
        _require(lines[0] == "stage,xi,lambda,threshold,detected", "max-observers csv header")
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            _require(len(cells) == 5 and cells[0] == str(i), f"max-observers csv row {line!r}")
            thresholds.append(float(cells[3]))
            if cells[4] == "true":
                stages.append((float(cells[1]), float(cells[2])))
            else:
                _require(cells[4] == "false" and cells[1] == cells[2] == "",
                         f"max-observers csv row {line!r}")
        return len(stages), thresholds, stages
    head = lines[0].split(": ")
    _require(len(head) == 2 and head[0] == "bobs_detected", "max-observers text header")
    for i, line in enumerate(lines[1:], 1):
        words = line.split()
        _require(len(words) >= 4 and words[:3] == ["stage", f"{i}:", "threshold"],
                 f"max-observers text row {line!r}")
        thresholds.append(float(words[3]))
        if words[4:] == ["(not", "detectable)"]:
            continue
        _require(len(words) == 8 and words[4] == "xi" and words[6] == "lambda",
                 f"max-observers text row {line!r}")
        stages.append((float(words[5]), float(words[7])))
    return int(head[1]), thresholds, stages


def check_max_observers(text: str, *, fmt: str, digits: int, kind: str,
                        param: float | None, alices: int, bobs: int,
                        slack1: float, slack2: float, paper: bool):
    try:
        count, thresholds, stages = _parse_max_observers(text, fmt)
    except ValueError:
        raise CheckError("max-observers output has an unreadable number") from None
    match_chain(strength(kind, param), count, thresholds, stages,
                lambda got, want, what: _near(got, want, digits, what),
                two_sided=alices - 1, limit=bobs, slack1=slack1, slack2=slack2, paper=paper)


def _parse_compare(text: str, fmt: str, numbers: list[int]) -> dict[int, dict]:
    """{table number: {family: (detectability, rom, eta)}} from any format.

    CSV blocks carry no table number; they are taken to be ``numbers``."""
    tables: dict[int, dict] = {}
    if fmt == "json":
        data = _json(text)
        try:
            if "table" in data:
                parts = {int(data["table"]): data}
            else:
                parts = {1: data["table1"], 2: data["table2"]}
            for number, body in parts.items():
                seq = body["sequential"]
                rows = {"sequential": (seq["detectability"], seq["rom"], seq["eta_ebits"])}
                for fam, row in body["non_sequential"].items():
                    rows[fam] = (row["detectability"], row["total_rom"], row["eta_ebits"])
                tables[number] = rows
        except (KeyError, TypeError, ValueError):
            raise CheckError("compare json layout") from None
        return tables
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        blocks, block = [], []
        for line in lines:
            if line == "":
                blocks.append(block)
                block = []
            else:
                block.append(line)
        blocks.append(block)
        _require(len(blocks) == len(numbers), f"{len(blocks)} csv tables")
        for number, block in zip(numbers, blocks):
            _require(bool(block) and block[0] == "family,detectability,total_rom,eta_ebits",
                     "compare csv header")
            rows = {}
            for line in block[1:]:
                cells = line.split(",")
                _require(len(cells) == 4, f"compare csv row {line!r}")
                rows[cells[0]] = tuple(float(c) for c in cells[1:])
            tables[number] = rows
        return tables
    number = None
    for line in lines:
        if line.startswith("table "):
            number = int(line.split()[1])
            tables[number] = {}
            continue
        _require(number is not None and line.startswith("  "), f"compare text row {line!r}")
        fam, _, rest = line.strip().partition(": ")
        words = rest.replace(",", "").split()
        _require(len(words) == 7 and words[0] == "D" and words[2] == "RoM"
                 and words[4] == "eta" and words[6] == "ebits", f"compare text row {line!r}")
        tables[number][fam] = (float(words[1]), float(words[3]), float(words[5]))
    return tables


def check_compare(text: str, *, fmt: str, table: str):
    wanted = {"1": [1], "2": [2], "both": [1, 2]}[table]
    try:
        tables = _parse_compare(text, fmt, wanted)
    except ValueError:
        raise CheckError("compare output has an unreadable number") from None
    _require(sorted(tables) == wanted, f"compare printed tables {sorted(tables)}")
    for number, rows in tables.items():
        _require(sorted(rows) == ["colored", "pure", "sequential", "werner"],
                 f"table {number} rows {sorted(rows)}")
        for fam, (d, rom, eta) in rows.items():
            _require(abs(d - ANCHOR_D) <= ANCHOR_D_TOL, f"table {number} {fam} D {d!r}")
        d, rom, eta = rows["sequential"]
        _require(abs(rom - ANCHOR_ROM) <= ANCHOR_ROM_TOL, f"sequential RoM {rom!r}")
        _require(eta == 1.0, f"sequential eta {eta!r}")
        for fam in ("werner", "colored", "pure"):
            _, rom, eta = rows[fam]
            if number == 1:
                _require(abs(eta - ANCHOR_ETA[fam]) <= ANCHOR_ETA_TOL,
                         f"table 1 {fam} eta {eta!r}")
                _require(abs(rom - ANCHOR_ROM) <= ANCHOR_ROM_TOL, f"table 1 {fam} RoM {rom!r}")
            else:
                _require(abs(rom - ANCHOR_MIN_ROM[fam]) <= ANCHOR_MIN_ROM_TOL,
                         f"table 2 {fam} RoM {rom!r}")
                _require(eta == 1.0, f"table 2 {fam} eta {eta!r}")
