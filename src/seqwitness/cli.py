"""Batch command-line front end.

Three subcommands: ``max-observers`` runs the greedy observer-counting
chains, ``compare`` emits the sequential vs non-sequential resource tables,
and ``witness-eval`` evaluates a modulated witness on one state.  Output is
JSON (default), CSV or plain text on stdout; diagnostics go to stderr.
Identical flags and seed produce byte-identical output.

Each subcommand imports only what it runs, and ``json`` only under
``--format json``: ``witness-eval`` needs just ``states``; ``compare`` adds
``resource`` (which loads ``sequential``); and ``max-observers`` adds
``sequential``, whose chains run on the correlation strength g.  No
subcommand loads numpy, the matrix layers, ``dataclasses``, ``inspect``,
``typing`` or ``__future__``: every value class of the package, the matrix
values too, derives from the frozen ``__slots__`` base ``states._Record``,
and none is a dataclass; an annotation naming a lazily loaded class is a
string, so no module imports anything for its annotations.
"""

import argparse
import math
import os
import sys

from . import states

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

_FORMATS = ("json", "csv", "text")
# each --table choice and the numbers of the tables it prints
_TABLES = {"1": (1,), "2": (2,), "both": (1, 2)}
_TABLE_HEADER = "family,detectability,total_rom,eta_ebits"
# the flag carrying each family's parameter; bell takes none
_PARAM_FLAG = {states.WERNER: "p", states.COLORED: "p", states.PURE: "theta"}


def _quantize(value, digits: int):
    """Round floats to ``digits`` significant figures, recursively; a
    non-finite float becomes None, since JSON has no infinity."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _quantize(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quantize(v, digits) for v in value]
    return value


def _print_json(payload: dict, digits: int):
    import json

    print(json.dumps(_quantize(payload, digits), allow_nan=False))


def _fmt(value: float, digits: int) -> str:
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{digits}g}"


def _load_config(path: str) -> dict[str, str]:
    """Flat KEY=VALUE file; blank lines and # comments are skipped."""
    entries = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _ranged(parse, accepts, message: str):
    """Flag ``type=`` function: ``parse`` the text, then reject a value that
    ``accepts`` refuses with ``message``.  It keeps ``parse``'s name, which
    argparse prints in "invalid int value: 'x'"."""
    def check(text: str):
        value = parse(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(message)
        return value
    check.__name__ = parse.__name__
    return check


_digits = _ranged(int, lambda v: 2 <= v <= 12, "precision digits must lie in [2, 12]")
_seed = _ranged(int, lambda v: v >= 0, "seed must be nonnegative")
_sharpness = _ranged(float, lambda v: 0.0 < v <= 1.0, "sharpness must lie in (0, 1]")
_observers = _ranged(int, lambda v: v >= 1, "need at least one observer per wing")
_slack = _ranged(float, lambda v: 0.0 <= v < 0.1, "stage slack must lie in [0, 0.1)")


def _apply_config(parser: argparse.ArgumentParser, subparsers: argparse.Action, args):
    """Set the subcommand's defaults from the ``--config`` file.  A key is an
    option's dest, parsed as its flag (a store_true flag, nargs 0, as a bool);
    other subcommands' keys are checked, then ignored."""
    try:
        raw = _load_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    options = {a.dest: a for sub in subparsers.choices.values() for a in sub._actions
               if a.dest not in ("help", "config")}
    own = subparsers.choices[args.command]
    for key, text in raw.items():
        action = options.get(key)
        if action is None:
            parser.error(f"unknown config key {key!r}")
        parse = _parse_bool if action.nargs == 0 else action.type or str
        try:
            value = parse(text)
            # argparse checks choices on flags, not on the defaults set here
            if action.choices is not None and value not in action.choices:
                raise ValueError(text)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"bad value for config key {key!r}: {text!r}")
        if any(a.dest == key for a in own._actions):
            own.set_defaults(**{key: value})


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=_FORMATS, default="json",
                   help="output format (default json)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="accepted for reproducibility; currently unused, since no "
                        "command samples (default 0)")
    p.add_argument("--digits", type=_digits, default=6,
                   help="significant digits in printed numbers (2..12, default 6)")
    p.add_argument("--config", default=None,
                   help="flat KEY=VALUE file providing flag defaults")


def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("--state", choices=states.KINDS, default="bell",
                   help="initial state family")
    p.add_argument("--p", type=float, default=None,
                   help="mixing parameter for werner/colored, in (0, 1]")
    p.add_argument("--theta", type=float, default=None,
                   help="angle for the pure family, in (0, pi/4)")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    parser = argparse.ArgumentParser(
        prog="seqwitness",
        description="Sequential entanglement witnessing and resource comparison")
    sub = parser.add_subparsers(dest="command", required=True)

    p_max = sub.add_parser("max-observers",
                           help="count how many observer pairs can detect entanglement")
    p_max.add_argument("--alices", type=_observers, default=1,
                       help="observers on the first wing (default 1)")
    p_max.add_argument("--bobs", type=_observers, default=20,
                       help="observers available on the second wing (default 20)")
    _add_state_flags(p_max)
    p_max.add_argument("--epsilon1", type=_slack, default=1e-2,
                       help="slack above the first-stage threshold (default 0.01)")
    p_max.add_argument("--epsilon", type=_slack, default=0.0,
                       help="slack above later-stage thresholds (default 0)")
    p_max.add_argument("--paper-rounding", dest="paper_rounding", action="store_true",
                       help="snap stage sharpness onto the 0.01 grid")
    _add_common(p_max)
    p_max.set_defaults(handler=_cmd_max_observers)

    p_cmp = sub.add_parser("compare",
                           help="sequential vs non-sequential resource tables")
    p_cmp.add_argument("--table", choices=_TABLES, default="both",
                       help="which table to emit (default both)")
    p_cmp.add_argument("--paper-rounding", dest="paper_rounding", action="store_true",
                       help="also emit two-decimal cascade columns")
    _add_common(p_cmp)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_wit = sub.add_parser("witness-eval",
                           help="expectation of the modulated witness on a state")
    _add_state_flags(p_wit)
    p_wit.add_argument("--xi", type=_sharpness, default=1.0,
                       help="first-wing sharpness in (0, 1] (default 1)")
    p_wit.add_argument("--lambda", dest="lam", type=_sharpness, default=1.0,
                       help="second-wing sharpness in (0, 1] (default 1)")
    _add_common(p_wit)
    p_wit.set_defaults(handler=_cmd_witness_eval)

    return parser, sub


def _family_from_args(parser, args) -> states.StateFamily:
    """The family of ``--state``, its parameter read from its own flag; a
    family flag that the family does not take is a usage error."""
    flag = _PARAM_FLAG.get(args.state)
    extra = [f for f in ("p", "theta") if f != flag and getattr(args, f) is not None]
    if extra:
        parser.error("bell state takes neither --p nor --theta" if flag is None
                     else f"{args.state} state takes --{flag}, not --{extra[0]}")
    param = flag and getattr(args, flag)
    if flag is not None and param is None:
        parser.error(f"--state {args.state} requires --{flag}")
    try:
        return states.StateFamily(args.state, param)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_max_observers(parser, args) -> int:
    from . import sequential

    family = _family_from_args(parser, args)
    policy = sequential.EpsilonPolicy(first_stage_slack=args.epsilon1,
                                      later_stage_slack=args.epsilon,
                                      paper_rounding=args.paper_rounding)
    # greedy_asymmetric's stage loop, without the matrix states it replays: none is printed
    report = sequential._run_chain(family, args.alices - 1, args.bobs, policy.sharpness)
    d, schedule = args.digits, report.schedule.stages
    if args.format == "json":
        _print_json({
            "scenario": {"alices": args.alices, "bobs": args.bobs,
                         "state": family.kind, "parameter": family.param},
            "bobs_detected": report.detected_stages,
            "schedule": [[xi, lam] for xi, lam in schedule],
            "thresholds": list(report.thresholds),
        }, d)
        return EXIT_OK
    # each examined stage: its threshold, and its (xi, lambda) if it detected, else blanks
    rows = []
    for i, t in enumerate(report.thresholds, 1):
        xi, lam = (_fmt(v, d) for v in schedule[i - 1]) if i <= len(schedule) else ("", "")
        rows.append((i, _fmt(t, d), xi, lam))
    if args.format == "csv":
        lines = ["stage,xi,lambda,threshold,detected"] + [
            f"{i},{xi},{lam},{t},{'true' if xi else 'false'}" for i, t, xi, lam in rows]
    else:
        lines = [f"bobs_detected: {report.detected_stages}"] + [
            f"stage {i}: threshold {t} " + (f"xi {xi} lambda {lam}" if xi else "(not detectable)")
            for i, t, xi, lam in rows]
    print("\n".join(lines))
    return EXIT_OK


def _row_dict(row: "resource.ComparisonRow", paper_rounding: bool) -> dict:
    names = row.__slots__ + (("paper_rounded",) if paper_rounding else ())
    fields = ((k, getattr(row, k)) for k in names)
    return {k: v for k, v in fields if v is not None or k == "family"}


def _table_payload(rows: "list[resource.ComparisonRow]", paper_rounding: bool) -> dict:
    seq_row = next(r for r in rows if r.family == "sequential")
    return {
        "sequential": {"detectability": seq_row.detectability,
                       "rom": seq_row.total_rom,
                       "eta_ebits": seq_row.eta_ebits},
        "non_sequential": {r.family: _row_dict(r, paper_rounding) for r in rows
                           if r.family != "sequential"},
    }


def _cmd_compare(parser, args) -> int:
    from . import resource

    tab1, tab2 = resource.build_comparison_tables()
    tables = [(n, (tab1, tab2)[n - 1]) for n in _TABLES[args.table]]
    d, paper = args.digits, args.paper_rounding
    if args.format == "json":
        # one table prints flat under its number, both under table1 and table2
        (n, rows), *more = tables
        _print_json({f"table{n}": _table_payload(rows, paper) for n, rows in tables} if more
                    else {"table": n, **_table_payload(rows, paper)}, d)
        return EXIT_OK

    def csv_block(n, rows):
        keys = list(rows[-1].paper_rounded) if paper else []  # a noisy row's keys
        out = [",".join([_TABLE_HEADER] + [f"paper_rounded_{k}" for k in keys])]
        for r in rows:
            cells = [r.family, _fmt(r.detectability, d), _fmt(r.total_rom, d),
                     _fmt(r.eta_ebits, d)]
            cascade = paper and r.paper_rounded
            cells += [_fmt(cascade[k], d) if cascade else "" for k in keys]
            out.append(",".join(cells))
        return "\n".join(out)

    def text_block(n, rows):
        out = [f"table {n}"]
        for r in rows:
            line = (f"  {r.family}: D {_fmt(r.detectability, d)}, "
                    f"RoM {_fmt(r.total_rom, d)}, eta {_fmt(r.eta_ebits, d)} ebits")
            if paper and (cascade := r.paper_rounded):
                line += "; paper-rounded " + ", ".join(
                    f"{k} {_fmt(v, d)}" for k, v in cascade.items())
            out.append(line)
        return "\n".join(out)

    # a blank line separates csv tables; text tables follow each other
    block, gap = (csv_block, "\n\n") if args.format == "csv" else (text_block, "\n")
    print(gap.join(block(n, rows) for n, rows in tables))
    return EXIT_OK


def _cmd_witness_eval(parser, args) -> int:
    family = _family_from_args(parser, args)
    value = states.witness_value(states.correlation_strength(family), args.xi, args.lam)
    d = args.digits
    if args.format == "json":
        payload = {"state": family.kind, "parameter": family.param,
                   "xi": args.xi, "lambda": args.lam, "expectation": value}
        _print_json(payload, d)
    elif args.format == "csv":
        print("state,parameter,xi,lambda,expectation\n"
              f"{family.kind},{'' if family.param is None else _fmt(family.param, d)},"
              f"{_fmt(args.xi, d)},{_fmt(args.lam, d)},{_fmt(value, d)}")
    else:
        print(_fmt(value, d))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(parser, subparsers, args)
        args = parser.parse_args(argv)
    try:
        # a handler's usage errors print the subcommand's usage line
        return args.handler(subparsers.choices[args.command], args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the interpreter's
        # final flush does not raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_NUMERICAL
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
