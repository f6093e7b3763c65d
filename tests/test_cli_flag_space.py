"""Differential check of the CLI flag space against ``perfbench/checks.py``.

``checks.py`` rebuilds every answer from the scalar correlation-strength
recursion without importing ``seqwitness``; it is loaded here from its file
and not changed.  Each example draws a subcommand and a value for some of its
options, in range or not, and passes each value either as a flag or as a
``--config`` key.  A run whose values are all in range exits 0 with output
that the checks accept; any other run exits 2 with a usage message and no
traceback.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqwitness import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

_NAN = float("nan")
_SLACK = (st.sampled_from([0.0, 0.1 - 1e-9, math.nextafter(0.1, 0.0)])
          | st.floats(0.0, 0.1, exclude_max=True))
_SHARPNESS = st.sampled_from([1.0, 1e-9]) | st.floats(0.0, 1.0, exclude_min=True)

# Each option: (values in range, values out of range).
_OPTIONS = {
    "format": (st.sampled_from(["json", "csv", "text"]), st.just("xml")),
    "digits": (st.sampled_from([2, 12]) | st.integers(2, 12), st.sampled_from([1, 13])),
    "seed": (st.integers(0, 99), st.just(-1)),
    "alices": (st.integers(1, 4), st.just(0)),
    "bobs": (st.just(1) | st.integers(1, 20), st.just(0)),
    "epsilon1": (_SLACK, st.sampled_from([0.1, -0.01, _NAN])),
    "epsilon": (_SLACK, st.sampled_from([0.1, -0.01, _NAN])),
    "paper_rounding": (st.booleans(), st.just("maybe")),
    "table": (st.sampled_from(["1", "2", "both"]), st.just("3")),
    "xi": (_SHARPNESS, st.sampled_from([0.0, 1.5, _NAN])),
    "lam": (_SHARPNESS, st.sampled_from([0.0, 1.5, _NAN])),
}
_COMMON = ("format", "digits", "seed")
_COMMAND_OPTIONS = {
    "max-observers": ("alices", "bobs", "epsilon1", "epsilon", "paper_rounding") + _COMMON,
    "compare": ("table", "paper_rounding") + _COMMON,
    "witness-eval": ("xi", "lam") + _COMMON,
}
# Family parameters in range, weakly correlated ones (g <= 1) among them:
# werner p <= 1/3 and colored p <= 1/2, colored p <= 1/4 with no finite
# threshold; the pure family at theta = 1e-9 detects with a 4e-9 margin.
_P = (st.sampled_from([1.0, 1.0 / 3.0, 0.25, 0.2, 0.5])
      | st.floats(0.0, 0.5, exclude_min=True) | st.floats(0.0, 1.0, exclude_min=True))
_THETA = (st.sampled_from([1e-9, math.pi / 4.0 - 1e-9])
          | st.floats(0.0, math.pi / 4.0, exclude_min=True, exclude_max=True))
_FAMILY = {"werner": ("p", _P), "colored": ("p", _P), "pure": ("theta", _THETA)}
_BAD_PARAM = st.sampled_from([None, 0.0, -0.5, 1.5, _NAN])


@st.composite
def _cases(draw):
    """(command, {option: value}, options passed through the config file,
    whether every value is in range)."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    values, good = {}, True
    for name in _COMMAND_OPTIONS[command]:
        if draw(st.booleans()):
            continue  # left at its default
        in_range, out_of_range = _OPTIONS[name]
        if draw(st.integers(0, 5)) == 0:
            values[name], good = draw(out_of_range), False
        else:
            values[name] = draw(in_range)
    if command != "compare":
        values["state"] = state = draw(st.sampled_from(["bell", "werner", "colored", "pure"]))
        if state == "bell":
            if draw(st.integers(0, 5)) == 0:  # bell takes no parameter
                values[draw(st.sampled_from(["p", "theta"]))], good = 0.5, False
        else:
            param, in_range = _FAMILY[state]
            if draw(st.integers(0, 5)) == 0:
                value, good = draw(_BAD_PARAM), False
            else:
                value = draw(in_range)
            if value is not None:  # None: the family's parameter is missing
                values[param] = value
    # a store_true flag cannot carry a value that is not a bool
    in_config = {name for name in values
                 if values[name] == "maybe" or draw(st.booleans())}
    return command, values, frozenset(in_config), good


_FLAG = {"paper_rounding": "--paper-rounding", "lam": "--lambda"}


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _invoke(command, values, in_config, directory):
    """(exit code, stdout, stderr) of ``cli.main`` on the case's argv."""
    argv = [command]
    for name, value in values.items():
        if name in in_config:
            continue
        flag = _FLAG.get(name, f"--{name}")
        if name == "paper_rounding":
            argv += [flag] if value else []
        else:
            argv += [flag, _text(value)]
    if in_config:
        path = os.path.join(directory, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{name}={_text(values[name])}\n" for name in sorted(in_config))
        argv += ["--config", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _restore_infinity(text: str) -> str:
    """The JSON output with each null threshold read back as the infinite
    threshold it stands for; ``checks.py`` parses thresholds as floats."""
    data = json.loads(text)
    data["thresholds"] = [math.inf if t is None else t for t in data["thresholds"]]
    return json.dumps(data)


def _without_paper_columns(text: str, fmt: str) -> str:
    """csv and text compare output without the paper-rounded columns, which
    ``checks.py`` does not read."""
    if fmt == "csv":
        return "\n".join(",".join(line.split(",")[:4]) for line in text.split("\n"))
    return "\n".join(line.split("; paper-rounded ")[0] for line in text.split("\n"))


def _check(command, values, text):
    fmt, digits = values.get("format", "json"), values.get("digits", 6)
    kind = values.get("state", "bell")
    param = values.get("theta" if kind == "pure" else "p")
    paper = values.get("paper_rounding", False)
    if command == "witness-eval":
        checks.check_witness_eval(text, fmt=fmt, digits=digits, kind=kind, param=param,
                                  xi=values.get("xi", 1.0), lam=values.get("lam", 1.0))
    elif command == "max-observers":
        if fmt == "json":
            text = _restore_infinity(text)
        checks.check_max_observers(text, fmt=fmt, digits=digits, kind=kind, param=param,
                                   alices=values.get("alices", 1), bobs=values.get("bobs", 20),
                                   slack1=values.get("epsilon1", 0.01),
                                   slack2=values.get("epsilon", 0.0), paper=paper)
    else:
        table = values.get("table", "both")
        if paper and fmt != "json":
            text = _without_paper_columns(text, fmt)
        if digits >= 3:
            checks.check_compare(text, fmt=fmt, table=table)
            return
        # the table anchors' tolerances are finer than two printed digits
        # (RoM 5.06 prints as 5.1): hold the 12-digit answer to them and this
        # one to it, at the precision the checks allow a printed value
        full = _invoke("compare", {**values, "digits": 12}, frozenset(), None)[1]
        if paper and fmt != "json":
            full = _without_paper_columns(full, fmt)
        checks.check_compare(full, fmt=fmt, table=table)
        numbers = {"1": [1], "2": [2], "both": [1, 2]}[table]
        want = checks._parse_compare(full, fmt, numbers)
        for number, rows in checks._parse_compare(text, fmt, numbers).items():
            for family, row in rows.items():
                for got, value in zip(row, want[number][family]):
                    checks._near(got, value, digits, f"table {number} {family}")


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
@example(("max-observers", {"state": "pure", "theta": 1e-9, "format": "json"},
          frozenset(), True))
@example(("max-observers", {"state": "colored", "p": 0.2, "bobs": 1, "digits": 12},
          frozenset({"p", "bobs"}), True))
@example(("max-observers", {"state": "werner", "p": 0.3, "epsilon1": 0.1 - 1e-9,
                            "epsilon": 0.1 - 1e-9, "alices": 2, "digits": 2},
          frozenset({"epsilon1"}), True))
@example(("compare", {"paper_rounding": True, "format": "text"}, frozenset(), True))
@example(("compare", {"paper_rounding": True, "format": "csv", "digits": 2},
          frozenset({"digits"}), True))
def test_cli_answers_match_the_scalar_model_or_exit_2(case):
    command, values, in_config, good = case
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _invoke(command, values, in_config, directory)
    assert "Traceback" not in err
    if good:
        assert code == 0, err
        _check(command, values, out)
    else:
        # flag errors print the subcommand's usage, config errors the top level's
        assert code == 2 and err.startswith("usage: seqwitness ") and ": error: " in err, err
