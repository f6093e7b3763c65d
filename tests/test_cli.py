import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqwitness import cli


def package_env():
    """Environment for a child interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_max_observers_two_alices(capsys):
    code, out = run(capsys, "max-observers", "--alices", "2", "--bobs", "20", "--state", "bell")
    assert code == 0
    data = json.loads(out)
    assert data["bobs_detected"] == 8
    assert len(data["schedule"]) == 8
    assert data["thresholds"][-1] > 1.0


def test_max_observers_three_alices(capsys):
    code, out = run(capsys, "max-observers", "--alices", "3", "--bobs", "20", "--state", "bell")
    assert code == 0
    assert json.loads(out)["bobs_detected"] == 5


def test_max_observers_supply_limited(capsys):
    code, out = run(capsys, "max-observers", "--alices", "3", "--bobs", "1", "--state", "bell")
    assert code == 0
    assert json.loads(out)["bobs_detected"] == 1


def test_max_observers_infeasible_state_counts_zero(capsys):
    code, out = run(capsys, "max-observers", "--alices", "1", "--bobs", "5",
                    "--state", "werner", "--p", "0.2")
    assert code == 0
    assert json.loads(out)["bobs_detected"] == 0


def test_max_observers_invalid_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["max-observers", "--alices", "2", "--state", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["max-observers", "--state", "werner"])  # missing --p
    assert exc.value.code == 2
    for flag, value, message in (("--bobs", "0", "need at least one observer per wing"),
                                 ("--epsilon1", "0.1", "stage slack must lie in [0, 0.1)")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["max-observers", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_max_observers_csv_and_text(capsys):
    code, out = run(capsys, "max-observers", "--alices", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stage,xi,lambda,threshold,detected"
    assert lines[1].endswith("true")
    assert lines[-1].endswith("false")
    code, out = run(capsys, "max-observers", "--alices", "2", "--format", "text")
    assert out.startswith("bobs_detected: 8")


def test_compare_csv_header(capsys):
    code, out = run(capsys, "compare", "--table", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,detectability,total_rom,eta_ebits"
    assert len(lines) == 5
    assert lines[1].startswith("sequential,")


def test_compare_table2_sequential_rom(capsys):
    code, out = run(capsys, "compare", "--table", "2")
    assert code == 0
    data = json.loads(out)
    assert data["sequential"]["rom"] == pytest.approx(5.06)
    assert set(data["non_sequential"]) == {"werner", "colored", "pure"}


def test_compare_both_tables_json(capsys):
    code, out = run(capsys, "compare")
    data = json.loads(out)
    assert set(data) == {"table1", "table2"}


def test_compare_invalid_table_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--table", "3"])
    assert exc.value.code == 2


def test_compare_paper_rounding_column(capsys):
    code, out = run(capsys, "compare", "--table", "2", "--paper-rounding")
    data = json.loads(out)
    assert data["non_sequential"]["colored"]["paper_rounded"]["total_rom"] == pytest.approx(5.18)


def test_compare_paper_rounding_csv_columns(capsys):
    _, plain = run(capsys, "compare", "--table", "both", "--format", "csv")
    code, out = run(capsys, "compare", "--table", "both", "--format", "csv", "--paper-rounding")
    assert code == 0
    tab1, tab2 = (block.splitlines() for block in out.strip().split("\n\n"))
    assert tab1[0] == ("family,detectability,total_rom,eta_ebits,paper_rounded_matching_parameter,"
                       "paper_rounded_concurrence,paper_rounded_eta_ebits")
    assert tab2[0] == ("family,detectability,total_rom,eta_ebits,paper_rounded_total_rom,"
                       "paper_rounded_quadratic_constraint,paper_rounded_per_pair_floor")
    rows1 = {line.split(",")[0]: line.split(",") for line in tab1[1:]}
    rows2 = {line.split(",")[0]: line.split(",") for line in tab2[1:]}
    assert rows1["sequential"][4:] == ["", "", ""]
    assert float(rows1["colored"][6]) == pytest.approx(1.14)
    assert float(rows2["colored"][4]) == pytest.approx(5.18)
    assert float(rows2["werner"][5]) == pytest.approx(2.28)
    # the leading columns are the unrounded table, unchanged
    plain_rows = [line.split(",")[:4] for line in plain.strip().splitlines() if line]
    rounded_rows = [line.split(",")[:4] for line in out.strip().splitlines() if line]
    assert rounded_rows == plain_rows


def test_compare_paper_rounding_text_clause(capsys):
    _, plain = run(capsys, "compare", "--table", "2", "--format", "text")
    code, out = run(capsys, "compare", "--table", "2", "--format", "text", "--paper-rounding")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(";")[0] for line in lines] == plain.strip().splitlines()
    assert lines[1] == "  sequential: D -0.2, RoM 5.06, eta 1 ebits"
    colored = next(line for line in lines if line.startswith("  colored:"))
    assert colored.endswith("; paper-rounded total_rom 5.18, quadratic_constraint 2.26, "
                            "per_pair_floor 0.77")


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = package_env()
    try:
        proc = subprocess.run([sys.executable, "-m", "seqwitness.cli", "witness-eval",
                               "--state", "bell", "--xi", "0.5", "--lambda", "0.5"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_compare_closed_stdout_pipe_exits_1_without_traceback():
    # the reader goes away while the child is still starting, so its first
    # write to stdout hits a closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "seqwitness.cli", "compare",
                             "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
        proc.kill()
    assert code == 1
    assert err == b""


def test_witness_eval_values(capsys):
    code, out = run(capsys, "witness-eval", "--state", "werner", "--p", "1",
                    "--xi", "1", "--lambda", "1", "--format", "text")
    assert code == 0
    assert float(out) == pytest.approx(-0.5)
    code, out = run(capsys, "witness-eval", "--state", "werner", "--p", "0.333333",
                    "--xi", "1", "--lambda", "1", "--format", "text")
    assert abs(float(out)) < 1e-6
    code, out = run(capsys, "witness-eval", "--state", "colored", "--p", "0.69",
                    "--xi", "0.73", "--lambda", "0.73", "--format", "text")
    assert float(out) == pytest.approx(0.0155, abs=1e-4)


def test_witness_eval_json_payload(capsys):
    code, out = run(capsys, "witness-eval", "--state", "bell")
    data = json.loads(out)
    assert data["expectation"] == pytest.approx(-0.5)
    assert data["state"] == "bell"


def test_witness_eval_out_of_range_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness-eval", "--state", "werner", "--p", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness-eval", "--state", "bell", "--xi", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["max-observers", "--state", "werner", "--p", "nan"],
    ["max-observers", "--state", "werner", "--p", "inf"],
    ["max-observers", "--state", "pure", "--theta", "nan"],
    ["witness-eval", "--state", "bell", "--xi", "nan"],
    ["witness-eval", "--state", "bell", "--lambda", "inf"],
    ["max-observers", "--epsilon", "nan"],
])
def test_non_finite_input_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seqwitness {argv[0]} ")
    assert f"\nseqwitness {argv[0]}: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["witness-eval", "--state", "werner", "--p", "inf"],
    ["witness-eval", "--state", "werner"],
    ["witness-eval", "--state", "bell", "--theta", "0.3"],
    ["max-observers", "--state", "colored", "--p", "0"],
    ["max-observers", "--state", "pure"],
])
def test_family_errors_print_the_subcommand_usage(argv, capsys):
    # family errors are raised after parsing, through the subcommand's parser
    # like every other argument error, not the top-level one
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seqwitness {argv[0]} [-h]")
    assert f"\nseqwitness {argv[0]}: error: " in err


@pytest.mark.parametrize("command", ["witness-eval", "max-observers"])
@pytest.mark.parametrize("state,flags,message", [
    ("werner", {"p": "0.5", "theta": "0.3"}, "werner state takes --p, not --theta"),
    ("colored", {"theta": "0.3", "p": "0.9"}, "colored state takes --p, not --theta"),
    ("pure", {"theta": "0.3", "p": "0.5"}, "pure state takes --theta, not --p"),
    ("werner", {"theta": "0.3"}, "werner state takes --p, not --theta"),
    ("bell", {"p": "0.5"}, "bell state takes neither --p nor --theta"),
    ("bell", {"theta": "0.3"}, "bell state takes neither --p nor --theta"),
], ids=["werner-theta", "colored-theta", "pure-p", "werner-theta-only", "bell-p", "bell-theta"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
def test_a_family_flag_the_family_does_not_take_is_a_usage_error(
        tmp_path, capsys, command, state, flags, message, via_config):
    # every family refuses the parameter flag of another, from the command
    # line or a config file alike, with the subcommand's usage
    argv = [command, "--state", state]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in flags.items()))
        argv += ["--config", str(cfg)]
    else:
        argv += [arg for key, value in flags.items() for arg in (f"--{key}", value)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"usage: seqwitness {command} [-h]")
    assert err.endswith(f"\nseqwitness {command}: error: {message}\n")


def test_digits_flag_controls_precision(capsys):
    _, out = run(capsys, "witness-eval", "--state", "bell", "--xi", "0.777",
                 "--lambda", "0.777", "--format", "text", "--digits", "3")
    assert len(out.strip()) <= 9
    for digits in ("2", "12"):
        code, out = run(capsys, "witness-eval", "--xi", "0.777", "--digits", digits)
        assert code == 0 and json.loads(out)["xi"] == float(f"{0.777:.{digits}g}")
    for digits in ("1", "13", "99"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness-eval", "--state", "bell", "--digits", digits])
        assert exc.value.code == 2
        assert "argument --digits: precision digits must lie in [2, 12]" in capsys.readouterr().err


def test_json_output_is_strict(capsys):
    # no sharpness detects a colored state at p = 0.2, so its threshold is
    # infinite: null in json, inf in csv and text
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    argv = ["max-observers", "--state", "colored", "--p", "0.2"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out, parse_constant=reject)["thresholds"] == [None]
    assert run(capsys, *argv, "--format", "csv")[1].endswith(",inf,false\n")
    assert "threshold inf" in run(capsys, *argv, "--format", "text")[1]


def test_identical_flags_identical_output(capsys):
    _, first = run(capsys, "max-observers", "--alices", "2", "--seed", "7")
    _, second = run(capsys, "max-observers", "--alices", "2", "--seed", "7")
    assert first == second


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# two-alice defaults\nalices=2\nformat=text\ndigits=4\n")
    code, out = run(capsys, "max-observers", "--config", str(cfg))
    assert code == 0
    assert out.startswith("bobs_detected: 8")
    code, out = run(capsys, "max-observers", "--config", str(cfg), "--alices", "3")
    assert out.startswith("bobs_detected: 5")


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    # Notepad and PowerShell 5 Out-File start UTF-8 files with a BOM
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("alices=2\nformat=text\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    _, out = run(capsys, "max-observers", "--config", str(cfg))
    assert out == run(capsys, "max-observers", "--alices", "2", "--format", "text")[1]


@pytest.mark.parametrize("line", ["mystery=1", "paper_rounding=ture", "table=9",
                                  "state=foo", "format=xml", "digits=99", "seed=-1",
                                  "xi=0", "config=x", "alices=0", "bobs=0",
                                  "epsilon1=0.5", "epsilon=-0.01"])
def test_config_file_unknown_key_exit_2(tmp_path, capsys, line):
    # each key is parsed as its flag would be, so a bad value is a usage
    # error for every subcommand, not a silent default
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    for command in ("max-observers", "compare"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        key = line.partition("=")[0]
        assert f"config key {key!r}" in capsys.readouterr().err


def stdout_or_exit(capsys, *argv):
    try:
        return run(capsys, *argv)[1]
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("key,argv,value,flag", [
    ("format", ["compare", "--table", "1"], "csv", ["--format", "csv"]),
    ("seed", ["max-observers"], "7", ["--seed", "7"]),
    ("digits", ["witness-eval", "--xi", "0.777"], "3", ["--digits", "3"]),
    ("state", ["witness-eval", "--theta", "0.3"], "pure", ["--state", "pure"]),
    ("p", ["witness-eval", "--state", "werner"], "0.7", ["--p", "0.7"]),
    ("theta", ["witness-eval", "--state", "pure"], "0.4", ["--theta", "0.4"]),
    ("alices", ["max-observers"], "2", ["--alices", "2"]),
    ("bobs", ["max-observers"], "3", ["--bobs", "3"]),
    ("epsilon1", ["max-observers", "--state", "werner", "--p", "0.9"], "0.05",
     ["--epsilon1", "0.05"]),
    ("epsilon", ["max-observers", "--alices", "2"], "0.02", ["--epsilon", "0.02"]),
    ("paper_rounding", ["compare", "--table", "2"], "yes", ["--paper-rounding"]),
    ("table", ["compare"], "1", ["--table", "1"]),
    ("xi", ["witness-eval"], "0.8", ["--xi", "0.8"]),
    ("lam", ["witness-eval"], "0.6", ["--lambda", "0.6"]),
])
def test_config_key_matches_flag(tmp_path, capsys, key, argv, value, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    from_config = stdout_or_exit(capsys, *argv, "--config", str(cfg))
    assert from_config == stdout_or_exit(capsys, *argv, *flag)
    if key != "seed":  # no command reads the seed
        assert from_config != stdout_or_exit(capsys, *argv)


@pytest.mark.parametrize("value,flag", [("off", False), ("No", False), ("ON", True), ("1", True)])
def test_config_file_paper_rounding_values(tmp_path, capsys, value, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"paper_rounding={value}\n")
    argv = ["max-observers", "--state", "werner", "--p", "0.9"]
    _, from_config = run(capsys, *argv, "--config", str(cfg))
    _, from_flags = run(capsys, *argv, *(["--paper-rounding"] if flag else []))
    assert from_config == from_flags


def test_witness_eval_closed_form_matches_matrix_route():
    # states.witness_value, which witness-eval prints, against the modulated
    # family witness on the built state
    from seqwitness import states, witness

    rng = np.random.default_rng(23)
    ranges = {"bell": None, "werner": (1e-6, 1.0), "colored": (1e-6, 1.0),
              "pure": (1e-6, math.pi / 4.0 - 1e-6)}
    for _ in range(500):
        kind = str(rng.choice(list(ranges)))
        param = None if kind == "bell" else float(rng.uniform(*ranges[kind]))
        xi, lam = (float(v) for v in rng.uniform(1e-3, 1.0, size=2))
        family = states.StateFamily(kind, param)
        w = witness.modulate(witness.family_witness(kind), xi, lam)
        expected = witness.expectation(w, states.build(family))
        value = states.witness_value(states.correlation_strength(family), xi, lam)
        assert abs(value - expected) <= 1e-15, (kind, param, xi, lam)


_NOT_LOADED = {
    "max-observers": ("numpy", "dataclasses", "inspect", "seqwitness.qcore",
                      "seqwitness.witness", "seqwitness.measurement"),
    "compare": ("numpy", "dataclasses", "inspect", "seqwitness.qcore", "seqwitness.witness",
                "seqwitness.measurement"),
    "witness-eval": ("numpy", "dataclasses", "inspect", "seqwitness.resource",
                     "seqwitness.sequential"),
}


@pytest.mark.parametrize("fmt", ("json", "csv", "text"))
@pytest.mark.parametrize("argv", (["max-observers", "--alices", "2", "--state", "werner",
                                   "--p", "0.9", "--paper-rounding"],
                                  ["compare"],
                                  ["witness-eval", "--state", "pure", "--theta", "0.3"]),
                         ids=("max-observers", "compare", "witness-eval"))
def test_subcommands_load_no_numpy(argv, fmt):
    # a fresh interpreter per subcommand and format, read through sys.modules
    # so that the same process goes on to the library calls: each subcommand
    # loads only what it runs, and json only for json output; the pair count
    # and a max-observers run after it stay numpy-free, and the star import
    # still works
    script = """
import contextlib, io, sys
absent, argv = sys.argv[1].split(","), sys.argv[2:]
before = set(sys.modules)
import seqwitness
from seqwitness import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(argv) == 0, argv
assert out.getvalue().strip(), argv
loaded = set(sys.modules) - before
unwanted = sorted(m for m in loaded if m in absent or m.split(".")[0] in absent)
assert not unwanted, unwanted[:5]
if argv[-1] == "json":
    assert "json" in sys.modules
else:
    assert "json" not in loaded, argv
assert seqwitness.sequential.classify_pair_count(seqwitness.StateFamily.werner(0.7)) == 2
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["max-observers", "--alices", "2", "--bobs", "20"]) == 0
assert '"bobs_detected": 8' in out.getvalue()
assert "numpy" not in sys.modules
namespace = {}
exec("from seqwitness import *", namespace)
assert all(name in namespace for name in seqwitness.__all__)
"""
    absent = ",".join(_NOT_LOADED[argv[0]])
    proc = subprocess.run([sys.executable, "-c", script, absent, *argv, "--format", fmt],
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the submodules each subcommand loads; none loads qcore, witness or measurement
_LOGGED_LAYERS = {
    "witness-eval": ("seqwitness.states",),
    "max-observers": ("seqwitness.states", "seqwitness.sequential"),
    "compare": ("seqwitness.states", "seqwitness.sequential", "seqwitness.resource"),
}


@pytest.mark.parametrize("fmt", ("json", "csv", "text"))
@pytest.mark.parametrize("argv", (["witness-eval", "--state", "werner", "--p", "0.9"],
                                  ["max-observers", "--alices", "2", "--state", "werner",
                                   "--p", "0.9"],
                                  ["compare"]),
                         ids=("witness-eval", "max-observers", "compare"))
def test_subcommands_log_each_layer_and_no_annotation_import(argv, fmt):
    # every module a subcommand loads, a package submodule too, gets an
    # -X importtime line, so the log times each layer; -S keeps site, whose
    # .pth files may load typing, out of the child, so an import made only
    # for an annotation shows there too
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "seqwitness.cli",
                           *argv, "--format", fmt],
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")]
    assert "argparse" in loaded, proc.stderr[-500:]  # the log was read
    assert not {"typing", "__future__", "collections.abc"} & set(loaded), loaded
    layers = {name for name in loaded if name.partition(".")[0] == "seqwitness"}
    assert layers == {"seqwitness", *_LOGGED_LAYERS[argv[0]]}, layers


def test_max_observers_payload_is_the_library_chain(capsys):
    # the CLI runs greedy_asymmetric's stage loop without carrying states;
    # over random flags its payload is the library report, quantized alike
    from seqwitness import sequential, states

    rng = np.random.default_rng(41)
    ranges = {"bell": None, "werner": (1e-6, 1.0), "colored": (1e-6, 1.0),
              "pure": (1e-6, math.pi / 4.0 - 1e-6)}
    for _ in range(300):
        kind = str(rng.choice(list(ranges)))
        param = None if kind == "bell" else float(rng.uniform(*ranges[kind]))
        alices, bobs, digits = (int(rng.integers(lo, hi)) for lo, hi in ((1, 5), (1, 21), (2, 13)))
        epsilon1, epsilon = (float(v) for v in rng.uniform(0.0, 0.1, size=2))
        rounding = bool(rng.integers(2))
        argv = ["max-observers", "--alices", str(alices), "--bobs", str(bobs), "--state", kind,
                "--epsilon1", repr(epsilon1), "--epsilon", repr(epsilon), "--digits", str(digits)]
        if param is not None:
            argv += ["--theta" if kind == "pure" else "--p", repr(param)]
        if rounding:
            argv.append("--paper-rounding")
        code, out = run(capsys, *argv)
        assert code == 0, argv
        report = sequential.greedy_asymmetric(
            alices, states.StateFamily(kind, param),
            sequential.EpsilonPolicy(epsilon1, epsilon, rounding), max_bobs=bobs)
        assert len(report.states) == report.detected_stages
        data = json.loads(out)
        assert data["bobs_detected"] == report.detected_stages, argv
        assert data["schedule"] == cli._quantize(report.schedule.stages, digits), argv
        assert data["thresholds"] == cli._quantize(report.thresholds, digits), argv
