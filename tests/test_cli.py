"""CLI tests: exit codes, config handling, CSV/kv output contracts."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from dicka import cli
from dicka.cli import main

EPS_LINES = """
eps_smooth = 1e-8
eps_pa = 1e-8
eps_ea = 1e-8
eps_ec = 2e-8
eps_ec_prime = 1e-8
eps_ec_tilde = 1e-8
"""

SIM_CONFIG = """
# honest three-party run
n_parties = 3
n_rounds = 2000
mu = 0.05
delta = 0.78
qber = 0.0
seed = 77
key_len = 64
""" + EPS_LINES


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


def test_simulate_success_and_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG)
    out1 = tmp_path / "t1.txt"
    out2 = tmp_path / "t2.txt"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    captured = capsys.readouterr()
    assert '"keys_identical": true' in captured.out
    # each run echoes the transcript's SUMMARY JSON, byte for byte
    summary_line = out1.read_text().splitlines()[-1]
    assert summary_line.startswith("SUMMARY ")
    assert captured.out == 2 * (summary_line[len("SUMMARY "):] + "\n")


def test_simulate_seed_override_changes_transcript(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG)
    out1 = tmp_path / "t1.txt"
    out2 = tmp_path / "t2.txt"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "78", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


# threshold above the quantum maximum of the honest implementation
ABORT_CONFIG = (
    SIM_CONFIG.replace("delta = 0.78", "delta = 0.851").replace("qber = 0.0", "qber = 0.05")
    .replace("n_rounds = 2000", "n_rounds = 10000").replace("seed = 77", "seed = 2000")
)


def test_simulate_abort_exit_code(tmp_path):
    cfg = _write(tmp_path, "abort.cfg", ABORT_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 2


def test_simulate_process_aborts_with_exit_2_and_its_whole_summary(tmp_path):
    # the process path: `python -m dicka` passes main's code on at exit and
    # flushes stdout
    cfg = _write(tmp_path, "abort.cfg", ABORT_CONFIG)
    out = tmp_path / "t.txt"
    argv = [sys.executable, "-m", "dicka", "simulate", "--config", cfg, "--out", str(out)]
    result = subprocess.run(argv, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    summary_line = out.read_text().splitlines()[-1]
    assert summary_line.startswith("SUMMARY ")
    assert result.stdout == summary_line[len("SUMMARY "):] + "\n"
    assert json.loads(result.stdout)["abort"] is not None


def test_importing_the_cli_leaves_out_fractions_and_decimal():
    # only `dicka game` needs a Fraction, and it imports fractions itself
    code = "import dicka.cli, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_simulate_rejects_super_quantum_threshold(tmp_path):
    text = SIM_CONFIG.replace("delta = 0.78", "delta = 0.86")
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1


def test_simulate_missing_epsilon_is_tool_error(tmp_path):
    text = SIM_CONFIG.replace("eps_pa = 1e-8", "")
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1


def test_simulate_malformed_line_is_tool_error(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", SIM_CONFIG + "\nthis is not a key value pair\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1


def test_config_key_no_command_reads_is_tool_error(tmp_path, capsys):
    # a misspelled key_len used to be ignored, and the run went on with the computed length
    cfg = _write(tmp_path, "typo.cfg", SIM_CONFIG.replace("key_len = 64", "kye_len = 128"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1
    assert "unknown config key 'kye_len'" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()
    # the keys of every command are allowed, so one file serves simulate and keylen
    both = _write(tmp_path, "both.cfg", SIM_CONFIG)
    assert main(["keylen", "--config", both, "--out", str(tmp_path / "kl.txt")]) == 0
    assert main(["simulate", "--config", both, "--seed", "5", "--out", str(tmp_path / "t.txt")]) == 0


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    # the last value used to win silently
    text = SIM_CONFIG + "# a second seed\nseed = 78\n"
    lines = text.splitlines()
    first, again = lines.index("seed = 77") + 1, len(lines)
    cfg = _write(tmp_path, "twice.cfg", text)
    with pytest.raises(cli.ConfigError, match=rf"twice.cfg:{again}: config key 'seed' repeats line {first}$"):
        cli.parse_config(cfg)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1
    assert f"config key 'seed' repeats line {first}" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()


def _entry_point(entry):
    """Code that starts dicka as the console script does, or as `python -m dicka` or `-m dicka.cli`."""
    if entry == "console_script":  # the wrapper calls the [project.scripts] target and exits with its value
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
        module, function = pyproject["project"]["scripts"]["dicka"].split(":")
        return f"from {module} import {function}\nsys.exit({function}())"
    return f"import runpy\nrunpy.run_module({entry!r}, run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize("entry", ["console_script", "dicka", "dicka.cli"])
def test_every_entry_point_freezes_at_exit_and_passes_the_code_on(entry, tmp_path):
    # each runs as the whole process, so its shutdown collections skip what is frozen
    start = _entry_point(entry)
    commands = {
        0: ["game", "--config", _write(tmp_path, "game.cfg", "n_parties = 3\nqber = 0.01\n"),
            "--out", str(tmp_path / "game.txt")],
        1: ["game"],
        2: ["simulate", "--config", _write(tmp_path, "abort.cfg", ABORT_CONFIG), "--out", str(tmp_path / "t.txt")],
    }
    for code, argv in commands.items():
        program = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('freeze_count', gc.get_freeze_count()))\n"
            f"sys.argv[1:] = {argv!r}\n" + start
        )
        result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        name, count = result.stdout.splitlines()[-1].split()
        assert name == "freeze_count" and int(count) > 0


KEYLEN_CONFIG = """
n_parties = 3
n_rounds = 10000000000
mu = 0.1
delta = 0.82
qber = 0.01
""" + EPS_LINES


def test_keylen_breakdown_identity(tmp_path):
    cfg = _write(tmp_path, "kl.cfg", KEYLEN_CONFIG)
    out = tmp_path / "kl.txt"
    assert main(["keylen", "--config", cfg, "--out", str(out)]) == 0
    kv = _kv(out.read_text())
    resummed = (
        float(kv["entropy_term"])
        - float(kv["second_order"])
        + float(kv["smoothing_term"])
        - float(kv["pa_term"])
        - float(kv["leak_alice"])
        - float(kv["leak_bobs"])
    )
    assert abs(resummed - float(kv["raw_length"])) < 1e-9
    assert int(kv["key_length"]) == max(0, math.floor(float(kv["raw_length"])))


def test_keylen_full_testing_shows_negative_raw(tmp_path):
    cfg = _write(tmp_path, "kl.cfg", KEYLEN_CONFIG.replace("mu = 0.1", "mu = 1.0"))
    out = tmp_path / "kl.txt"
    assert main(["keylen", "--config", cfg, "--out", str(out)]) == 0
    kv = _kv(out.read_text())
    assert int(kv["key_length"]) == 0
    assert float(kv["raw_length"]) < 0


def test_keylen_variant_switch_touches_only_second_order_and_pa(tmp_path):
    cfg = _write(tmp_path, "kl.cfg", KEYLEN_CONFIG)
    out_main = tmp_path / "main.txt"
    out_app = tmp_path / "app.txt"
    assert main(["keylen", "--config", cfg, "--out", str(out_main)]) == 0
    assert main(["keylen", "--config", cfg, "--paper-variant", "appendix", "--out", str(out_app)]) == 0
    kv_main = _kv(out_main.read_text())
    kv_app = _kv(out_app.read_text())
    assert kv_main["smoothing_term"] == kv_app["smoothing_term"]
    assert kv_main["leak_alice"] == kv_app["leak_alice"]
    assert kv_main["leak_bobs"] == kv_app["leak_bobs"]
    assert float(kv_app["second_order"]) < float(kv_main["second_order"])
    assert float(kv_app["pa_term"]) == float(kv_main["pa_term"]) / 2


def test_keylen_rejects_epsilon_below_floor(tmp_path, capsys):
    # below ~6e-154 the key-length terms leave the float range; such budgets are config errors
    def keylen(eps_ec_tilde, others="1e-8"):
        text = KEYLEN_CONFIG.replace("= 1e-8", f"= {others}").replace("eps_ec_tilde = " + others, "")
        eps_ec = float(others) + float(eps_ec_tilde)
        text = text.replace("eps_ec = 2e-8", f"eps_ec = {eps_ec!r}\neps_ec_tilde = {eps_ec_tilde}")
        return main(["keylen", "--config", _write(tmp_path, "kl.cfg", text)])

    for eps_ec_tilde in ("1e-170", "1e-160"):
        assert keylen(eps_ec_tilde) == 1
        assert "error: eps_ec_tilde must lie in [1e-150, 1)" in capsys.readouterr().err
    assert keylen("1e-200", others="1e-200") == 1
    assert "error: eps_smooth must lie in [1e-150, 1)" in capsys.readouterr().err
    assert keylen("1e-150") == 0
    assert keylen("1e-150", others="1e-150") == 0


def test_key_length_terms_outside_the_float_range_are_config_errors(tmp_path, capsys):
    # mu = 1e-155 sends the main variant's second order to inf, and 10**309 rounds
    # do not fit a float; both used to end in an OverflowError traceback
    big_n = KEYLEN_CONFIG.replace("n_rounds = 10000000000", f"n_rounds = {10**309}")
    for text, message in (
        (KEYLEN_CONFIG.replace("mu = 0.1", "mu = 1e-155"), "error: key-length terms leave the float range"),
        (big_n, "error: n_rounds must be a nonnegative integer that fits a float"),
    ):
        assert main(["keylen", "--config", _write(tmp_path, "kl.cfg", text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
    # with no key_len the computed length fails after sampling, before the transcript is opened
    text = SIM_CONFIG.replace("mu = 0.05", "mu = 1e-300").replace("key_len = 64\n", "")
    out = tmp_path / "t.txt"
    assert main(["simulate", "--config", _write(tmp_path, "sim.cfg", text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key-length terms leave the float range at mu = 1e-300") and err.count("\n") == 1
    assert not out.exists()


RATES_CONFIG = """
n_list = 3,4,5,6,7
q_min = 0
q_max = 0.05
q_step = 0.001
"""


def test_rates_csv_contract(tmp_path):
    cfg = _write(tmp_path, "rates.cfg", RATES_CONFIG)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "N,Q,r_cka,r_diqkd"
    assert len(lines) == 1 + 5 * 51
    assert text.endswith("\n") and "\r" not in text
    for line in lines[1:]:
        n, q, r_cka, r_diqkd = line.split(",")
        if float(q) == 0.0:
            assert abs(float(r_cka) - 1.0) < 1e-12
            assert abs(float(r_diqkd) - 1.0 / (int(n) - 1)) < 1e-12


def test_rates_round_trip_idempotent(tmp_path):
    cfg = _write(tmp_path, "rates.cfg", RATES_CONFIG)
    out = tmp_path / "rates.csv"
    main(["rates", "--config", cfg, "--out", str(out)])
    # re-emitting every parsed float at 17 significant digits reproduces the file
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        n, q, r_cka, r_diqkd = line.split(",")
        rebuilt = f"{int(n)},{float(q):.17g},{float(r_cka):.17g},{float(r_diqkd):.17g}"
        assert rebuilt == line


def test_rates_monotone_in_q(tmp_path):
    cfg = _write(tmp_path, "rates.cfg", RATES_CONFIG)
    out = tmp_path / "rates.csv"
    main(["rates", "--config", cfg, "--out", str(out)])
    per_n = {}
    for line in out.read_text().splitlines()[1:]:
        n, q, r_cka, r_diqkd = line.split(",")
        per_n.setdefault(int(n), []).append((float(q), float(r_cka), float(r_diqkd)))
    for rows in per_n.values():
        rows.sort()
        for (_, c0, d0), (_, c1, d1) in zip(rows, rows[1:]):
            assert c1 <= c0 + 1e-12
            assert d1 <= d0 + 1e-12


def test_compare_is_rates_alias(tmp_path):
    cfg = _write(tmp_path, "rates.cfg", RATES_CONFIG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["rates", "--config", cfg, "--out", str(a)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rates_rejects_bad_grid_and_format(tmp_path):
    cfg = _write(tmp_path, "rates.cfg", RATES_CONFIG.replace("q_step = 0.001", "q_step = -1"))
    assert main(["rates", "--config", cfg]) == 1
    good = _write(tmp_path, "ok.cfg", RATES_CONFIG)
    assert main(["rates", "--config", good, "--format", "kv-json"]) == 1


def test_rates_rejects_an_oversized_grid_before_building_it(tmp_path, capsys, monkeypatch):
    # 4e11 points; the guard on range turns a build of the grid into a
    # failure of this test instead of an allocation of terabytes
    def guarded_range(*args):
        assert max(args) <= cli.MAX_Q_POINTS, "the grid was built"
        return range(*args)

    monkeypatch.setattr(cli, "range", guarded_range, raising=False)
    cfg = _write(tmp_path, "grid.cfg", "n_list = 3\nq_min = 0\nq_max = 0.4\nq_step = 1e-12\n")
    out = tmp_path / "grid.csv"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 1
    assert main(["rates", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("error: Q grid from 0 to 0.40000000000000002 in steps of 9.9999999999999998e-13") == 2


def test_rates_q_grid_stops_at_q_max(tmp_path):
    # 0 + 3 * 0.1 is 0.30000000000000004, which the endpoint tolerance would keep
    cases = (("0.05", "0.03", [0.0, 0.03]), ("0.49", "0.3", [0.0, 0.3]), ("0.3", "0.1", [0.0, 0.1, 0.2, 0.3]))
    for q_max, q_step, want in cases:
        text = f"n_list = 3\nq_min = 0\nq_max = {q_max}\nq_step = {q_step}\n"
        cfg = _write(tmp_path, "grid.cfg", text)
        out = tmp_path / "grid.csv"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        qs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert qs == pytest.approx(want, abs=1e-15)
        assert max(qs) <= float(q_max)


GAME_CONFIG = """
n_parties = 3
qber = 0.0
"""


def test_game_values(tmp_path):
    cfg = _write(tmp_path, "game.cfg", GAME_CONFIG)
    out = tmp_path / "game.txt"
    assert main(["game", "--config", cfg, "--out", str(out)]) == 0
    kv = _kv(out.read_text())
    assert kv["classical_value"] == "3/4"
    assert abs(float(kv["quantum_win_probability"]) - 0.8535533905932737) < 1e-9


def test_game_two_party_chsh(tmp_path):
    cfg = _write(tmp_path, "game.cfg", GAME_CONFIG.replace("n_parties = 3", "n_parties = 2"))
    out = tmp_path / "game.txt"
    assert main(["game", "--config", cfg, "--out", str(out)]) == 0
    kv = _kv(out.read_text())
    assert kv["classical_value"] == "3/4"
    assert abs(float(kv["quantum_win_probability"]) - (0.5 + 0.5 / math.sqrt(2))) < 1e-9


def test_game_prints_the_parity_decomposition(tmp_path):
    # the abstract's argument: given the parity of the other Bobs' outputs the
    # game is CHSH or relabelled CHSH, and the two conditional values,
    # weighted by how often each parity occurs, make up the quantum value;
    # only the parities that occur are printed, so N = 2 prints parity 0 alone
    for n_parties in (2, 3, 4, 5, 6, 7, 12):
        for qber in ("0", "0.013", "0.05", "0.2"):
            cfg = _write(tmp_path, "game.cfg", f"n_parties = {n_parties}\nqber = {qber}\n")
            out = tmp_path / "game.txt"
            assert main(["game", "--config", cfg, "--out", str(out)]) == 0
            kv = _kv(out.read_text())
            parities = [int(key.split("_")[2]) for key in kv if key.endswith("_weight")]
            assert parities == ([0] if n_parties == 2 else [0, 1])
            printed = {key for key in kv if key.startswith("rest_parity_")}
            assert printed == {f"rest_parity_{p}_{what}" for p in parities for what in ("weight", "win_probability")}
            weights = [float(kv[f"rest_parity_{parity}_weight"]) for parity in parities]
            wins = [float(kv[f"rest_parity_{parity}_win_probability"]) for parity in parities]
            assert abs(sum(weights) - 1.0) <= 1e-15
            recombined = sum(weight * win for weight, win in zip(weights, wins))
            assert abs(recombined - float(kv["quantum_win_probability"])) <= 1e-15


def test_game_enumeration_bound(tmp_path, capsys):
    # the classical value holds for every N >= 2; the quantum value stops
    # where GHZState's exact simulation does, at 12 parties
    for n_parties, message in ((1, "at least two parties"), (13, "n_qubits must lie in [2, 12]")):
        cfg = _write(tmp_path, "game.cfg", GAME_CONFIG.replace("n_parties = 3", f"n_parties = {n_parties}"))
        assert main(["game", "--config", cfg]) == 1
        assert message in capsys.readouterr().err


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    game = _write(tmp_path, "game.cfg", GAME_CONFIG)
    rates = _write(tmp_path, "rates.cfg", RATES_CONFIG)
    keylen = _write(tmp_path, "kl.cfg", KEYLEN_CONFIG)
    simulate = _write(tmp_path, "run.cfg", SIM_CONFIG)
    assert main(["game", "--config", game, "--seed", "1"]) == 1
    assert main(["rates", "--config", rates, "--paper-variant", "appendix"]) == 1
    assert main(["compare", "--config", rates, "--seed", "1"]) == 1
    assert main(["keylen", "--config", keylen, "--seed", "1"]) == 1
    assert main(["simulate", "--config", simulate]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for command in ("simulate", "keylen", "rates", "compare", "game"):
        assert main([command, "--help"]) == 0
    assert main(["--help"]) == 0


def test_unknown_command_is_tool_error(tmp_path):
    cfg = _write(tmp_path, "x.cfg", GAME_CONFIG)
    assert main(["plot", "--config", cfg]) == 1


def test_missing_config_file_is_tool_error():
    assert main(["game", "--config", "/nonexistent/path.cfg"]) == 1
