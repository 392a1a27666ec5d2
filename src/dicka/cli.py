"""Command-line front end.

Commands
--------
simulate   run the protocol end to end, write the transcript file
keylen     evaluate the finite-size key length, print the term breakdown
rates      sweep asymptotic rates over (N, Q), emit CSV
compare    alias of rates (the CSV carries both protocol and baseline columns)
game       print the classical and quantum game values and the quantum value
           conditioned on the parity of the other Bobs' outputs

Exit codes: 0 success, 1 tool error (bad config, bad arguments, I/O),
2 protocol abort.  Configs are flat ``key = value`` text; ``#`` starts a
comment.  Floats are printed with 17 significant digits so emitted values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import DomainError, InvalidInputError, LengthMismatchError, SizeOutOfRangeError
from .game import classical_value, conditioned_win_probabilities, honest_settings, quantum_win_probability
from .keyrate import (
    EpsilonBudget,
    RateParams,
    asymptotic_rate_cka,
    asymptotic_rate_diqkd,
    finite_key_length,
    qber_to_pdep,
)
from .protocol import ProtocolConfig, run_protocol
from .quantum import GHZState, depolarize_each

EXIT_OK = 0
EXIT_TOOL_ERROR = 1
EXIT_ABORT = 2

_CONFIG_ERRORS = (DomainError, InvalidInputError, LengthMismatchError, SizeOutOfRangeError)


class ConfigError(ValueError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def parse_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _get(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _get_float(cfg: dict[str, str], key: str) -> float:
    raw = _get(cfg, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not a number: {raw!r}") from exc


def _get_int(cfg: dict[str, str], key: str) -> int:
    raw = _get(cfg, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not an integer: {raw!r}") from exc


def _rate_fields(cfg: dict[str, str]) -> dict:
    """The run parameters ``simulate`` and ``keylen`` share, epsilon budget included."""
    eps = ("smooth", "pa", "ea", "ec", "ec_prime", "ec_tilde")
    return dict(
        n_parties=_get_int(cfg, "n_parties"),
        n_rounds=_get_int(cfg, "n_rounds"),
        mu=_get_float(cfg, "mu"),
        delta=_get_float(cfg, "delta"),
        qber=_get_float(cfg, "qber"),
        eps=EpsilonBudget(**{name: _get_float(cfg, f"eps_{name}") for name in eps}),
    )


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    config = ProtocolConfig(
        **_rate_fields(cfg),
        rng_seed=args.seed if args.seed is not None else _get_int(cfg, "seed"),
        key_len=_get_int(cfg, "key_len") if "key_len" in cfg else None,
        variant=args.paper_variant,
    )
    if args.out is None:
        raise ConfigError("simulate requires --out for the transcript file")
    transcript = run_protocol(config)
    with open(args.out, "wb") as fh:
        transcript.serialize(fh)
    sys.stdout.write(json.dumps(transcript.summary(), sort_keys=True) + "\n")
    return EXIT_ABORT if transcript.abort is not None else EXIT_OK


def cmd_keylen(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    params = RateParams(**_rate_fields(cfg), variant=args.paper_variant)
    bd = finite_key_length(params)
    lines = [
        f"variant = {params.variant}",
        f"entropy_term = {_fmt(bd.entropy_term)}",
        f"second_order = {_fmt(bd.second_order)}",
        f"smoothing_term = {_fmt(bd.smoothing_term)}",
        f"pa_term = {_fmt(bd.pa_term)}",
        f"leak_alice = {_fmt(bd.leak_alice)}",
        f"leak_bobs = {_fmt(bd.leak_bobs)}",
        f"p_opt = {_fmt(bd.p_opt_chosen)}",
        f"raw_length = {_fmt(bd.raw_length)}",
        f"key_length = {bd.key_length}",
    ]
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _q_grid(cfg: dict[str, str]) -> list[float]:
    q_min = _get_float(cfg, "q_min")
    q_max = _get_float(cfg, "q_max")
    q_step = _get_float(cfg, "q_step")
    if q_step <= 0 or q_max < q_min or q_min < 0 or q_max >= 0.5:
        raise ConfigError("bad Q grid: need 0 <= q_min <= q_max < 0.5 and q_step > 0")
    # the tolerance keeps an endpoint that lies on the grid up to rounding
    count = math.floor((q_max - q_min) / q_step + 1e-9) + 1
    return [q_min + i * q_step for i in range(count)]


def cmd_rates(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    try:
        n_list = [int(s) for s in _get(cfg, "n_list").split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad n_list: {cfg.get('n_list')!r}") from exc
    if not n_list:
        raise ConfigError("n_list is empty")
    rows = ["N,Q,r_cka,r_diqkd"]
    for n in n_list:
        for q in _q_grid(cfg):
            rows.append(
                f"{n},{_fmt(q)},{_fmt(asymptotic_rate_cka(n, q))},{_fmt(asymptotic_rate_diqkd(n, q))}"
            )
    _write_output("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    n_parties = _get_int(cfg, "n_parties")
    qber = _get_float(cfg, "qber")
    classical = classical_value(n_parties)
    state = depolarize_each(GHZState(n_parties), qber_to_pdep(qber))
    settings = honest_settings(n_parties)
    lines = [
        f"n_parties = {n_parties}",
        f"qber = {_fmt(qber)}",
        f"classical_value = {Fraction(classical)}",
        f"quantum_win_probability = {_fmt(quantum_win_probability(state, settings))}",
    ]
    # given the parity of Bob_2..Bob_{N-1}'s outputs the game is CHSH (parity
    # 0) or CHSH with Bob_1's input flipped (parity 1)
    for parity, (weight, win) in conditioned_win_probabilities(state, settings).items():
        lines.append(f"rest_parity_{parity}_weight = {_fmt(weight)}")
        lines.append(f"rest_parity_{parity}_win_probability = {_fmt(win)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "keylen": cmd_keylen,
    "rates": cmd_rates,
    "compare": cmd_rates,
    "game": cmd_game,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicka",
        description="Conference-key-agreement simulator and key-rate workbench",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--paper-variant", choices=("main", "appendix"), default="main")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_TOOL_ERROR if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
