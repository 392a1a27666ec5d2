"""Command-line front end.

Commands (each takes ``--config`` and only the options it reads)
--------
simulate   run the protocol end to end, write the transcript to ``--out``
           (required); ``--seed`` overrides the config seed
keylen     evaluate the finite-size key length, print the term breakdown
rates      sweep asymptotic rates over (N, Q), emit CSV
compare    alias of rates (the CSV carries both protocol and baseline columns)
game       print the classical and quantum game values and the quantum value
           conditioned on the parity of the other Bobs' outputs

``simulate`` and ``keylen`` take ``--paper-variant``; the other commands
print to ``--out`` or standard output.  Exit codes: 0 success, 1 tool error
(bad config or arguments, I/O), 2 protocol abort.  Configs are flat
``key = value`` text; ``#`` starts a comment, and a key no command reads is
an error.  Floats are printed with 17 significant digits so emitted values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .errors import DomainError, InvalidInputError, LengthMismatchError, SizeOutOfRangeError
from .game import classical_value, conditioned_win_probabilities, quantum_win_probability
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

MAX_Q_POINTS = 10**6  # Q values per `rates` grid

_CONFIG_ERRORS = (DomainError, InvalidInputError, LengthMismatchError, SizeOutOfRangeError)

_EPS_NAMES = ("smooth", "pa", "ea", "ec", "ec_prime", "ec_tilde")


def _int_list(raw: str) -> list[int]:
    return [int(s) for s in raw.split(",") if s.strip()]


# the type of every key some command reads: one file may serve several commands
_KEY_TYPES = dict(
    n_parties=int, n_rounds=int, mu=float, delta=float, qber=float, seed=int, key_len=int,
    n_list=_int_list, q_min=float, q_max=float, q_step=float, **{f"eps_{name}": float for name in _EPS_NAMES},
)


class ConfigError(ValueError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def parse_config(path: str) -> dict:
    """Each key's value, converted to the key's type; an unknown key or a bad value is a ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            entries[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return entries


def _get(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _rate_fields(cfg: dict) -> dict:
    """The run parameters ``simulate`` and ``keylen`` share, epsilon budget included."""
    fields = {key: _get(cfg, key) for key in ("n_parties", "n_rounds", "mu", "delta", "qber")}
    return dict(fields, eps=EpsilonBudget(**{name: _get(cfg, f"eps_{name}") for name in _EPS_NAMES}))


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    config = ProtocolConfig(
        **_rate_fields(cfg),
        rng_seed=args.seed if args.seed is not None else _get(cfg, "seed"),
        key_len=cfg.get("key_len"),
        variant=args.paper_variant,
    )
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


def _q_grid(cfg: dict) -> list[float]:
    q_min = _get(cfg, "q_min")
    q_max = _get(cfg, "q_max")
    q_step = _get(cfg, "q_step")
    if not (q_step > 0 and 0 <= q_min <= q_max < 0.5):  # written so that a NaN fails too
        raise ConfigError("bad Q grid: need 0 <= q_min <= q_max < 0.5 and q_step > 0")
    # the tolerance keeps an endpoint that lies on the grid up to rounding,
    # and the clamp keeps such an endpoint from passing q_max
    steps = (q_max - q_min) / q_step + 1e-9
    if not steps < MAX_Q_POINTS:  # checked before the list is built; steps may be inf
        raise ConfigError(
            f"Q grid from {_fmt(q_min)} to {_fmt(q_max)} in steps of {_fmt(q_step)} "
            f"has more than {MAX_Q_POINTS} points"
        )
    return [min(q_min + i * q_step, q_max) for i in range(math.floor(steps) + 1)]


def cmd_rates(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    n_list = _get(cfg, "n_list")
    if not n_list:
        raise ConfigError("n_list is empty")
    grid = _q_grid(cfg)
    rows = ["N,Q,r_cka,r_diqkd"]
    for n in n_list:
        for q in grid:
            rows.append(
                f"{n},{_fmt(q)},{_fmt(asymptotic_rate_cka(n, q))},{_fmt(asymptotic_rate_diqkd(n, q))}"
            )
    _write_output("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    n_parties = _get(cfg, "n_parties")
    qber = _get(cfg, "qber")
    classical = classical_value(n_parties)
    state = depolarize_each(GHZState(n_parties), qber_to_pdep(qber))
    lines = [
        f"n_parties = {n_parties}",
        f"qber = {_fmt(qber)}",
        f"classical_value = {classical}",
        f"quantum_win_probability = {_fmt(quantum_win_probability(state))}",
    ]
    # given the parity of Bob_2..Bob_{N-1}'s outputs the game is CHSH (parity
    # 0) or CHSH with Bob_1's input flipped (parity 1)
    for parity, (weight, win) in conditioned_win_probabilities(state).items():
        lines.append(f"rest_parity_{parity}_weight = {_fmt(weight)}")
        lines.append(f"rest_parity_{parity}_win_probability = {_fmt(win)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicka",
        description="Conference-key-agreement simulator and key-rate workbench",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    simulate = commands.add_parser("simulate", help="run the protocol, write the transcript file")
    keylen = commands.add_parser("keylen", help="print the finite-size key length and its terms")
    rates = commands.add_parser("rates", aliases=["compare"], help="emit asymptotic rates over (N, Q) as CSV")
    game = commands.add_parser("game", help="print the game's classical and quantum values")
    handlers = ((simulate, cmd_simulate), (keylen, cmd_keylen), (rates, cmd_rates), (game, cmd_game))
    for command, handler in handlers:
        command.set_defaults(handler=handler)
        command.add_argument("--config", required=True, help="flat key = value config file")
    simulate.add_argument("--out", required=True, help="transcript file")
    for command in (keylen, rates, game):
        command.add_argument("--out", help="output file (default: stdout)")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    for command in (simulate, keylen):
        command.add_argument("--paper-variant", choices=("main", "appendix"), default="main")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_TOOL_ERROR if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (ConfigError, OSError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR


if __name__ == "__main__":
    sys.exit(main())
