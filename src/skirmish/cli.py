"""Command-line front end.

Subcommands map one-to-one onto the library: solve (any route of the one
route table, `residues.solve`), simulate (Monte Carlo play-out), volume
(hypercube sampling), relate / curve / cycle (group relations), and
crosscheck, which compares the auto route, epsilon and both estimators
with the reference from `residues.verify`, the one owner of that check.

Exit codes: 0 success, 1 cross-method inconsistency (the CI tripwire),
2 usage or validation error, 3 any other (unexpected) error, with its
traceback on standard error, so that 1 always means the routes disagree.
A standard error that refuses the diagnostic (its reader gone) loses the
message, not the code.
A report that standard output refuses is none of these.  A closed pipe
(the reader left, as `head` does) ends with no message and 141, the
status a shell shows for a writer that SIGPIPE killed; any other failed
write, such as a full disk (ENOSPC) or an I/O error (EIO), ends with
`error: standard output: ...` and 4.
Each command is one row of `COMMANDS`: its help line, whether it takes a
duel (--a/--b or --input, which `main` reads and hands to the handler),
the function that adds its own arguments and returns its handler, and its
default --format.  Each handler returns its report as (payload, plain
text, disagreement or None) and prints nothing: `main` prints every
report and maps each outcome to its code.  Reports go to standard output
as compact JSON (or --format plain), flushed as they are written;
diagnostics go to standard error.  Output is deterministic for fixed
arguments and seed.

`run` is the process entry (`python -m skirmish` and the `skirmish`
script): once `main` returns, or argparse's `SystemExit` (help, usage
error) leaves it, it flushes standard output and error and ends the
process with `os._exit`, so the interpreter's teardown does not run:
`run` never returns.  `main` is the in-process API and returns for every
command that parses.

A process pays only for its own command: `main` builds only the
subparser `argv[0]` names.  The handlers of the commands that draw
(simulate, volume, crosscheck) live in `cli_draws`, which each of those
commands' argument builders imports and which imports nothing from `cli`;
those handlers import `montecarlo` and `volume`.  So the exact commands
load none of these, nor `streams`, which only the drawing commands and a
reference sweep that forks load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .model import Instance, InvalidInstance, ascii_number, decimal_str, parse_instance
from .relations import matching_curve_grid, relate, verify_cycle
from .residues import ROUTES, Inconsistency, solve, verify


def run() -> None:
    """`main()` as the last act of a process: never returns.

    Flushes standard output and error, dropping a flush that fails (its
    reader gone or its disk full, for which `main` has chosen the code),
    and ends the process with `os._exit`, which discards what a stream
    refused.
    """
    try:
        code = main()
    except SystemExit as exc:
        # argparse printed help or a usage error and exits by itself, and
        # `_Parser` dropped a write that failed.
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # Exact results may have any number of digits: lift CPython's int<->str cap.
    # The fallback serves 3.10.0-3.10.6, which predate the cap (3.10.7 added it).
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _, takes_duel, _, _ = COMMANDS[args.command]
        duel = (_read_instance(args),) if takes_duel else ()
        payload, plain, failure = args.handler(*duel, args)
        text = json.dumps(payload, separators=(",", ":")) if args.format == "json" else plain
        try:
            print(text, flush=True)
        except BrokenPipeError:
            return 141  # 128 + SIGPIPE, and nobody left to tell
        except OSError as exc:
            return _told(4, f"error: standard output: {exc}\n")
        return _told(1, f"inconsistency: {failure}\n") if failure else 0
    except Inconsistency as exc:  # relate and cycle raise theirs
        return _told(1, f"inconsistency: {exc}\n")
    except (ValueError, OSError) as exc:  # InvalidInstance is a ValueError
        return _told(2, f"error: {exc}\n")
    except Exception:
        # Imported here: only a crash needs it, and it is slow to import.
        import traceback

        return _told(3, traceback.format_exc())
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _told(code: int, text: str) -> int:
    """Write `text` to standard error, flushed, and return `code`.

    A standard error that refuses it, as a pipe whose reader has gone
    does, loses the text but not the code.
    """
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass
    return code


class _Parser(argparse.ArgumentParser):
    """An argparse parser that drops a help or usage text its stream refuses.

    argparse drops it itself only in newer releases (3.11.7 and 3.12.1
    do); 3.10.13 and 3.11.2 raise the OSError out of `parse_args`, outside
    `main`'s handlers.
    Its subparsers are of this class too, as argparse makes them of the
    parent's type.
    """

    def _print_message(self, message, file=None):
        try:
            super()._print_message(message, file)
        except OSError:
            pass


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only `command`'s subparser where `command` names one.

    `main` passes `argv[0]`, so a process builds the one subparser it runs,
    and parses, prints and exits as the full parser would.  Any other
    `command` (None, `-h`, an unknown name) builds all seven.
    """
    parser = _Parser(
        prog="skirmish",
        description="Exact and stochastic solvers for the two-beam annihilation duel.",
    )
    names, listing = COMMANDS, {}
    if command in COMMANDS:
        # The usage line lists all seven, as argparse derives it from a full
        # parser.  Not set there: its missing-command error would name this
        # metavar in place of `command`.
        names, listing = (command,), {"metavar": "{" + ",".join(COMMANDS) + "}"}
    commands = parser.add_subparsers(dest="command", required=True, **listing)
    for name in names:
        summary, takes_duel, add_arguments, output = COMMANDS[name]
        sub = commands.add_parser(name, help=summary)
        if takes_duel:
            sub.add_argument("--a", help='comma-separated A speeds, e.g. "30,20" (may be empty)')
            sub.add_argument("--b", help="comma-separated B speeds")
            sub.add_argument("--input", help='path to a JSON file {"a": [...], "b": [...]}')
        sub.set_defaults(handler=add_arguments(sub))
        sub.add_argument("--format", choices=("json", "plain"), default=output)
    return parser


def _solve_arguments(solve: argparse.ArgumentParser):
    solve.add_argument(
        "--method",
        choices=("auto", *ROUTES),
        default="auto",
        help="solver route; auto picks distinct or series by repetition",
    )
    solve.add_argument("--epsilon", help="perturbation for --method epsilon (exact rational)")
    return _run_solve


def _simulate_arguments(sim: argparse.ArgumentParser):
    from .cli_draws import _run_simulate
    from .montecarlo import POLICIES

    sim.add_argument("--trials", type=integer, default=100_000)
    sim.add_argument("--seed", type=integer, default=0)
    sim.add_argument("--policy", choices=POLICIES, default="frontmost")
    return _run_simulate


def _volume_arguments(vol: argparse.ArgumentParser):
    from .cli_draws import _run_volume

    vol.add_argument("--samples", type=integer, default=1_000_000)
    vol.add_argument("--seed", type=integer, default=0)
    return _run_volume


def _relate_arguments(rel: argparse.ArgumentParser):
    return _run_relate


def _curve_arguments(curve: argparse.ArgumentParser):
    curve.add_argument("--points", type=integer, default=100, help="grid size; x = k/(points+1)")
    return _run_curve


def _cycle_arguments(cycle: argparse.ArgumentParser):
    cycle.add_argument(
        "groups", nargs=3, metavar="GROUP", help="comma-separated speeds, three groups"
    )
    return _run_cycle


def _crosscheck_arguments(cross: argparse.ArgumentParser):
    from .cli_draws import _run_crosscheck

    cross.add_argument("--trials", type=integer, default=200_000)
    cross.add_argument("--samples", type=integer, default=1_000_000)
    cross.add_argument("--seed", type=integer, default=0)
    cross.add_argument("--epsilon", help="override the default perturbation")
    return _run_crosscheck


def integer(text: str) -> int:
    """An integer option's value, read by the rule for speed strings.

    argparse names this function in its `invalid integer value` message.
    """
    try:
        return int(ascii_number(text, "integer"))
    except InvalidInstance as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_instance(args) -> Instance:
    if args.input is not None:
        if args.a is not None or args.b is not None:
            raise InvalidInstance("give either --input or --a/--b, not both")
        with open(args.input, encoding="utf-8") as file:
            return parse_instance(file.read())
    if args.a is None and args.b is None:
        raise InvalidInstance("an instance is required: --a/--b or --input")
    return Instance(_split_speeds(args.a), _split_speeds(args.b))


def _split_speeds(text) -> tuple:
    if text is None or text.strip() == "":
        return ()
    return tuple(part.strip() for part in text.split(","))


def _run_solve(inst: Instance, args) -> tuple[dict, str, str | None]:
    if args.epsilon is not None and args.method != "epsilon":
        raise ValueError(f"--epsilon applies only to --method epsilon, not {args.method}")
    report = solve(inst, args.method, args.epsilon)
    _, failure = verify(inst, report)
    payload = report.to_json()
    plain = f"P(A wins) = {payload['value']} = {payload['decimal']} [{payload['method']}]"
    residues = payload.get("residues")
    if residues:
        plain += "\nresidues: " + ", ".join(residues)
    return payload, plain, failure


def _run_relate(inst: Instance, args) -> tuple[dict, str, str | None]:
    verdict = relate(inst.a, inst.b)
    payload = verdict.to_json()
    return payload, f"p = {payload['p']} = {payload['decimal']}: {payload['verdict']}", None


def _run_curve(args) -> tuple[dict, str, str | None]:
    points = matching_curve_grid(1, args.points)
    payload = {"points": [{"x": str(x), "y": str(y)} for x, y in points]}
    # Only the plain table shows decimals, so json output skips working them out.
    rows = []
    if args.format == "plain":
        rows = [f"{decimal_str(x)},{decimal_str(y)}" for x, y in points]
    return payload, "\n".join(["x,y", *rows]), None


def _run_cycle(args) -> tuple[dict, str, str | None]:
    witness = verify_cycle(*(_split_speeds(text) for text in args.groups))
    payload = witness.to_json()
    lines = [
        f"P vs Q: {payload['pPQ']} = {decimal_str(witness.p_pq)}",
        f"Q vs R: {payload['pQR']} = {decimal_str(witness.p_qr)}",
        f"R vs P: {payload['pRP']} = {decimal_str(witness.p_rp)}",
        f"beats-cycle: {'yes' if witness.is_cycle else 'no'}",
    ]
    return payload, "\n".join(lines), None


# One row a command, of the four fields the module docstring names, in the
# order `skirmish -h` lists them.
COMMANDS = {
    "solve": ("exact (or perturbed) win probability", True, _solve_arguments, "json"),
    "simulate": ("Monte Carlo play-out of the duel", True, _simulate_arguments, "json"),
    "volume": (
        "hypercube-volume estimate of the win probability", True, _volume_arguments, "json"
    ),
    "relate": (
        "beats / matched / loses verdict for --a against --b", True, _relate_arguments, "json"
    ),
    "curve": (
        "pairs (x, y) that exactly match a lone speed-1 particle", False, _curve_arguments, "plain"
    ),
    "cycle": ("check three groups for a beats-cycle", False, _cycle_arguments, "json"),
    "crosscheck": (
        "run the reference, the auto route, epsilon and both estimators on one instance",
        True,
        _crosscheck_arguments,
        "json",
    ),
}


if __name__ == "__main__":
    run()
