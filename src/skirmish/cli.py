"""Command-line front end.

Subcommands map one-to-one onto the library: solve (any route of the one
route table, `residues.solve`), simulate (Monte Carlo play-out), volume
(hypercube sampling), relate / curve / cycle (group relations), and
crosscheck, which compares the auto route, epsilon and both estimators
with the reference from `residues.verify`, the one owner of that check.

Exit codes: 0 success, 1 cross-method inconsistency (the CI tripwire),
2 usage or validation error, 3 any other (unexpected) error, with its
traceback on standard error, so that 1 always means the routes disagree.
A report that standard output refuses is none of these.  A closed pipe
(the reader left, as `head` does) ends with no message and 141, the
status a shell shows for a writer that SIGPIPE killed; any other failed
write, such as a full disk (ENOSPC) or an I/O error (EIO), ends with
`error: standard output: ...` and 4.
Reports go to standard output as compact JSON (or --format plain),
flushed as they are written; diagnostics go to standard error.  Output
is deterministic for fixed arguments and seed.

`run` is the process entry (`python -m skirmish` and the `skirmish`
script): once `main` returns, it flushes standard output and error and
ends the process with `os._exit`, so the interpreter's teardown does not
run.  Call it only where the process exits next.  `main` is the
in-process API and always returns.

A process pays only for its own command: `main` builds only the
subparser `argv[0]` names.  The handlers of the commands that draw
(simulate, volume, crosscheck) live in `cli_draws`, which each of those
commands' argument builders imports, and they import `montecarlo` and
`volume`.  So the exact commands load none of these, nor `streams`,
which only the drawing commands and a reference sweep that forks load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .model import Instance, InvalidInstance, ascii_number, decimal_str, parse_instance
from .relations import matching_curve_grid, relate, verify_cycle
from .residues import ROUTES, Inconsistency, solve, verify


def run(argv=None) -> int:
    """`main(argv)` as the last act of a process, which ends in here.

    Returns only if a flush fails, as when standard output refused the
    report: `main` has returned the code for that, and the caller's exit
    then ends the process with it.
    """
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # The bytes that standard output refused are still buffered, and
        # CPython's own flush at exit would fail on them again, with a
        # message and status 120.  As the `signal` docs advise ("Note on
        # SIGPIPE"), send them to devnull, where that flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    os._exit(code)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # Exact results may have any number of digits: lift CPython's int<->str cap.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except _Unwritten as exc:
        if isinstance(exc.__cause__, BrokenPipeError):
            return 141  # 128 + SIGPIPE, and nobody left to tell
        print(f"error: standard output: {exc.__cause__}", file=sys.stderr)
        return 4
    except Inconsistency as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # InvalidInstance is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Imported here: only a crash needs it, and it is slow to import.
        import traceback

        traceback.print_exc()
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only `command`'s subparser where `command` names one.

    `main` passes `argv[0]`, so a process builds the one subparser it runs,
    and parses, prints and exits as the full parser would.  Any other
    `command` (None, `-h`, an unknown name) builds all seven.
    """
    parser = argparse.ArgumentParser(
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
        summary, add_arguments = COMMANDS[name]
        add_arguments(commands.add_parser(name, help=summary))
    return parser


def _solve_arguments(solve: argparse.ArgumentParser) -> None:
    _instance_flags(solve)
    solve.add_argument(
        "--method",
        choices=("auto", *ROUTES),
        default="auto",
        help="solver route; auto picks distinct or series by repetition",
    )
    solve.add_argument("--epsilon", help="perturbation for --method epsilon (exact rational)")
    _format_flag(solve)
    solve.set_defaults(handler=_run_solve)


def _simulate_arguments(sim: argparse.ArgumentParser) -> None:
    from .cli_draws import _run_simulate
    from .montecarlo import POLICIES

    _instance_flags(sim)
    sim.add_argument("--trials", type=integer, default=100_000)
    sim.add_argument("--seed", type=integer, default=0)
    sim.add_argument("--policy", choices=POLICIES, default="frontmost")
    _format_flag(sim)
    sim.set_defaults(handler=_run_simulate)


def _volume_arguments(vol: argparse.ArgumentParser) -> None:
    from .cli_draws import _run_volume

    _instance_flags(vol)
    vol.add_argument("--samples", type=integer, default=1_000_000)
    vol.add_argument("--seed", type=integer, default=0)
    _format_flag(vol)
    vol.set_defaults(handler=_run_volume)


def _relate_arguments(rel: argparse.ArgumentParser) -> None:
    _instance_flags(rel)
    _format_flag(rel)
    rel.set_defaults(handler=_run_relate)


def _curve_arguments(curve: argparse.ArgumentParser) -> None:
    curve.add_argument("--points", type=integer, default=100, help="grid size; x = k/(points+1)")
    _format_flag(curve, default="plain")
    curve.set_defaults(handler=_run_curve)


def _cycle_arguments(cycle: argparse.ArgumentParser) -> None:
    cycle.add_argument(
        "groups", nargs=3, metavar="GROUP", help="comma-separated speeds, three groups"
    )
    _format_flag(cycle)
    cycle.set_defaults(handler=_run_cycle)


def _crosscheck_arguments(cross: argparse.ArgumentParser) -> None:
    from .cli_draws import _run_crosscheck

    _instance_flags(cross)
    cross.add_argument("--trials", type=integer, default=200_000)
    cross.add_argument("--samples", type=integer, default=1_000_000)
    cross.add_argument("--seed", type=integer, default=0)
    cross.add_argument("--epsilon", help="override the default perturbation")
    _format_flag(cross)
    cross.set_defaults(handler=_run_crosscheck)


def integer(text: str) -> int:
    """An integer option's value, read by the rule for speed strings.

    argparse names this function in its `invalid integer value` message.
    """
    try:
        return int(ascii_number(text, "integer"))
    except InvalidInstance as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _instance_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--a", help='comma-separated A speeds, e.g. "30,20" (may be empty)')
    command.add_argument("--b", help="comma-separated B speeds")
    command.add_argument("--input", help='path to a JSON file {"a": [...], "b": [...]}')


def _format_flag(command: argparse.ArgumentParser, default: str = "json") -> None:
    command.add_argument("--format", choices=("json", "plain"), default=default)


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


class _Unwritten(Exception):
    """Standard output refused the report; the OSError is the cause."""


def _emit(args, payload: dict, plain: str) -> None:
    """Print the report, flushed, so that a write it fails is `main`'s to report."""
    text = json.dumps(payload, separators=(",", ":")) if args.format == "json" else plain
    try:
        print(text, flush=True)
    except OSError as exc:  # told apart from the OSError of reading --input
        raise _Unwritten from exc


def _run_solve(args) -> int:
    if args.epsilon is not None and args.method != "epsilon":
        raise ValueError(f"--epsilon applies only to --method epsilon, not {args.method}")
    inst = _read_instance(args)
    report = solve(inst, args.method, args.epsilon)
    _, failure = verify(inst, report)
    payload = report.to_json()
    _emit(args, payload, _plain_value(payload))
    if failure:
        raise Inconsistency(failure)
    return 0


def _plain_value(payload: dict) -> str:
    line = f"P(A wins) = {payload['value']} = {payload['decimal']} [{payload['method']}]"
    residues = payload.get("residues")
    if residues:
        line += "\nresidues: " + ", ".join(residues)
    return line


def _run_relate(args) -> int:
    inst = _read_instance(args)
    verdict = relate(inst.a, inst.b)
    payload = verdict.to_json()
    _emit(args, payload, f"p = {payload['p']} = {payload['decimal']}: {payload['verdict']}")
    return 0


def _run_curve(args) -> int:
    points = matching_curve_grid(1, args.points)
    payload = {"points": [{"x": str(x), "y": str(y)} for x, y in points]}
    # Only the plain table shows decimals, so json output skips working them out.
    rows = []
    if args.format == "plain":
        rows = [f"{decimal_str(x)},{decimal_str(y)}" for x, y in points]
    _emit(args, payload, "\n".join(["x,y", *rows]))
    return 0


def _run_cycle(args) -> int:
    witness = verify_cycle(*(_split_speeds(text) for text in args.groups))
    payload = witness.to_json()
    lines = [
        f"P vs Q: {payload['pPQ']} = {decimal_str(witness.p_pq)}",
        f"Q vs R: {payload['pQR']} = {decimal_str(witness.p_qr)}",
        f"R vs P: {payload['pRP']} = {decimal_str(witness.p_rp)}",
        f"beats-cycle: {'yes' if witness.is_cycle else 'no'}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


# Each command's help line and the function that adds its arguments, in
# the order `skirmish -h` lists them.
COMMANDS = {
    "solve": ("exact (or perturbed) win probability", _solve_arguments),
    "simulate": ("Monte Carlo play-out of the duel", _simulate_arguments),
    "volume": ("hypercube-volume estimate of the win probability", _volume_arguments),
    "relate": ("beats / matched / loses verdict for --a against --b", _relate_arguments),
    "curve": ("pairs (x, y) that exactly match a lone speed-1 particle", _curve_arguments),
    "cycle": ("check three groups for a beats-cycle", _cycle_arguments),
    "crosscheck": (
        "run the reference, the auto route, epsilon and both estimators on one instance",
        _crosscheck_arguments,
    ),
}


if __name__ == "__main__":
    sys.exit(run())
