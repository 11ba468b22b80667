"""Command-line front end.

Subcommands map one-to-one onto the library: solve (any route of the one
route table, `residues.solve`), simulate (Monte Carlo play-out), volume
(hypercube sampling), relate / curve / cycle (group relations), and
crosscheck, which runs the reference, the auto route, epsilon and both
estimators on one instance; `_verify` checks the exact routes of both.

Exit codes: 0 success, 1 cross-method inconsistency (the CI tripwire),
2 usage or validation error, 3 any other (unexpected) error, with its
traceback on standard error, so that 1 always means the routes disagree.
Reports go to standard output as compact JSON (or --format plain);
diagnostics go to standard error.  Output is deterministic for fixed
arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .model import (
    Instance,
    InvalidInstance,
    decimal_str,
    group,
    parse_instance,
)
from .recurrence import p_a_wins_recursive
from .relations import matching_curve_grid, relate, verify_cycle
from .residues import ROUTES, MethodReport, default_epsilon, parse_perturbation, solve
from .montecarlo import POLICIES, SimConfig, simulate
from .streams import gate
from .volume import estimate_volume


class Inconsistency(Exception):
    """Two routes to the same value disagree; the exit-1 condition."""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact results may have any number of digits: lift CPython's int<->str cap.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except Inconsistency as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except (InvalidInstance, ValueError, OSError) as exc:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skirmish",
        description="Exact and stochastic solvers for the two-beam annihilation duel.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="exact (or perturbed) win probability")
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

    sim = commands.add_parser("simulate", help="Monte Carlo play-out of the duel")
    _instance_flags(sim)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--policy", choices=POLICIES, default="frontmost")
    _format_flag(sim)
    sim.set_defaults(handler=_run_simulate)

    vol = commands.add_parser("volume", help="hypercube-volume estimate of the win probability")
    _instance_flags(vol)
    vol.add_argument("--samples", type=int, default=1_000_000)
    vol.add_argument("--seed", type=int, default=0)
    _format_flag(vol)
    vol.set_defaults(handler=_run_volume)

    rel = commands.add_parser("relate", help="beats / matched / loses verdict for --a against --b")
    _instance_flags(rel)
    _format_flag(rel)
    rel.set_defaults(handler=_run_relate)

    curve = commands.add_parser(
        "curve", help="pairs (x, y) that exactly match a lone speed-1 particle"
    )
    curve.add_argument("--points", type=int, default=100, help="grid size; x = k/(points+1)")
    _format_flag(curve, default="plain")
    curve.set_defaults(handler=_run_curve)

    cycle = commands.add_parser("cycle", help="check three groups for a beats-cycle")
    cycle.add_argument(
        "groups", nargs=3, metavar="GROUP", help="comma-separated speeds, three groups"
    )
    _format_flag(cycle)
    cycle.set_defaults(handler=_run_cycle)

    cross = commands.add_parser(
        "crosscheck",
        help="run the reference, the auto route, epsilon and both estimators on one instance",
    )
    _instance_flags(cross)
    cross.add_argument("--trials", type=int, default=200_000)
    cross.add_argument("--samples", type=int, default=1_000_000)
    cross.add_argument("--seed", type=int, default=0)
    cross.add_argument("--epsilon", help="override the default perturbation")
    _format_flag(cross)
    cross.set_defaults(handler=_run_crosscheck)

    return parser


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


def _emit(args, payload: dict, plain: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(plain)


def _run_solve(args) -> int:
    if args.epsilon is not None and args.method != "epsilon":
        raise ValueError(f"--epsilon applies only to --method epsilon, not {args.method}")
    inst = _read_instance(args)
    report = solve(inst, args.method, args.epsilon)
    failure = _verify(inst, report)
    payload = report.to_json()
    _emit(args, payload, _plain_value(payload))
    if failure:
        raise Inconsistency(failure)
    return 0


def _verify(
    inst: Instance, report: MethodReport, reference: Fraction | None = None
) -> str | None:
    """What disagreed, or None: exact routes must equal the recursive reference.

    Recursive is the reference and epsilon is approximate, so neither is compared.
    """
    if report.method in ("recursive", "epsilon"):
        return None
    if reference is None:
        reference = p_a_wins_recursive(inst)
    if report.value == reference:
        return None
    return f"{report.method} gave {report.value}, recursive reference gives {reference}"


def _plain_value(payload: dict) -> str:
    line = f"P(A wins) = {payload['value']} = {payload['decimal']} [{payload['method']}]"
    residues = payload.get("residues")
    if residues:
        line += "\nresidues: " + ", ".join(residues)
    return line


def _run_simulate(args) -> int:
    inst = _read_instance(args)
    report = simulate(inst, SimConfig(args.trials, args.seed, args.policy))
    plain = (
        f"A wins {report.a_wins}/{report.trials} = {report.estimate:.6f} "
        f"+/- {report.std_error:.6f} (seed {report.seed}, policy {report.policy})"
    )
    _emit(args, report.to_json(), plain)
    return 0


def _run_volume(args) -> int:
    inst = _read_instance(args)
    estimate = estimate_volume(inst, args.samples, args.seed)
    plain = (
        f"hit fraction {estimate.hits}/{estimate.samples} = {estimate.estimate:.6f} "
        f"+/- {estimate.std_error:.6f} (seed {estimate.seed})"
    )
    _emit(args, estimate.to_json(), plain)
    return 0


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


def _run_crosscheck(args) -> int:
    inst = _read_instance(args)
    if not inst.a or not inst.b:
        raise InvalidInstance("crosscheck needs particles on both sides")
    exact = p_a_wins_recursive(inst)
    payload = {"value": str(exact), "decimal": decimal_str(exact), "methods": []}
    lines = [f"exact value: {exact} = {payload['decimal']}"]
    failures = []

    def add(row: dict, line: str, failure: str | None = None) -> None:
        payload["methods"].append(row)
        lines.append(f"  {row['method']:<12} {line}")
        if failure:
            failures.append(failure)

    add({"method": "recursive", "value": str(exact), "agree": True}, f"{exact}  (reference)")
    report = solve(inst)
    failure = _verify(inst, report, exact)
    add(
        {"method": report.method, "value": str(report.value), "agree": not failure},
        f"{report.value}  ({'MISMATCH' if failure else 'exact match'})",
        failure,
    )

    # The row prints the perturbation, so the default is resolved here.
    eps = (
        default_epsilon(group(inst))
        if args.epsilon is None
        else parse_perturbation(args.epsilon)
    )
    eps_report = solve(inst, "epsilon", eps)
    abs_error = decimal_str(abs(eps_report.value - exact), 3)
    # Informational row: the perturbation is approximate by design, so its
    # deviation is reported but never gates the exit code.
    add(
        {
            "method": "epsilon",
            "value": str(eps_report.value),
            "epsilon": str(eps),
            "absError": abs_error,
        },
        f"abs error {abs_error} at eps = {eps}",
    )

    sim = simulate(inst, SimConfig(args.trials, args.seed))
    vol = estimate_volume(inst, args.samples, args.seed)
    for name, hits, draws, estimate, std_error in (
        ("montecarlo", sim.a_wins, sim.trials, sim.estimate, sim.std_error),
        ("hypervolume", vol.hits, vol.samples, vol.estimate, vol.std_error),
    ):
        agree, sigmas = gate(hits, draws, exact)
        failure = f"{name} estimate {estimate} is {sigmas:.1f} sigma from exact {exact}"
        add(
            {
                "method": name,
                "estimate": estimate,
                "stdError": std_error,
                "sigmas": sigmas,
                "agree": agree,
            },
            f"{estimate:.6f} +/- {std_error:.6f}  [{sigmas:.2f} sigma]",
            None if agree else failure,
        )

    payload["agree"] = not failures
    lines.append("agreement: " + ("NO" if failures else "yes"))
    _emit(args, payload, "\n".join(lines))
    if failures:
        raise Inconsistency(failures[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
