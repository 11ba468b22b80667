"""The handlers of the commands that draw: simulate, volume and crosscheck.

They live apart from `cli` so that the exact commands neither load nor
compile them, nor `streams`, which they need: each command's argument
builder in `cli` imports its handler from here.  Each handler imports its
own estimator inside the function, so that `volume` does not load
`montecarlo`, nor `simulate` `volume`.
"""

from __future__ import annotations

from .cli import _emit, _read_instance
from .model import InvalidInstance, decimal_str, group
from .residues import Inconsistency, default_epsilon, parse_perturbation, solve, verify
from .streams import gate


def _run_simulate(args) -> int:
    from .montecarlo import SimConfig, simulate

    inst = _read_instance(args)
    report = simulate(inst, SimConfig(args.trials, args.seed, args.policy))
    plain = (
        f"A wins {report.a_wins}/{report.trials} = {report.estimate:.6f} "
        f"+/- {report.std_error:.6f} (seed {report.seed}, policy {report.policy})"
    )
    _emit(args, report.to_json(), plain)
    return 0


def _run_volume(args) -> int:
    from .volume import estimate_volume

    inst = _read_instance(args)
    estimate = estimate_volume(inst, args.samples, args.seed)
    plain = (
        f"hit fraction {estimate.hits}/{estimate.samples} = {estimate.estimate:.6f} "
        f"+/- {estimate.std_error:.6f} (seed {estimate.seed})"
    )
    _emit(args, estimate.to_json(), plain)
    return 0


def _run_crosscheck(args) -> int:
    from .montecarlo import SimConfig, simulate
    from .volume import estimate_volume

    inst = _read_instance(args)
    if not inst.a or not inst.b:
        raise InvalidInstance("crosscheck needs particles on both sides")
    # Read before any exact work, so that a bad --epsilon costs none.  The
    # epsilon row prints the perturbation, so the default is resolved here.
    eps = (
        default_epsilon(group(inst))
        if args.epsilon is None
        else parse_perturbation(args.epsilon)
    )
    report = solve(inst)
    exact, failure = verify(inst, report)
    payload = {"value": str(exact), "decimal": decimal_str(exact), "methods": []}
    lines = [f"exact value: {exact} = {payload['decimal']}"]
    failures = []

    def add(row: dict, line: str, failure: str | None = None) -> None:
        payload["methods"].append(row)
        lines.append(f"  {row['method']:<12} {line}")
        if failure:
            failures.append(failure)

    add({"method": "recursive", "value": str(exact), "agree": True}, f"{exact}  (reference)")
    add(
        {"method": report.method, "value": str(report.value), "agree": not failure},
        f"{report.value}  ({'MISMATCH' if failure else 'exact match'})",
        failure,
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
