"""The handlers of the commands that draw: simulate, volume and crosscheck.

They live apart from `cli` so that the exact commands neither load nor
compile them, nor `streams`, which they need: each command's argument
builder in `cli` imports its handler from here.  `cli.main` hands each
handler its duel, so this module imports nothing from `cli`.  Each handler
imports its own estimator inside the function, so that `volume` does not
load `montecarlo`, nor `simulate` `volume`.  crosscheck decides no exact check:
it prints one row for each entry of `residues.verify`'s table.
"""

from __future__ import annotations

from .model import Instance, InvalidInstance, decimal_str, group
from .residues import default_epsilon, parse_perturbation, solve, verify
from .streams import gate


def _run_simulate(inst: Instance, args) -> tuple[dict, str, str | None]:
    from .montecarlo import SimConfig, simulate

    report = simulate(inst, SimConfig(args.trials, args.seed, args.policy))
    plain = (
        f"A wins {report.a_wins}/{report.trials} = {report.estimate:.6f} "
        f"+/- {report.std_error:.6f} (seed {report.seed}, policy {report.policy})"
    )
    return report.to_json(), plain, None


def _run_volume(inst: Instance, args) -> tuple[dict, str, str | None]:
    from .volume import estimate_volume

    estimate = estimate_volume(inst, args.samples, args.seed)
    plain = (
        f"hit fraction {estimate.hits}/{estimate.samples} = {estimate.estimate:.6f} "
        f"+/- {estimate.std_error:.6f} (seed {estimate.seed})"
    )
    return estimate.to_json(), plain, None


def _run_crosscheck(inst: Instance, args) -> tuple[dict, str, str | None]:
    from .montecarlo import SimConfig, simulate
    from .volume import estimate_volume

    if not inst.a or not inst.b:
        raise InvalidInstance("crosscheck needs particles on both sides")
    # Tried before any exact work, so that a bad --epsilon costs no sweep.  The
    # epsilon row prints the perturbation, so the default is resolved here.
    eps = args.epsilon
    eps = default_epsilon(group(inst)) if eps is None else parse_perturbation(eps)
    eps_report = solve(inst, "epsilon", eps)
    checks = verify(inst, solve(inst))
    exact = checks[0][1]
    payload = {"value": str(exact), "decimal": decimal_str(exact), "methods": []}
    lines = [f"exact value: {exact} = {payload['decimal']}"]
    failures = []

    def add(row: dict, line: str, failure: str | None = None) -> None:
        payload["methods"].append(row)
        lines.append(f"  {row['method']:<12} {line}")
        if failure:
            failures.append(failure)

    for index, (method, value, failure) in enumerate(checks):
        note = "MISMATCH" if failure else "exact match" if index else "reference"
        row = {"method": method, "value": str(value), "agree": not failure}
        add(row, f"{value}  ({note})", failure)

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
    return payload, "\n".join(lines), failures[0] if failures else None
