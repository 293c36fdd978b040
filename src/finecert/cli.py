"""Command-line interface emitting machine-readable JSON (or CSV for scans).

Every command is deterministic given its arguments: field order is fixed and
floats are serialized with 17 significant digits, so identical invocations
produce byte-identical output. Complex amplitudes are emitted as [re, im]
pairs. Float and complex arrays are rendered in bulk, with the bytes of the
element-by-element path: one finiteness check per array, and each distinct
value formatted once. A MUB family holds about d + 2 distinct amplitudes, so
`mub 61 --verify` (a 10 MB payload) takes about 0.55 s of wall time
single-threaded, most of it interpreter start, import and rendering; the
verification takes about 0.1 s of it. Payloads go to stdout, diagnostics to
stderr.

Exit status: 0 when a payload was produced, 2 for usage errors (unknown or
conflicting flags), 3 for invalid parameter values or configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as _bounds
from . import cycle as _cycle
from . import mub as _mub
from . import qubit as _qubit

USAGE_ERROR = 2
INVALID_PARAMETER = 3

_EPILOG = (
    "exit status: 0 = payload produced, 2 = usage error, "
    "3 = invalid parameter or configuration"
)


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


def _render_array(a: np.ndarray) -> str:
    """The bytes of ``render_json(a.tolist())``, complex entries as [re, im] lists."""
    is_complex = a.dtype.kind == "c"
    flat = np.ascontiguousarray(a, dtype=np.complex128 if is_complex else np.float64).reshape(-1)
    parts = flat.view(np.float64)  # C order, real part before imaginary part
    bad = parts[~np.isfinite(parts)]
    if bad.size:
        _format_float(float(bad[0]))  # raises the list path's message
    values, inverse = np.unique(flat, return_inverse=True)  # -0.0 == 0.0: one entry, "0"
    if is_complex:
        table = [f"[{_format_float(z.real)}, {_format_float(z.imag)}]" for z in values.tolist()]
    else:
        table = [_format_float(x) for x in values.tolist()]
    cells = np.array(table, dtype=object)[inverse].reshape(a.shape)
    while cells.ndim:
        *outer, n = cells.shape
        rows = cells.reshape(math.prod(outer), n).tolist()
        cells = np.array(["[" + ", ".join(row) + "]" for row in rows], dtype=object)
        cells = cells.reshape(outer)
    return cells.item()


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Float and complex arrays are rendered in bulk (complex entries as [re, im]
    lists); other arrays go through ``tolist()``.
    """
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return _render_array(value)
        return render_json(value.tolist())
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    raise ValueError(f"cannot serialize {type(value).__name__} value {value!r}")


# The list forms of complex amplitudes; render_json gives an array the same bytes.
def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def state_pairs(psi) -> list:
    return [complex_pair(a) for a in np.asarray(psi).reshape(-1)]


def matrix_pairs(m) -> list:
    return [state_pairs(row) for row in np.asarray(m)]


def _result(command: str, parameters: dict, payload: dict, provenance: str) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "provenance": provenance,
        "status": "ok",
    }


def _parse_basis_label(text: str):
    try:
        return int(text)
    except ValueError:  # passed on as text: mub names the labels it accepts
        return text


def _cmd_mub(args) -> dict:
    family = _mub.mub_family(args.d)
    payload = {
        "d": family.d,
        "labels": [str(label) for label in family.labels],
        "bases": family.bases,
    }
    if args.verify:
        payload["verification"] = _mub.verify_mub(family, tol=args.tol).as_dict()
    parameters = {"d": args.d, "verify": bool(args.verify), "tol": args.tol}
    return _result("mub", parameters, payload, "construction")


def _outcomes(args, count: int, message: str) -> tuple:
    outcomes = tuple(args.outcomes) if args.outcomes else (0,) * count
    if len(outcomes) != count:
        raise ValueError(message)
    return outcomes


def _spectral_result(parameters: dict, ensemble, closed_form: float, bloch: bool) -> dict:
    bound = _bounds.zeta_spectral(ensemble)
    payload = {
        "zeta": bound.zeta,
        "closed_form": closed_form,
        "gap": bound.gap,
        "degenerate": bound.degenerate,
        "maximizer": bound.maximizer,
    }
    if bloch:
        payload["maximizer_bloch"] = list(_qubit.state_to_bloch(bound.maximizer))
    return _result("bound", parameters, payload, "spectral; closed-form cross-check")


def _cmd_bound(args) -> dict:
    if args.gamma is not None:
        zeta = _qubit.pair_bound(args.gamma)
        payload = {
            "zeta": zeta,
            "weighted_zeta": zeta / 2.0,
            "degenerate": bool(args.gamma >= np.pi - 1e-12),
        }
        return _result("bound", {"mode": "gamma", "gamma": args.gamma}, payload, "closed-form")

    # each ensemble is built (and validated) before its closed form
    if args.pauli_triple:
        outcomes = _outcomes(args, 3, "--pauli-triple takes exactly three outcomes")
        return _spectral_result(
            {"mode": "pauli-triple", "outcomes": list(outcomes)},
            _bounds.pauli_triple_ensemble(outcomes),
            _qubit.triple_pauli_bound().zeta,
            bloch=True,
        )

    if args.pauli_pair is not None:
        axis1, axis2 = args.pauli_pair
        outcomes = _outcomes(args, 2, "--pauli-pair takes exactly two outcomes")
        return _spectral_result(
            {"mode": "pauli-pair", "axes": [axis1, axis2], "outcomes": list(outcomes)},
            _bounds.pauli_pair_ensemble(axis1, axis2, outcomes),
            _bounds.mub_pair_bound(2),
            bloch=True,
        )

    # --d mode
    k1, k2 = (_parse_basis_label(t) for t in (args.bases or ["z", "0"]))
    outcomes = _outcomes(args, 2, "--d mode takes exactly two outcomes")
    return _spectral_result(
        {"mode": "mub-pair", "d": args.d, "bases": [str(k1), str(k2)], "outcomes": list(outcomes)},
        _bounds.mub_pair_ensemble(args.d, k1, k2, *outcomes),
        _bounds.mub_pair_bound(args.d),
        bloch=False,
    )


def _cmd_scan_alpha(args):
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2 (got {args.steps})")
    alphas = np.linspace(0.0, np.pi, args.steps)
    rows = []
    max_diff = 0.0
    for alpha in alphas:
        closed, quad = _qubit.average_certainty(float(alpha))
        rows.append([float(alpha), closed, quad])
        max_diff = max(max_diff, abs(closed - quad))
    if args.csv:
        lines = ["alpha,closed_form,quadrature"]
        lines += [",".join(_format_float(v) for v in row) for row in rows]
        return "\n".join(lines)
    payload = {"rows": rows, "max_abs_difference": max_diff}
    return _result("scan-alpha", {"steps": args.steps}, payload, "closed-form and quadrature")


def _cmd_cycle(args) -> dict:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1 (got {args.samples})")
    priors = args.priors if args.priors else None
    parameters = {
        "d": args.d,
        "basis": args.basis,
        "seed": args.seed,
        "samples": args.samples,
        "layout": args.layout,
        "priors": priors,
        "counterfactual_zeta": args.counterfactual_zeta,
        "per_sample": bool(args.per_sample),
    }
    scan = args.samples > 1
    if scan:
        # a scan always draws seeded random bases; --basis only affects single runs
        if args.counterfactual_zeta is not None:
            raise ValueError("--counterfactual-zeta applies to a single cycle, not a scan")
        if priors is not None:
            raise ValueError("the basis scan uses uniform priors")
    # reject d before a random basis or the O(d^2) symmetric preset is built
    _cycle._check_d(args.d)
    layout = None if args.layout == "paper" else _cycle.MembraneLayout.symmetric_preset(args.d)
    if scan:
        report = _cycle.scan_bases(
            args.d, args.samples, args.seed, layout=layout, keep_samples=args.per_sample
        )
        return _result("cycle", parameters, report.as_dict(), "numerical scan")

    if args.basis == "computational":
        basis = None
    else:
        rng = np.random.default_rng(np.random.SeedSequence(_cycle._scan_seed(args.seed)))
        basis = _cycle.haar_random_basis(args.d, rng)
    cfg = _cycle.cycle_config(args.d, priors=priors, basis=basis, layout=layout)
    report = _cycle.delta_w(cfg, counterfactual_zeta=args.counterfactual_zeta)
    return _result("cycle", parameters, report.as_dict(), "numerical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finecert",
        description=(
            "Certainty bounds for projective measurements, mutually unbiased "
            "bases, and the membrane work-extraction cycle."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser(
        "mub",
        help="construct (and optionally verify) a full set of unbiased bases",
        epilog=_EPILOG,
    )
    p_mub.add_argument("d", type=int, help="odd prime dimension")
    p_mub.add_argument("--verify", action="store_true", help="run the exhaustive overlap scan")
    p_mub.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")

    p_bound = sub.add_parser(
        "bound",
        help="certainty bound for a weighted outcome combination",
        epilog=_EPILOG,
    )
    mode = p_bound.add_mutually_exclusive_group(required=True)
    mode.add_argument("--d", type=int, help="unbiased-basis pair in prime dimension d")
    mode.add_argument(
        "--pauli-pair", nargs=2, metavar=("AXIS1", "AXIS2"), help="two Pauli axes, e.g. x z"
    )
    mode.add_argument("--pauli-triple", action="store_true", help="all three Pauli axes")
    mode.add_argument("--gamma", type=float, help="closed form for directions at angle gamma")
    p_bound.add_argument(
        "--bases",
        nargs=2,
        metavar=("K1", "K2"),
        help="basis labels for --d mode ('z' or 0..d-1); default z 0",
    )
    p_bound.add_argument(
        "--outcomes", nargs="+", type=int, help="outcome indices, one per measurement"
    )

    p_scan = sub.add_parser(
        "scan-alpha",
        help="average certainty over the measurement angle, closed form vs quadrature",
        epilog=_EPILOG,
    )
    p_scan.add_argument("--steps", type=int, required=True, help="number of grid points on [0, pi]")
    p_scan.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    p_cycle = sub.add_parser(
        "cycle",
        help="membrane cycle work report (or a seeded scan over random bases)",
        epilog=_EPILOG,
    )
    p_cycle.add_argument("--d", type=int, required=True, help="prime dimension")
    p_cycle.add_argument(
        "--basis", choices=["computational", "random"], default="computational"
    )
    p_cycle.add_argument("--seed", type=int, default=0, help="seed for random bases")
    p_cycle.add_argument("--samples", type=int, default=1, help="number of random bases")
    p_cycle.add_argument("--layout", choices=["paper", "symmetric"], default="paper")
    p_cycle.add_argument("--priors", nargs="+", type=float, help="component priors (default uniform)")
    p_cycle.add_argument(
        "--counterfactual-zeta",
        type=float,
        help="what-if bound value substituted for every singleton argument",
    )
    p_cycle.add_argument(
        "--per-sample", action="store_true", help="include per-sample work differences in scans"
    )
    return parser


_HANDLERS = {
    "mub": _cmd_mub,
    "bound": _cmd_bound,
    "scan-alpha": _cmd_scan_alpha,
    "cycle": _cmd_cycle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
        text = result if isinstance(result, str) else render_json(result)
    except ValueError as exc:
        print(f"finecert {args.command}: {exc}", file=sys.stderr)
        return INVALID_PARAMETER
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
