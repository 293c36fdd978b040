"""Command-line interface emitting machine-readable JSON (or CSV for scans).

Every command is deterministic given its arguments: field order is fixed and
floats are serialized with 17 significant digits, so identical invocations
produce byte-identical output. Complex amplitudes are emitted as [re, im]
pairs. Float and complex arrays are rendered in bulk, with the bytes of the
element-by-element path: one finiteness check per array, each distinct value
formatted once, and one piece of text per element with its brackets and
separator folded in. The whole output is one list of pieces, joined once, and
written to stdout a slice at a time.

A MUB family holds about d + 2 distinct amplitudes; `mub 61 --verify` prints
10 MB (README times its stages). Each command imports only the submodules it
calls. Payloads go to stdout, diagnostics to stderr.

Exit status: 0 payload produced, 2 usage error (unknown or conflicting flags),
3 invalid parameter value or configuration, 141 (128 + SIGPIPE) stdout closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .numerics import MAX_DIM, MAX_SCAN_SAMPLES, ROUNDOFF_TOL, check_index

USAGE_ERROR = 2
INVALID_PARAMETER = 3
STDOUT_CLOSED = 141

#: Characters handed to stdout per write. The text is encoded a slice at a
#: time, so the 10 MB of `mub 61 --verify` is never encoded as a second copy;
#: a slice this size stays below glibc's default mmap threshold and reuses
#: the heap pages of the one before it.
_WRITE_SLICE = 1 << 16

#: Most grid points `scan-alpha` takes. Each holds about 490 bytes of rows,
#: so at the cap a run peaks near 50 MB above the interpreter and takes
#: about 6 s (one thread, 2-vCPU x86-64 VM).
MAX_ALPHA_STEPS = 10**5

_EPILOG = (
    f"exit status: 0 = payload produced, {USAGE_ERROR} = usage error, {INVALID_PARAMETER} = "
    f"invalid parameter or configuration, {STDOUT_CLOSED} = stdout closed"
)


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


# 2**64 / golden ratio (Fibonacci hashing): any odd multiplier gives the same
# output, this one spreads keys that differ in few bits over the table
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def _distinct(keys: np.ndarray) -> tuple:
    """The sorted distinct values of int64 ``keys`` and each key's index among them.

    Only the values are sorted, not their positions (no argsort). Each key then
    finds its index in a table of at most 2 * keys.size slots through a
    multiplicative hash, once every distinct value is seen to have a slot of its
    own; if two share one, a binary search finds the indices instead. The
    table is there for speed: a warm render of `mub 61 --verify`'s result
    (461,404 unsorted keys) takes about 4.5 ms with it and 16 ms with the
    binary search alone, which a ``_FIBONACCI`` of 0 forces (median of 15
    ``render_json`` calls in one process, one CPU).
    """
    ordered = np.sort(keys)
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    values = ordered[new]
    bits = keys.size.bit_length()
    shift = np.uint64(64 - bits)
    slots = (values.view(np.uint64) * _FIBONACCI) >> shift
    table = np.empty(1 << bits, dtype=np.intp)
    index = np.arange(values.size)
    table[slots] = index
    if not np.array_equal(table[slots], index):  # a shared slot holds one of its values
        return values, np.searchsorted(values, keys)
    hashed = keys.view(np.uint64) * _FIBONACCI
    hashed >>= shift
    return values, table[hashed]


def _render_array(a: np.ndarray, out: list) -> None:
    """Append the pieces of ``render_json(a.tolist())``, complex entries as [re, im] lists.

    Each element becomes one piece, with its opening brackets, its closing
    brackets and the ", " after it folded in, so no level is joined on its own.
    """
    is_complex = a.dtype.kind == "c"
    if a.ndim == 0 or a.size == 0:  # a scalar, or nested empty lists with no value in them
        _render(complex_pair(a) if is_complex and a.ndim == 0 else a.tolist(), out)
        return
    flat = np.ascontiguousarray(a, dtype=np.complex128 if is_complex else np.float64).reshape(-1)
    parts = flat.view(np.float64)  # C order, real part before imaginary part
    bad = parts[~np.isfinite(parts)]
    if bad.size:
        _format_float(float(bad[0]))  # raises the list path's message
    # distinct bit patterns: -0.0 and 0.0 are two entries, both formatted "0"
    values, ids = _distinct(parts.view(np.int64))
    text = [_format_float(x) for x in values.view(np.float64).tolist()]
    if is_complex:
        m = len(text)
        pairs, ids = _distinct(ids[0::2] * m + ids[1::2])
        text = [f"[{text[p // m]}, {text[p % m]}]" for p in pairs.tolist()]
    # a row's first element opens one bracket, plus one per enclosing axis it starts;
    # its last element closes them likewise
    n = a.shape[-1]
    row = np.arange(flat.size // n)
    opens = np.ones(row.size, dtype=np.intp)
    closes = np.ones(row.size, dtype=np.intp)
    span = 1
    for size in reversed(a.shape[:-1]):
        span *= size
        opens += row % span == 0
        closes += (row + 1) % span == 0
    table = np.array(text, dtype=object)
    closing = np.array(["]" * k + ", " for k in range(a.ndim + 1)], dtype=object)
    opening = np.array(["[" * k for k in range(a.ndim + 1)], dtype=object)
    pieces = (table + ", ")[ids]
    pieces[n - 1 :: n] = table[ids[n - 1 :: n]] + closing[closes]
    pieces[-1] = pieces[-1][:-2]  # nothing follows the last element
    pieces[::n] = opening[opens] + pieces[::n]
    out.extend(pieces.tolist())


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Float and complex arrays are rendered in bulk (complex entries as [re, im]
    lists); other arrays go through ``tolist()``. The output is built as one
    list of pieces and joined once.
    """
    out: list = []
    _render(value, out)
    return "".join(out)


def _render(value, out: list) -> None:
    """Append the pieces of ``render_json(value)`` to ``out``."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            _render_array(value, out)
        else:
            _render(value.tolist(), out)
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    else:
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


# Each handler imports the submodules it calls, so a command loads no other.
def _cmd_mub(args) -> dict:
    from . import mub as _mub

    _mub._check_tol(args.tol)  # checked with or without --verify: the parameters echo it
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
    from . import bounds as _bounds
    from . import qubit as _qubit

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
    from . import bounds as _bounds
    from . import qubit as _qubit

    # an option no mode reads is rejected, not ignored
    if args.bases is not None and args.d is None:
        raise ValueError("--bases applies to --d mode only")
    if args.gamma is not None:
        if args.outcomes is not None:
            raise ValueError("--gamma takes no --outcomes")
        zeta = _qubit.pair_bound(args.gamma)
        payload = {
            "zeta": zeta,
            "weighted_zeta": zeta / 2.0,
            "degenerate": _qubit._degenerate_pair(2.0 * np.cos(args.gamma / 2.0)),
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
    check_index(args.steps, "--steps", low=2)
    if args.steps > MAX_ALPHA_STEPS:
        raise ValueError(f"--steps must be <= {MAX_ALPHA_STEPS} (got {args.steps})")
    from . import qubit as _qubit

    alphas = np.linspace(0.0, np.pi, args.steps).tolist()
    rows = []
    max_diff = 0.0
    for alpha in alphas:
        closed, quad = _qubit.average_certainty(alpha)
        rows.append([alpha, closed, quad])
        max_diff = max(max_diff, abs(closed - quad))
    if args.csv:
        lines = ["alpha,closed_form,quadrature"]
        lines += [",".join(_format_float(v) for v in row) for row in rows]
        return "\n".join(lines)
    payload = {"rows": rows, "max_abs_difference": max_diff}
    return _result("scan-alpha", {"steps": args.steps}, payload, "closed-form and quadrature")


def _cmd_cycle(args) -> dict:
    from . import cycle as _cycle
    from . import mub as _mub

    check_index(args.samples, "--samples", low=1)
    priors = args.priors if args.priors else None
    parameters = {
        "d": args.d,
        "basis": args.basis or "computational",
        "seed": args.seed,
        "samples": args.samples,
        "layout": args.layout,
        "priors": priors,
        "counterfactual_zeta": args.counterfactual_zeta,
        "per_sample": bool(args.per_sample),
    }
    scan = args.samples > 1
    # an option that the run does not read is rejected, not ignored
    if scan:
        # a scan always draws seeded random bases, so it takes only --basis random
        if args.basis == "computational":
            raise ValueError("--basis computational applies to a single cycle, not a scan")
        if args.counterfactual_zeta is not None:
            raise ValueError("--counterfactual-zeta applies to a single cycle, not a scan")
        if priors is not None:
            raise ValueError("the basis scan uses uniform priors")
    elif args.per_sample:
        raise ValueError("--per-sample applies to a scan (--samples above 1), not a single cycle")
    # reject d before a random basis or the O(d^2) symmetric preset is built
    _mub._check_dim(args.d, qubit=True)
    layout = None if args.layout == "paper" else _cycle.MembraneLayout.symmetric_preset(args.d)
    if scan:
        report = _cycle.scan_bases(
            args.d, args.samples, args.seed, layout=layout, keep_samples=args.per_sample
        )
        return _result("cycle", parameters, report.as_dict(), "numerical scan")

    seed = _cycle._scan_seed(args.seed)  # checked for the computational basis too
    basis = None
    if args.basis == "random":
        basis = _cycle.haar_random_basis(args.d, np.random.default_rng(seed))
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
    p_mub.add_argument("d", type=int, help=f"odd prime dimension, at most {MAX_DIM}")
    p_mub.add_argument("--verify", action="store_true", help="run the exhaustive overlap scan")
    p_mub.add_argument("--tol", type=float, default=ROUNDOFF_TOL, help="verification tolerance")

    p_bound = sub.add_parser(
        "bound",
        help="certainty bound for a weighted outcome combination",
        epilog=_EPILOG,
    )
    mode = p_bound.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--d", type=int, help=f"unbiased-basis pair in prime dimension d, at most {MAX_DIM}"
    )
    mode.add_argument(
        "--pauli-pair", nargs=2, metavar=("AXIS1", "AXIS2"), help="two Pauli axes, e.g. x z"
    )
    mode.add_argument("--pauli-triple", action="store_true", help="all three Pauli axes")
    mode.add_argument(
        "--gamma",
        type=float,
        help="closed form for directions at angle gamma: zeta is the sum 1 + cos(gamma/2) of the two"
        " probabilities, weighted_zeta their average (the average is what the other modes print)",
    )
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
    p_scan.add_argument(
        "--steps", type=int, required=True, help=f"number of grid points on [0, pi], 2 to {MAX_ALPHA_STEPS}"
    )
    p_scan.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    p_cycle = sub.add_parser(
        "cycle",
        help="membrane cycle work report (or a seeded scan over random bases)",
        epilog=_EPILOG,
    )
    p_cycle.add_argument("--d", type=int, required=True, help=f"prime dimension, at most {MAX_DIM}")
    p_cycle.add_argument(
        "--basis",
        choices=["computational", "random"],
        help="membrane basis of a single cycle (default computational); a scan draws random bases",
    )
    p_cycle.add_argument("--seed", type=int, default=0, help="seed for random bases")
    p_cycle.add_argument(
        "--samples", type=int, default=1, help=f"number of random bases, at most {MAX_SCAN_SAMPLES}"
    )
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
    write = sys.stdout.write
    last = (len(text) - 1) // _WRITE_SLICE * _WRITE_SLICE  # the newline goes with the last slice
    try:
        for lo in range(0, last, _WRITE_SLICE):
            write(text[lo : lo + _WRITE_SLICE])
        write(text[last:] + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: the flush at exit must not write to it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED
    return 0


if __name__ == "__main__":
    sys.exit(main())
