"""The four benchmark workloads: their seeded inputs, the timed call and the output check.

Each workload hands out its operations in rotations, deterministic for a
given seed. ``call`` is the only code inside the timed region; ``check``
runs after it and raises ``CheckError`` when an output is wrong. The
references used by the checks (Haar bases, MUB vectors, the cycle's work
terms) are re-derived here with plain numpy rather than taken from the
package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from spans import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

SCAN_SAMPLES = {3: 64, 31: 3}
CLI_SCAN_SAMPLES = 20
CLI_TIMEOUT_S = 60.0
PRIMES = [p for p in range(2, 62) if all(p % f for f in range(2, int(p**0.5) + 1))]
#: zeta_gridsearch steps per angle and the allowed shortfall below the spectral bound.
#: Over every outcome pair the workload can draw, the largest shortfall is
#: 2.7e-5 at d = 2 and 9.2e-3 at d = 3.
GRID = {2: (181, 1e-4), 3: (16, 0.02)}

RESIDUAL_TOL = 1e-12
EXCESS_TOL = 1e-10
DELTA_W_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
STATE_TOL = 1e-10
VERIFY_TOL = 1e-10
#: Agreement between a CLI field and the library value, relative above 1.
FIELD_TOL = 1e-12


class CheckError(Exception):
    """An operation returned a wrong output."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def pair_bound(d):
    return 0.5 + 0.5 / math.sqrt(d)


# ------------------------------------------------------------ references


def ref_basis(d, label):
    """Rows of basis ``label`` ('z' or quadratic-phase index k) in dimension d."""
    if label == "z":
        return np.eye(d, dtype=complex)
    if d == 2:  # only label 0 exists at d = 2: the sigma_x eigenbasis
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    j, l = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * ((label * l * l - 2 * j * l) % d) / d) / math.sqrt(d)


def ref_haar_basis(d, seed, n_samples, index):
    """Membrane basis of scan sample ``index``: QR of a complex Gaussian from its substream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_samples)[index])
    z = rng.standard_normal((d, d))
    z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return (q * (diag / np.abs(diag))).T


def _entropy(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def ref_delta_w(d, basis):
    """W1 - W2 of the cycle with uniform priors, the paper layout and membrane ``basis`` rows."""
    priors = np.full(d, 1.0 / d)
    paired = ref_basis(d, 0)
    comps = [0.5 * (np.outer(np.eye(d)[i], np.eye(d)[i]) + np.outer(paired[i], paired[i].conj()))
             for i in range(d)]
    probs = 0.5 * (np.abs(basis.T) ** 2 + np.abs(paired.conj() @ basis.T) ** 2)  # [i, j]
    probs = np.clip(probs, 0.0, 1.0)
    singles = [0] * (d - 1) + [d - 1]
    chambers = []
    for j, s in enumerate(singles):
        column = priors * probs[:, j]
        chambers += [column[s], column.sum() - column[s]]
    w1 = _entropy(priors) + _entropy(priors @ probs) - _entropy(chambers)
    rho_avg = sum(p * c for p, c in zip(priors, comps))
    w2 = _entropy(np.linalg.eigvalsh(rho_avg)) - sum(
        p * _entropy(np.linalg.eigvalsh(c)) for p, c in zip(priors, comps)
    )
    return w1 - w2


def check_scan_fields(report, d, n, seed):
    """Invariants of a scan report given as ``ScanReport.as_dict()`` fields."""
    require(report["d"] == d and report["n_samples"] == n and report["seed"] == seed,
            f"scan echoes d={report['d']} n={report['n_samples']} seed={report['seed']}")
    require(report["max_consistency_residual"] <= RESIDUAL_TOL,
            f"consistency residual {report['max_consistency_residual']:.3e}")
    require(report["max_singleton_excess"] <= EXCESS_TOL,
            f"singleton excess {report['max_singleton_excess']:.3e}")
    require(sum(report["histogram"]["counts"]) == n, "histogram counts do not sum to n")
    require(report["delta_w_min"] <= report["delta_w_mean"] <= report["delta_w_max"],
            "delta_w mean outside [min, max]")


def agree(expected, actual, path="$"):
    """Raise unless every field of ``expected`` is in ``actual`` with the same value.

    Keys only ``actual`` has are allowed. Floats agree to FIELD_TOL
    (relative above 1); numpy arrays are compared as float arrays.
    """
    if isinstance(expected, dict):
        require(isinstance(actual, dict), f"{path}: expected an object")
        for key, value in expected.items():
            require(key in actual, f"{path}.{key} missing")
            agree(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, np.ndarray):
        try:
            got = np.asarray(actual, dtype=float)
        except (TypeError, ValueError):
            raise CheckError(f"{path}: not a numeric array") from None
        require(got.shape == expected.shape, f"{path}: shape {got.shape} != {expected.shape}")
        require(np.allclose(got, expected, rtol=FIELD_TOL, atol=FIELD_TOL), f"{path}: values differ")
    elif isinstance(expected, (list, tuple)):
        require(isinstance(actual, list) and len(actual) == len(expected), f"{path}: list differs")
        for i, (e, a) in enumerate(zip(expected, actual)):
            agree(e, a, f"{path}[{i}]")
    elif isinstance(expected, float):
        require(isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and abs(actual - expected) <= FIELD_TOL * max(1.0, abs(expected)),
                f"{path}: {actual!r} != {expected!r}")
    else:  # str, int, bool, None
        require(type(actual) is type(expected) and actual == expected,
                f"{path}: {actual!r} != {expected!r}")


def pairs(v):
    """Complex array as its [re, im] pairs, the CLI's encoding."""
    v = np.asarray(v)
    return np.stack([v.real, v.imag], axis=-1)


# ------------------------------------------------------------ workloads


@dataclass(frozen=True)
class ScanOp:
    seed: int
    check_index: int


class ScanWorkload:
    """One ``scan_bases(d, n, seed_i)`` per operation, paper layout."""

    in_process = True

    def __init__(self, fc, d, seed):
        self.fc, self.d, self.n = fc, d, SCAN_SAMPLES[d]
        self.rng = np.random.default_rng([seed, d])
        self.warm_up_ops = self.rotation()

    def rotation(self):
        return [ScanOp(int(self.rng.integers(2**31)), int(self.rng.integers(self.n)))]

    def call(self, op, traced=False):
        return self.fc.cycle.scan_bases(self.d, self.n, op.seed, keep_samples=True)

    def check(self, op, report):
        check_scan_fields(report.as_dict(), self.d, self.n, op.seed)
        ref = ref_delta_w(self.d, ref_haar_basis(self.d, op.seed, self.n, op.check_index))
        got = report.per_sample_delta_w[op.check_index]
        require(abs(got - ref) <= DELTA_W_TOL,
                f"sample {op.check_index}: delta_w {got!r} != reference {ref!r}")

    def corrupt(self, report):
        return dataclasses.replace(report, delta_w_mean=report.delta_w_max + 1.0)


@dataclass(frozen=True)
class CertifyOp:
    d: int
    labels: tuple  # (k1, k2)
    outcomes: tuple  # (j1, j2)
    pauli_axes: tuple = ()
    pauli_outcomes: tuple = ()
    triple_outcomes: tuple = ()
    directions: tuple = ()  # (m, n) unit 3-vectors


class CertifyWorkload:
    """MUB family, its verification, a seeded outcome-pair bound and the grid oracle.

    A rotation visits every prime 2..61 once. d = 2 has no quadratic-phase
    family (the package rejects it), so there the operation runs the Pauli
    pair and triple ensembles and a seeded pair of spin directions instead.
    """

    in_process = True

    def __init__(self, fc, seed):
        self.fc = fc
        self.rng = np.random.default_rng([seed, 1])
        self.warm_up_ops = [self._op(2), self._op(3)]

    def _op(self, d):
        rng = self.rng
        labels = ["z"] + list(range(d if d > 2 else 1))
        k1, k2 = (labels[i] for i in rng.choice(len(labels), 2, replace=False))
        outcomes = tuple(int(j) for j in rng.integers(d, size=2))
        if d > 2:
            return CertifyOp(d, (k1, k2), outcomes)
        directions = rng.standard_normal((2, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return CertifyOp(
            d, (k1, k2), outcomes,
            pauli_axes=tuple(str(a) for a in rng.choice(list("xyz"), 2, replace=False)),
            pauli_outcomes=tuple(int(o) for o in rng.integers(2, size=2)),
            triple_outcomes=tuple(int(o) for o in rng.integers(2, size=3)),
            directions=(directions[0], directions[1]),
        )

    def rotation(self):
        return [self._op(d) for d in PRIMES]

    def call(self, op, traced=False):
        mub, bounds, qubit = self.fc.mub, self.fc.bounds, self.fc.qubit
        out = {}
        if op.d > 2:
            out["family"] = mub.mub_family(op.d)
            out["verification"] = mub.verify_mub(out["family"], tol=VERIFY_TOL)
        ens = bounds.mub_pair_ensemble(op.d, *op.labels, *op.outcomes)
        out["pair"] = bounds.zeta_spectral(ens)
        if op.d == 2:
            out["pauli_pair"] = bounds.zeta_spectral(
                bounds.pauli_pair_ensemble(*op.pauli_axes, op.pauli_outcomes))
            out["triple"] = bounds.zeta_spectral(bounds.pauli_triple_ensemble(op.triple_outcomes))
            out["triple_closed"] = qubit.triple_pauli_bound()
            out["triple_bloch"] = qubit.state_to_bloch(out["triple"].maximizer)
            m, n = op.directions
            certainty = qubit.pair_certainty(m, n)
            directions = bounds.measurement_ensemble(
                [("m", 0.5, qubit.spin_projector(m)), ("n", 0.5, qubit.spin_projector(n))])
            out["directions"] = certainty
            out["directions_spectral"] = bounds.zeta_spectral(directions)
            out["directions_closed"] = qubit.pair_bound(certainty.gamma)
            out["directions_lhs"] = bounds.lhs_value(
                directions, qubit.bloch_to_state(certainty.maximizer))
        if op.d in GRID:
            out["grid"] = bounds.zeta_gridsearch(ens, GRID[op.d][0])
        return out

    def check(self, op, out):
        d = op.d
        if d > 2:
            bases = out["family"].bases
            require(bases.shape == (d + 1, d, d), f"family shape {bases.shape}")
            for label in op.labels:
                row = 0 if label == "z" else 1 + label
                require(np.allclose(bases[row], ref_basis(d, label), atol=STATE_TOL),
                        f"basis {label} differs from the quadratic-phase construction")
            ver = out["verification"]
            require(ver.passed and ver.max_orthonormality_deviation <= VERIFY_TOL
                    and ver.max_unbiasedness_deviation <= VERIFY_TOL, f"verify_mub failed at d={d}")
        pair = out["pair"]
        require(abs(pair.zeta - pair_bound(d)) <= CLOSED_FORM_TOL,
                f"pair zeta {pair.zeta!r} != 1/2 + 1/(2 sqrt {d})")
        u, v = (ref_basis(d, k)[j] for k, j in zip(op.labels, op.outcomes))
        psi = pair.maximizer
        value = 0.5 * (abs(np.vdot(u, psi)) ** 2 + abs(np.vdot(v, psi)) ** 2)
        require(abs(np.linalg.norm(psi) - 1.0) <= STATE_TOL and abs(value - pair.zeta) <= STATE_TOL,
                "pair maximizer does not attain the bound")
        if d == 2:
            self._check_qubit(op, out)
        if d in GRID:
            grid, tol = out["grid"].zeta, GRID[d][1]
            require(grid <= pair.zeta + STATE_TOL and pair.zeta - grid <= tol,
                    f"grid zeta {grid!r} vs spectral {pair.zeta!r}")

    @staticmethod
    def _check_qubit(op, out):
        require(abs(out["pauli_pair"].zeta - pair_bound(2)) <= CLOSED_FORM_TOL, "Pauli pair bound")
        triple = 0.5 + 0.5 / math.sqrt(3.0)
        require(abs(out["triple"].zeta - triple) <= CLOSED_FORM_TOL
                and abs(out["triple_closed"].zeta - triple) <= CLOSED_FORM_TOL, "Pauli triple bound")
        diagonal = np.array([1.0 if o == 0 else -1.0 for o in op.triple_outcomes]) / math.sqrt(3.0)
        require(np.allclose(out["triple_bloch"], diagonal, atol=STATE_TOL),
                "Pauli triple maximizer off the body diagonal")
        m, n = op.directions
        gamma = math.acos(max(-1.0, min(1.0, float(np.dot(m, n)))))
        closed = 1.0 + math.cos(gamma / 2.0)
        for name, value in (("pair_certainty", out["directions"].zeta),
                            ("2 * spectral", 2.0 * out["directions_spectral"].zeta),
                            ("pair_bound", out["directions_closed"]),
                            ("2 * lhs at maximizer", 2.0 * out["directions_lhs"])):
            require(abs(value - closed) <= STATE_TOL, f"direction pair {name} {value!r} != {closed!r}")

    def corrupt(self, out):
        pair = out["pair"]
        return {**out, "pair": dataclasses.replace(pair, zeta=pair.zeta + 1e-3)}


@dataclass(frozen=True)
class CliOp:
    args: tuple


@dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    spans: dict | None = None


class CliWorkload:
    """Subprocess invocations of ``python -m finecert``, one command per operation."""

    in_process = False

    def __init__(self, fc, seed, root):
        self.fc, self.root = fc, root
        self.rng = np.random.default_rng([seed, 2])
        self.warm_up_ops = [CliOp(("bound", "--pauli-triple"))]
        self._expected = {}
        self._verified = set()  # (args, stdout digest) of outputs that passed

    def rotation(self):
        scan_seed = str(int(self.rng.integers(2**31)))
        return [
            CliOp(("mub", "61", "--verify")),
            CliOp(("mub", "7")),
            CliOp(("bound", "--d", "61")),
            CliOp(("bound", "--pauli-triple")),
            CliOp(("cycle", "--d", "31")),
            CliOp(("cycle", "--d", "3", "--basis", "random", "--samples", str(CLI_SCAN_SAMPLES),
                   "--seed", scan_seed)),
            CliOp(("scan-alpha", "--steps", "1001", "--csv")),
        ]

    def call(self, op, traced=False):
        launcher = [TRACED_CLI] if traced else ["-m", "finecert"]
        proc = subprocess.run([sys.executable, *launcher, *op.args], cwd=self.root,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        spans = None
        if traced:
            last = proc.stderr.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
            if last.startswith(MARKER):
                spans = json.loads(last[len(MARKER):])
        return CliRun(proc.returncode, proc.stdout, proc.stderr, spans)

    def check(self, op, run):
        require(run.returncode == 0, f"{' '.join(op.args)} exited {run.returncode}: "
                f"{run.stderr.decode(errors='replace')[-300:]}")
        # identical bytes for identical arguments get the verdict already given
        verified = (op.args, hashlib.sha256(run.stdout).digest())
        if verified in self._verified:
            return
        self._check_output(op, run.stdout.decode())
        self._verified.add(verified)

    def _check_output(self, op, text):
        if op.args[0] == "scan-alpha":
            self._check_csv(text)
            return
        try:
            result = json.loads(text)
        except ValueError as exc:
            raise CheckError(f"{' '.join(op.args)}: invalid JSON ({exc})") from None
        if op.args not in self._expected:
            self._expected[op.args] = self._expect(op.args)
        agree(self._expected[op.args], result)
        payload = result["payload"]
        command = op.args[0]
        if command == "mub" and "verification" in payload:
            require(payload["verification"]["passed"] is True, "CLI verification did not pass")
        elif command == "bound":
            closed = pair_bound(61) if "--d" in op.args else 0.5 + 0.5 / math.sqrt(3.0)
            require(abs(payload["zeta"] - closed) <= CLOSED_FORM_TOL, "CLI bound != closed form")
        elif command == "cycle" and "--samples" in op.args:
            check_scan_fields(payload, 3, CLI_SCAN_SAMPLES, int(op.args[-1]))
        elif command == "cycle":
            require(payload["consistency_residual"] <= RESIDUAL_TOL, "CLI cycle residual")

    def _check_csv(self, text):
        lines = text.rstrip("\n").split("\n")
        require(lines[0] == "alpha,closed_form,quadrature", "scan-alpha CSV header")
        try:
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        except ValueError:
            raise CheckError("scan-alpha CSV row is not three numbers") from None
        if "scan-alpha" not in self._expected:
            alphas = np.linspace(0.0, np.pi, 1001)
            self._expected["scan-alpha"] = np.array(
                [[a, *self.fc.qubit.average_certainty(float(a))] for a in alphas])
        agree(self._expected["scan-alpha"], rows.tolist())
        require(np.max(np.abs(rows[:, 1] - rows[:, 2])) <= 1e-8, "closed form vs quadrature")

    def _expect(self, args):
        """The fields the seed commit's CLI emits for ``args``, from the library."""
        fc = self.fc
        command = args[0]
        if command == "mub":
            d = int(args[1])
            family = fc.mub.mub_family(d)
            payload = {"d": d, "labels": [str(label) for label in family.labels],
                       "bases": pairs(family.bases)}
            if "--verify" in args:
                payload["verification"] = fc.mub.verify_mub(family, tol=VERIFY_TOL).as_dict()
            parameters = {"d": d, "verify": "--verify" in args, "tol": VERIFY_TOL}
            return result_fields("mub", parameters, payload, "construction")
        if command == "bound" and "--d" in args:
            bound = fc.bounds.zeta_spectral(fc.bounds.mub_pair_ensemble(61, "z", 0, 0, 0))
            payload = {"zeta": bound.zeta, "closed_form": fc.bounds.mub_pair_bound(61),
                       "gap": bound.gap, "degenerate": bound.degenerate,
                       "maximizer": pairs(bound.maximizer)}
            parameters = {"mode": "mub-pair", "d": 61, "bases": ["z", "0"], "outcomes": [0, 0]}
            return result_fields("bound", parameters, payload, "spectral; closed-form cross-check")
        if command == "bound":
            bound = fc.bounds.zeta_spectral(fc.bounds.pauli_triple_ensemble((0, 0, 0)))
            payload = {"zeta": bound.zeta, "closed_form": fc.qubit.triple_pauli_bound().zeta,
                       "gap": bound.gap, "degenerate": bound.degenerate,
                       "maximizer": pairs(bound.maximizer),
                       "maximizer_bloch": fc.qubit.state_to_bloch(bound.maximizer)}
            parameters = {"mode": "pauli-triple", "outcomes": [0, 0, 0]}
            return result_fields("bound", parameters, payload, "spectral; closed-form cross-check")
        d = int(args[2])
        scan = "--samples" in args
        seed = int(args[-1]) if scan else 0
        parameters = {"d": d, "basis": "random" if scan else "computational", "seed": seed,
                      "samples": CLI_SCAN_SAMPLES if scan else 1, "layout": "paper",
                      "priors": None, "counterfactual_zeta": None, "per_sample": False}
        if scan:
            payload = fc.cycle.scan_bases(d, CLI_SCAN_SAMPLES, seed).as_dict()
            return result_fields("cycle", parameters, payload, "numerical scan")
        payload = fc.cycle.delta_w(fc.cycle.cycle_config(d)).as_dict()
        return result_fields("cycle", parameters, payload, "numerical")

    def corrupt(self, run):
        marker = b'"status": "ok"'
        stdout = run.stdout
        if marker in stdout:
            stdout = stdout.replace(marker, b'"status": "failed"')
        else:  # CSV: drop the last row
            stdout = stdout.rstrip(b"\n").rpartition(b"\n")[0] + b"\n"
        return dataclasses.replace(run, stdout=stdout)


def result_fields(command, parameters, payload, provenance):
    return {"command": command, "parameters": parameters, "payload": payload,
            "provenance": provenance, "status": "ok"}


WORKLOADS = ("scan-d3", "scan-d31", "certify", "cli")


def make_workload(name, fc, seed, root):
    if name == "scan-d3":
        return ScanWorkload(fc, 3, seed)
    if name == "scan-d31":
        return ScanWorkload(fc, 31, seed)
    if name == "certify":
        return CertifyWorkload(fc, seed)
    if name == "cli":
        return CliWorkload(fc, seed, root)
    raise ValueError(f"unknown workload {name!r}")
