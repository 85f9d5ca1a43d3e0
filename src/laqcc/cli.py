"""Command-line entry point.

Machine-readable JSON goes to stdout, human-readable summaries to
stderr.  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage error, 3 infeasible parameters or malformed input.
``LAQCC_SEED`` sets the default seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import List, Optional, Tuple

from . import clifford as cl
from . import numbersys as ns
from . import program as pr
from . import protocols as pt
from . import sparse_state as ss
from . import verify

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

BRANCH_CAP = 1 << 14


class Infeasible(Exception):
    pass


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _seed(args) -> int:
    """``--seed``, else ``LAQCC_SEED``, else 0; an integer >= 0."""
    raw = os.environ.get("LAQCC_SEED", "0") if args.seed is None else args.seed
    if not str(raw).isdecimal():
        raise Infeasible(f"seed must be an integer >= 0, got {raw!r}")
    return int(raw)


# ------------------------------------------------------------------- prep


def _within_cap(what: str, size: int) -> None:
    """Refuse ``size`` entries beyond ``MAX_SUPPORT`` before building any:
    ``apply_unitaries``, the one kernel that grows a support, stops there,
    at the gate that would pass it, and builds no tensor past it."""
    if size > ss.MAX_SUPPORT:
        raise Infeasible(f"{what} exceeds the support cap {ss.MAX_SUPPORT}")


def _build_protocol(args) -> Tuple[pr.LaqccProgram, ss.SparseState, Tuple[int, ...], dict]:
    """Program, analytic target, output qubits (msb first), parameters."""
    name = args.protocol
    try:
        if name == "ghz":
            if args.n is None:
                raise Infeasible("ghz requires --n")
            program, target = cl.ghz(args.n), cl.ghz_target(args.n)
            keep = tuple(reversed(program.registers["ghz"].qubits))
            # measured line qubits keep their outcome bits by design
            return program, target, keep, {"n": args.n, "clean": False}
        if name == "w":
            if args.n is None:
                raise Infeasible("w requires --n")
            _within_cap("the w target", args.n)
            program, target = pt.w_state(args.n)
            return program, target, program.registers["out"].qubits, {
                "n": args.n
            }
        if name == "uniform":
            if args.q is None:
                raise Infeasible("uniform requires --q")
            _within_cap("the uniform target", args.q)
            program, target = pt.uniform_superposition(args.q)
            return program, target, program.registers["out"].qubits, {
                "q": args.q
            }
        if name == "dicke":
            if args.n is None or args.k is None:
                raise Infeasible("dicke requires --n and --k")
            # C(n, j) grows with j <= n / 2 and is >= 2^j there, so it is
            # past the cap by the cap's bit length
            j = min(args.k, args.n - args.k, ss.MAX_SUPPORT.bit_length())
            if j >= 0:
                _within_cap("the dicke target", math.comb(args.n, j))
            if args.method == "small-k":
                program, target = pt.dicke_small_k(args.n, args.k)
            else:
                program, target = pt.dicke_factoradic(args.n, args.k)
            return program, target, program.registers["out"].qubits, {
                "n": args.n,
                "k": args.k,
                "method": args.method,
            }
    except ValueError as exc:
        raise Infeasible(str(exc)) from exc
    raise Infeasible(f"unknown protocol {name!r}")


def _collect_branches(program, mode: str, seed: int):
    if mode == "exhaustive":
        try:
            return pr.enumerate_branches(program, BRANCH_CAP), "exhaustive"
        except RuntimeError:
            _note(
                f"warning: branch count exceeds {BRANCH_CAP}; "
                f"downgrading to 100 samples"
            )
            return pr.sample_branches(program, 100, seed=seed), "sample"
    if mode.startswith("sample:"):
        count = mode.split(":", 1)[1]
        if not count.isdecimal() or int(count) < 1:
            raise Infeasible(
                f"sample count must be an integer >= 1, got {count!r}"
            )
        return pr.sample_branches(program, int(count), seed=seed), "sample"
    raise Infeasible(f"unknown branch mode {mode!r}")


def cmd_prep(args) -> int:
    start = time.monotonic()
    seed = _seed(args)
    program, target, keep, params = _build_protocol(args)
    require_clean = params.pop("clean", True)
    try:
        branches, mode = _collect_branches(
            pr.fold_hadamard(program), args.branches, seed)
    except ss.SupportLimitError as exc:
        raise Infeasible(str(exc)) from exc
    fidelity, clean = verify.check_branches(branches, keep, target)
    clean = clean or not require_clean
    profile = pr.resources(program)
    support = max(branch.peak_support for branch in branches)
    report = {
        "protocol": args.protocol,
        "parameters": params,
        "fidelity": fidelity,
        "width": profile.width,
        "charged_width": profile.charged_width,
        "quantum_depth": profile.quantum_depth,
        "rounds": profile.rounds,
        "support_max": support,
        "branches_checked": len(branches),
        "branch_mode": mode,
        "registers_clean": clean,
        "seed": seed,
        "wall_time_ms": round(1000 * (time.monotonic() - start), 3),
    }
    _emit(report)
    ok = fidelity >= 1 - 1e-9 and clean
    _note(
        f"{args.protocol} {params}: fidelity {fidelity:.12f} over "
        f"{len(branches)} branches ({mode}) -> "
        f"{'ok' if ok else 'FAILED'}"
    )
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------- flatten


def cmd_flatten(args) -> int:
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
        circuit = cl.CliffordCircuit.from_json(doc)
        if circuit.shape != args.shape:
            raise Infeasible(
                f"input circuit has shape {circuit.shape!r}, "
                f"subcommand expects {args.shape!r}"
            )
        program = (
            cl.flatten_ladder(circuit)
            if args.shape == "ladder"
            else cl.flatten_grid(circuit)
        )
        # a mask past Python's int-to-str digit limit raises here
        _emit(pr.program_to_json(program))
    except ValueError as exc:
        raise Infeasible(str(exc)) from exc
    profile = pr.resources(program)
    _note(
        f"flattened {args.shape} on {circuit.n} wires: width "
        f"{profile.width}, rounds {profile.rounds}"
    )
    return EXIT_OK


# --------------------------------------------------------------- transform


def cmd_transform(args) -> int:
    seed = _seed(args)
    try:
        with open(args.input) as fh:
            program = pr.program_from_json(json.load(fh))
        if args.kind == "defer":
            out = pr.defer_measurements(program)
            _emit(pr.program_to_json(out))
            _note("measurements deferred to one terminal layer")
        else:
            _, record = pr.execute(program, pr.SeededPolicy(seed))
            out, flag = pr.to_postselected(program, record)
            doc = pr.program_to_json(out)
            doc["postselect_flag"] = flag
            doc["transcript"] = [
                {"label": ev.label, "outcome": ev.outcome}
                for ev in record
            ]
            _emit(doc)
            _note(
                f"postselected against seed-{seed} transcript; "
                f"flag qubit {flag}"
            )
    except ValueError as exc:
        raise Infeasible(str(exc)) from exc
    return EXIT_OK


# ----------------------------------------------------------------- numbers


def _parse_digits(text: str) -> Tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def cmd_numbers(args) -> int:
    try:
        if args.op == "fac2comb":
            digits = _parse_digits(args.digits)
            bits = ns.fac_to_comb(digits, args.k)
            _emit(
                {
                    "digits": list(digits),
                    "k": args.k,
                    "bits": list(bits),
                }
            )
        elif args.op == "comb2fac":
            bits = _parse_digits(args.bits)
            z = _parse_digits(args.z)
            o = _parse_digits(args.o)
            digits = ns.comb_to_fac(bits, z, o)
            _emit(
                {
                    "bits": list(bits),
                    "z": list(z),
                    "o": list(o),
                    "digits": list(digits),
                }
            )
        else:  # check-bijection
            n = args.n
            if n < 0:
                raise Infeasible(f"--n must be >= 0, got {n}")
            # the sweep holds all n! factoradics at once
            _within_cap(f"--n {n} ({n}! factoradics)", math.factorial(n))
            total = 0
            for k in range(n + 1):
                counts = ns.preimage_counts(n, k)
                expected = math.factorial(k) * math.factorial(n - k)
                if counts is None or any(
                    v != expected for v in counts.values()
                ):
                    _emit({"n": n, "k": k, "ok": False})
                    return EXIT_FAILED
                total += len(counts)
            _emit({"n": n, "classes": total, "ok": True})
            _note(
                f"bijection verified over all {math.factorial(n)} "
                f"factoradics of length {n}"
            )
    except ValueError as exc:
        raise Infeasible(str(exc)) from exc
    return EXIT_OK


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    if not args.all:
        raise Infeasible("verify requires --all")
    if args.max_n is not None and args.max_n < 1:
        raise Infeasible(f"--max-n must be >= 1, got {args.max_n}")
    results = verify.run_all(max_n=args.max_n)
    _emit({"results": results, "passed": all(r["passed"] for r in results)})
    for r in results:
        _note(
            f"criterion {r['criterion']:2d} {r['name']}: "
            f"{'pass' if r['passed'] else 'FAIL'} - {r['detail']}"
        )
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_FAILED


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: it
    holds no state between parses."""
    parser = argparse.ArgumentParser(
        prog="laqcc",
        description=(
            "Build, execute, verify, and report on measurement-assisted "
            "state-preparation protocols"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="build and verify a protocol")
    p.add_argument(
        "protocol", choices=["ghz", "w", "uniform", "dicke"]
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument(
        "--method",
        choices=["small-k", "factoradic"],
        default="small-k",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--branches", default="exhaustive")
    p.set_defaults(fn=cmd_prep)

    p = sub.add_parser("flatten", help="flatten a Clifford circuit")
    p.add_argument("shape", choices=["ladder", "grid"])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("transform", help="rewrite a program")
    p.add_argument("kind", choices=["defer", "postselect"])
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("numbers", help="number-system utilities")
    p.add_argument(
        "op", choices=["fac2comb", "comb2fac", "check-bijection"]
    )
    p.add_argument("--digits", default="")
    p.add_argument("--bits", default="")
    p.add_argument("--z", default="")
    p.add_argument("--o", default="")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(fn=cmd_numbers)

    p = sub.add_parser("verify", help="run the acceptance drivers")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Infeasible as exc:
        _note(f"error: {exc}")
        return EXIT_INFEASIBLE
    except FileNotFoundError as exc:
        _note(f"error: {exc}")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
