"""Command-line front end.

Subcommands: charpoly, rcf, classify-triple, verify, orbit-stats.
Exit codes: 0 success, 1 suite/identity failure, 2 usage or parse errors.
FROBKIT_SEED sets verify's default seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .canonical import elementary_divisor_form, frobenius_form
from .census import orbit_stats
from .errors import AlgorithmDisagreement, ConfigError, FrobkitError, ParseError
from .formats import (
    SCHEMA,
    dumps_canonical,
    elementary_to_json,
    field_from_tag,
    frobenius_to_json,
    matrix_to_json,
    parse_matrix,
    parse_triple,
    poly_to_json,
)
from .matrix import charpoly, charpoly_berkowitz, inverse
from .poly import Poly
from .triples import commutator_range, equivalence_report, moment_vanishing, triple_charpoly
from .rankone import moments
from .verify import SUITE_ORDER, VerifyConfig, render_report, render_timings, run_verify


def _default_seed() -> int:
    raw = os.environ.get("FROBKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobkit",
        description="Exact linear algebra over finite fields: canonical forms, "
        "rank-one charpoly updates, and triple geometry.",
    )
    parser.add_argument("--version", action="version", version=f"frobkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("charpoly", help="characteristic polynomial of a matrix file")
    p_char.add_argument("file", help="matrix in text format")
    p_char.add_argument("--json", action="store_true", help="emit JSON")

    p_rcf = sub.add_parser("rcf", help="rational canonical form of a matrix file")
    p_rcf.add_argument("file", help="matrix in text format")
    p_rcf.add_argument(
        "--elementary", action="store_true",
        help="refine into elementary divisor blocks (odd finite field only)",
    )

    p_cls = sub.add_parser("classify-triple", help="membership report for a triple file")
    p_cls.add_argument("file", help="triple in text format (three matrix blocks)")
    p_cls.add_argument("--rational-lambdas", type=int, default=8)

    p_ver = sub.add_parser("verify", help="run the seeded verification suites")
    p_ver.add_argument("--seed", type=int, default=_default_seed())
    p_ver.add_argument("--trials", type=int, default=100, help="trials per (field, n) cell")
    p_ver.add_argument(
        "--fields", default="3,5,9,25",
        help="comma-separated prime powers (default 3,5,9,25)",
    )
    p_ver.add_argument("--n-max", type=int, default=8)
    p_ver.add_argument("--samples", type=int, default=2000,
                       help="total random triples for the equivalence/commutator suites")
    p_ver.add_argument("--equivariance-samples", type=int, default=1000)
    p_ver.add_argument("--rational-matrices", type=int, default=200)
    p_ver.add_argument("--exhaustive-bound", type=int, default=6561)
    p_ver.add_argument("--suites", default=",".join(SUITE_ORDER))
    p_ver.add_argument("--json", action="store_true", help="emit the JSON report")
    p_ver.add_argument("--mutate", default=None,
                       help="deliberately corrupt a kernel (testing the harness)")
    p_ver.add_argument("--quiet-timings", action="store_true",
                       help="suppress the timing summary on stderr")

    p_orb = sub.add_parser("orbit-stats", help="similarity classes with a fixed charpoly")
    p_orb.add_argument("--field", required=True, help="prime power, e.g. 3 or 9")
    p_orb.add_argument("coeffs", help="comma-separated charpoly coefficients, low to high")
    p_orb.add_argument("--json", action="store_true")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cmd_charpoly(args) -> int:
    m = parse_matrix(_read(args.file))
    h = charpoly(m)
    b = charpoly_berkowitz(m)
    if h != b:
        print(
            f"algorithm disagreement: hessenberg={h.pretty()} berkowitz={b.pretty()}",
            file=sys.stderr,
        )
        raise AlgorithmDisagreement("charpoly algorithms disagree")
    if args.json:
        payload = poly_to_json(h)
        payload["algorithms_agree"] = True
        sys.stdout.write(dumps_canonical(payload))
    else:
        print(h.pretty())
    return 0


def _cmd_rcf(args) -> int:
    m = parse_matrix(_read(args.file))
    if args.elementary:
        ed = elementary_divisor_form(m)
        block = ed.block_matrix()
        g = ed.transform
        payload = elementary_to_json(ed)
    else:
        ff = frobenius_form(m)
        block = ff.block_matrix()
        g = ff.transform
        payload = frobenius_to_json(ff)
    # self-verify the conjugation before printing
    if g @ m @ inverse(g) != block:
        raise AlgorithmDisagreement("canonical form failed self-verification")
    payload["verified"] = True
    sys.stdout.write(dumps_canonical(payload))
    return 0


def _cmd_classify(args) -> int:
    t = parse_triple(_read(args.file))
    F = t.field
    mv = moment_vanishing(t)
    cr = commutator_range(t)
    rep = equivalence_report(t, rational_lambda_bound=args.rational_lambdas)
    full_moments = moments(t.a, t.v, t.phi, 2 * t.n)
    payload = {
        "schema": SCHEMA,
        "kind": "triple-classification",
        "field": str(F.order) if F.is_finite else "Q",
        "n": t.n,
        "moment_vanishing": {
            "vanishes": mv.vanishes,
            "witness_index": mv.witness_index,
        },
        "moments": [F.to_str(x) for x in full_moments],
        "commutator_range": {
            "member": cr.member,
            "witness": matrix_to_json(cr.witness) if cr.member else None,
        },
        "charpoly": triple_charpoly(t).pretty(),
        "equivalence": {
            "all_moments_vanish": rep.all_vanish,
            "charpoly_stable_for_all_lambda": rep.stable_all,
            "charpoly_stable_for_some_lambda": rep.stable_some,
            "consistent": rep.consistent,
        },
    }
    sys.stdout.write(dumps_canonical(payload))
    return 0 if rep.consistent else 1


def _cmd_verify(args) -> int:
    fields = []
    try:
        for part in args.fields.split(","):
            part = part.strip()
            if not part:
                continue
            F = field_from_tag(part)
            if not F.is_finite:
                raise ConfigError("verification fields must be finite")
            fields.append((F.characteristic, getattr(F, "degree", 1)))
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    cfg = VerifyConfig(
        seed=args.seed,
        fields=tuple(fields),
        n_max=args.n_max,
        trials=args.trials,
        equivalence_samples=args.samples,
        equivariance_samples=args.equivariance_samples,
        rational_matrices=args.rational_matrices,
        exhaustive_bound=args.exhaustive_bound,
        suites=suites,
        mutation=args.mutate,
    )
    report = run_verify(cfg)
    sys.stdout.write(render_report(report, as_json=args.json))
    if not args.quiet_timings:
        sys.stderr.write(render_timings(report))
    return 0 if report.all_passed else 1


def _cmd_orbit_stats(args) -> int:
    F = field_from_tag(args.field)
    if not F.is_finite:
        raise ConfigError("orbit statistics need a finite field")
    coeffs = [F.from_str(c.strip()) for c in args.coeffs.split(",")]
    g = Poly(F, coeffs)
    if not g.is_monic:
        raise ParseError("characteristic polynomial must be monic")
    rows = orbit_stats(g)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "kind": "orbit-stats",
            "field": str(F.order),
            "charpoly": g.pretty(),
            "counted": True,
            "classes": [
                {
                    "invariant_factors": [f.pretty() for f in r.invariant_factors],
                    "centralizer_dim": r.centralizer_dim,
                    "orbit_dim": r.orbit_dim,
                    "class_size": r.class_size,
                }
                for r in rows
            ],
        }
        sys.stdout.write(dumps_canonical(payload))
        return 0
    print(f"similarity classes with charpoly {g.pretty()} over GF({F.order})")
    for r in rows:
        chain = ", ".join(f.pretty() for f in r.invariant_factors)
        print(
            f"  [{chain}]  centralizer_dim={r.centralizer_dim} "
            f"orbit_dim={r.orbit_dim} class_size={r.class_size}"
        )
    return 0


_COMMANDS = {
    "charpoly": _cmd_charpoly,
    "rcf": _cmd_rcf,
    "classify-triple": _cmd_classify,
    "verify": _cmd_verify,
    "orbit-stats": _cmd_orbit_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at devnull so that
        # the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except AlgorithmDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FrobkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
