"""Command-line surface: build/export graphs, print metrics and spectra,
run theorem-verification suites, emit Ramsey certificates, drive sweeps.

Only ``build`` builds a graph: ``stats`` and ``spectrum`` read the family's
certificate record (``certify._metrics``, and ``certify._spectrum``, the
class quotient or the characters over S).

Exit codes: 0 all claims pass or recorded, 1 any claim failed, 2 usage or
IO error.  Stdout carries only the payload (JSON, DIMACS, or JSON lines);
diagnostics go to stderr.

One table per command decides which selectors it reads, the first of them
required, and any other one given is refused: ``graphs.FAMILY_FIELDS`` for
the family commands, ``_SUITES`` for the verify suites, which also holds the
call that makes each suite's certificate.  The parser is built once per
process, on the first ``main`` call.
"""
import argparse
import dataclasses
import functools
import json
import sys

from .certify import (
    SweepConfig,
    _Measured,
    _metrics,
    _spectrum,
    certificate_to_json,
    jsonable,
    ramsey_certificate,
    run_sweep,
    verify_circle_lemma,
    verify_code_graphs,
    verify_degree_formula,
    verify_girth_diameter,
    verify_main_theorem,
    verify_mt1,
)
from .errors import NotTriangleFree
from .graphs import FAMILY_FIELDS, FamilySpec, build_family, export_graph


def _add_selectors(sub):
    sub.add_argument("--family", choices=tuple(FAMILY_FIELDS), required=True)
    sub.add_argument("--q", type=int, help="field size (odd prime)")
    sub.add_argument("--m", type=int, help="dimension for the euclidean family (default 2)")
    sub.add_argument("--a", type=int, help="quadrance / distance parameter")
    sub.add_argument("--sigma", type=int, help="non-square for the half-plane family "
                     "(default: smallest non-square)")
    sub.add_argument("--k", type=int, help="code-family parameter, 2..8")


def _spec_from_args(args) -> FamilySpec:
    reads = FAMILY_FIELDS[args.family]
    _check_selectors(args, ("q", "m", "a", "sigma", "k"), reads, f"{args.family} family")
    return FamilySpec(kind=args.family, **{flag: getattr(args, flag) for flag in reads})


def _print_json(payload) -> None:
    print(json.dumps(jsonable(payload), indent=2))


def _cmd_build(args) -> int:
    graph = build_family(_spec_from_args(args))
    data = export_graph(graph, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {len(data)} bytes to {args.out}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cmd_stats(args) -> int:
    spec = _spec_from_args(args)
    met = _Measured(spec)(_metrics)
    _print_json({"family": spec.to_dict(), **dataclasses.asdict(met)})
    return 0


def _cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    summary = _Measured(spec)(_spectrum)
    _print_json(
        {
            "family": spec.to_dict(),
            "n": summary.n,
            "d": summary.d,
            "method": summary.method,
            "lambda": summary.lam,
            "theta2": summary.theta2,
            "theta_n": summary.theta_n,
            "eigenvalues": [float(v) for v in summary.eigenvalues],
        }
    )
    return 0


# Each verify suite: the selectors it reads, the first of them required (any
# other one given is refused), and the call that makes its certificate.  The
# calls look their verify_* function up when they run.
_SUITES = {
    "circles": (("q",), lambda args: verify_circle_lemma(args.q)),
    "girth-diameter": (
        ("q", "family"), lambda args: verify_girth_diameter(args.q, args.family or "euclidean")
    ),
    "degree": (("q", "m"), lambda args: verify_degree_formula(args.q, 2 if args.m is None else args.m)),
    "main": (("q",), lambda args: verify_main_theorem(args.q)),
    "mt1": (("q",), lambda args: verify_mt1(args.q)),
    "code": (("k",), lambda args: verify_code_graphs(args.k)),
}


def _cmd_verify(args) -> int:
    reads, certificate = _SUITES[args.suite]
    _check_selectors(args, ("family", "q", "m", "k"), reads, f"{args.suite} suite")
    cert = certificate(args)
    print(certificate_to_json(cert))
    return 0 if cert.overall == "pass" else 1


def _cmd_certify_ramsey(args) -> int:
    cert = ramsey_certificate(_spec_from_args(args))
    print(certificate_to_json(cert))
    return 0 if cert.overall == "pass" else 1


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = SweepConfig.from_dict(raw, threads=args.threads, out_dir=args.out_dir)
    result = run_sweep(config)
    _print_json(result)
    bad = [s for s in result["statuses"] if s not in ("pass", "recorded")]
    if bad:
        print(f"{len(bad)} of {result['rows']} rows did not pass", file=sys.stderr)
        return 1
    return 0


def _check_selectors(args, flags, reads, reader: str) -> None:
    """Refuse the first of ``flags`` given on the command line but not in
    ``reads``, then require the first of ``reads``."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag} is not read by the {reader}")
    if getattr(args, reads[0]) is None:
        raise ValueError(f"--{reads[0]} is required for the {reader}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseyforge",
        description="finite-geometry graph families, exact oracles, spectral "
        "bounds, and Ramsey lower-bound certificates",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build a graph and export its edge list")
    _add_selectors(p)
    p.add_argument("--format", choices=("dimacs", "edge-jsonl"), default="dimacs")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("stats", help="print exact metrics as JSON")
    _add_selectors(p)
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("spectrum", help="print the adjacency spectrum as JSON")
    _add_selectors(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.add_argument("--family", choices=("euclidean", "noneuclidean"))
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("certify-ramsey", help="emit an R(3,t) > n certificate")
    _add_selectors(p)
    p.set_defaults(func=_cmd_certify_ramsey)

    p = subs.add_parser("sweep", help="run verifiers over a parameter range")
    p.add_argument("--config", required=True, help="JSON file in the SweepConfig schema")
    p.add_argument(
        "--threads", type=int,
        help="worker process count override (forked; capped at the usable CPUs)",
    )
    p.add_argument("--out-dir", help="output directory override")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotTriangleFree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
