"""Command-line front end: JSON problem files in, reports out.

Exit codes: 0 success (including expected-negative scenario verdicts),
2 input error, 3 numerical failure, 4 verification verdict "not compatible".
Identical inputs produce byte-identical JSON: floats are rounded to 12
significant digits and keys are sorted before serialization.
"""

import argparse
import contextlib
import inspect
import json
import math
import sys

import numpy as np

from . import cover, families, growth, metric, scenarios, stability
from .errors import NonIntegralAction, PreconditionViolated, StabDynError
from .lattice import IntMatrix, spectral_data

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NOT_COMPATIBLE = 4


def _canon(obj):
    """Round floats to 12 significant digits, normalize containers."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return repr(obj)
        return float("%.12g" % obj)
    if isinstance(obj, complex):
        return {"re": _canon(obj.real), "im": _canon(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload, out_path):
    text = json.dumps(_canon(payload), sort_keys=True, separators=(",", ":")) + "\n"
    _emit(text, out_path)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_matrix_file(path):
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("expected a JSON array of arrays of integers")
    return IntMatrix(tuple(tuple(stability.json_int(x, "matrix") for x in row) for row in data))


@contextlib.contextmanager
def _float_range(subject):
    """Overflow in the block is an input error: numpy float errors raise,
    and they or an OverflowError become a ValueError naming the subject."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except (OverflowError, FloatingPointError) as exc:
            raise ValueError("%s overflows float arithmetic: %s" % (subject, exc)) from None


def _parse_triple_file(path, tol):
    data = _load_json(path)
    # charges near the float range overflow in the checks: the input is at fault
    with _float_range("triple data"):
        return _read_triple(data, tol)


def _read_triple(data, tol):
    sigma = stability.stability_from_json(data["sigma"])
    auto = stability.auto_from_json(data["auto"])
    if auto.P.dim != sigma.rank:
        raise ValueError("auto.p is %d x %d, charge rank is %d"
                         % (auto.P.dim, auto.P.dim, sigma.rank))
    gspec = data["g"]
    m = [[stability.json_number(x, "g.m") for x in row] for row in gspec["m"]]
    g = cover.lift_from(m, stability.json_number(gspec["f0"], "g.f0"))
    images = None
    if "images" in data:
        images = tuple(stability.datum_from_json(d, "image", sigma.rank) for d in data["images"])
    triple = stability.verify_triple(auto, sigma, g, tol=tol, images=images)
    seed = None
    if "seed" in data:
        seed = stability.HNObject(
            tuple(stability.datum_from_json(d, "seed", sigma.rank) for d in data["seed"]["factors"]))
    return triple, seed


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectral(args):
    A = _parse_matrix_file(args.input)
    with _float_range("matrix"):
        data = spectral_data(A, tol=args.tol)
    if args.format == "text":
        lines = [
            "dim %d" % A.dim,
            "char_poly %s" % (list(data.char_poly),),
            "rho %.12g" % data.rho,
            "s %d" % data.s,
        ]
        for ev in data.eigenvalues:
            lines.append(
                "eigenvalue %.12g%+.12gi multiplicity %d blocks %s"
                % (ev.value.real, ev.value.imag, ev.multiplicity, list(ev.block_sizes))
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(data.to_json(), args.out)
    return EXIT_OK


def cmd_check_triple(args):
    triple, _ = _parse_triple_file(args.input, args.tol)
    if args.format == "text":
        lines = ["verified %s" % triple.verified, "spanning %s" % triple.spanning]
        if triple.failure is not None:
            lines.append("failure %s: %s" % (triple.failure.kind, triple.failure.detail))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(triple.to_json(), args.out)
    return EXIT_OK if triple.verified else EXIT_NOT_COMPATIBLE


def cmd_growth(args):
    triple, seed = _parse_triple_file(args.input, args.tol)
    if not triple.verified:
        _dump_json({"verified": False, "failure": triple.failure.to_json()}, args.out)
        return EXIT_NOT_COMPATIBLE
    seed = seed or families.seed_object(triple)
    t_grid = args.t_grid
    # a weight near the float range overflows the weighted masses: the input is at fault
    with _float_range("t grid"):
        stream = growth.MassStream(triple, seed, n_max=args.n_max)
        stream.fits(t_grid)  # the whole grid in one batch
        reports = [growth.mass_growth(triple, seed, t=t, stream=stream) for t in t_grid]
    if args.format == "csv":
        if len(t_grid) == 1:
            lines = ["n,value"]
            for n, v in reports[0].samples:
                lines.append("%d,%.12g" % (n, v))
        else:
            lines = ["t,n,value"]
            for t, rep in zip(t_grid, reports):
                for n, v in rep.samples:
                    lines.append("%.12g,%d,%.12g" % (t, n, v))
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "text":
        lines = []
        for t, rep in zip(t_grid, reports):
            lines.append("t %.6g exp_rate %.12g poly_rate %.12g" % (t, rep.exp_rate, rep.poly_rate))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump_json({"t_grid": list(t_grid), "reports": [r.to_json() for r in reports]}, args.out)
    return EXIT_OK


def cmd_translation(args):
    triple, _ = _parse_triple_file(args.input, args.tol)
    if not triple.verified:
        _dump_json({"verified": False, "failure": triple.failure.to_json()}, args.out)
        return EXIT_NOT_COMPATIBLE
    rep = metric.stable_translation_length(triple, n_max=args.n_max)
    if args.format == "csv":
        _emit(metric.csv_rows(rep.samples), args.out)
    elif args.format == "text":
        _emit(
            "estimate %.12g\nclosed_form %.12g\nfekete_min %.12g\n"
            % (rep.estimate, rep.closed_form, rep.fekete_min),
            args.out,
        )
    else:
        _dump_json(rep.to_json(), args.out)
    return EXIT_OK


def cmd_scenario(args):
    kwargs = {k: getattr(args, k) for k in args.flags if getattr(args, k) is not None}
    takes = inspect.signature(scenarios.SCENARIOS[args.name]).parameters
    foreign = [args.flags[k] for k in kwargs if k not in takes]
    if foreign:
        raise ValueError("scenario %s takes no %s" % (args.name, ", ".join(foreign)))
    try:
        rep = scenarios.run_scenario(args.name, **kwargs)
    except (PreconditionViolated, NonIntegralAction) as exc:
        raise ValueError(str(exc)) from None  # the defaults raise neither: a flag is at fault
    if args.format == "text":
        _emit("\n".join(rep.text_lines()) + "\n", args.out)
    elif args.format == "csv":
        lines = ["claim,value,expected,tolerance,passed"]
        for c in rep.claims:
            lines.append(
                '"%s",%.12g,%.12g,%.12g,%s' % (c.claim, c.value, c.expected, c.tolerance, c.passed)
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(rep.to_json(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _parse_t_grid(text):
    try:
        grid = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, got %s" % text) from None
    if not all(map(math.isfinite, grid)):
        raise argparse.ArgumentTypeError("weights must be finite, got %s" % text)
    return grid


def _parse_matrix(text):
    """Integer rows "a,b;c,d" as a tuple of tuples."""
    try:
        return tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    except ValueError:
        raise argparse.ArgumentTypeError('expected integer rows "a,b;c,d", got %s' % text) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line and exit code 2, as every input error."""
        self.exit(EXIT_INPUT, "input error: %s\n" % message)


def build_parser():
    parser = _Parser(
        prog="stabdyn",
        description="invariants of lattice actions on stability data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, needs_input=True, formats=("json", "text", "csv")):
        """--format (the formats the handler writes) and --out, plus the
        named flags the handler reads."""
        if needs_input:
            p.add_argument("input", help="JSON input file")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=1e-9)
        if "n_max" in flags:
            p.add_argument("--n-max", dest="n_max", type=int, default=4096)
        if "t_grid" in flags:
            p.add_argument("--t-grid", dest="t_grid", type=_parse_t_grid,
                           default=growth.DEFAULT_T_GRID)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("spectral", help="exact spectral data of an integer matrix")
    common(p, "tol", formats=("json", "text"))
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("check-triple", help="verify a compatibility triple")
    common(p, "tol", formats=("json", "text"))
    p.set_defaults(func=cmd_check_triple)

    p = sub.add_parser("growth", help="mass growth along the iteration")
    common(p, "tol", "n_max", "t_grid")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("translation", help="stable translation length")
    common(p, "tol", "n_max")
    p.set_defaults(func=cmd_translation)

    p = sub.add_parser("scenario", help="run a named worked example")
    p.add_argument("name", choices=scenarios.SCENARIOS)
    common(p, needs_input=False)
    # each dest is the keyword of the scenario functions; unset: the scenario's own default
    flags = [
        p.add_argument("--n-max", dest="n_max", type=int),
        p.add_argument("--degL", dest="deg_L", type=int),
        p.add_argument("--m", type=int),
        p.add_argument("--lambda", dest="lam", type=float),
        p.add_argument("--d", type=int),
        p.add_argument("--intersection", dest="intersection_number", type=float),
        p.add_argument("--p1", dest="phase1", type=float),
        p.add_argument("--p2", dest="phase2", type=float),
        p.add_argument("--matrix", type=_parse_matrix, help='2x2 integer rows "a,b;c,d"'),
    ]
    p.set_defaults(func=cmd_scenario, flags={a.dest: a.option_strings[0] for a in flags})

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "tol", 1.0) <= 0.0:
            parser.error("tolerance must be positive")
        n_max = getattr(args, "n_max", None)
        if n_max is not None and n_max < 16:
            parser.error("n_max must be at least 16")
        if n_max is not None and n_max >= 2**63:  # power exponents are int64
            parser.error("--n-max must be below 2^63, got %d" % n_max)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except KeyError as exc:
        print("input error: missing key %s" % json.dumps(str(exc.args[0])), file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except StabDynError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
