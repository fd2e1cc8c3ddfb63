"""Command-line front end: JSON problem files in, reports out.

Exit codes: 0 success (including expected-negative scenario verdicts),
2 input error, 3 numerical failure, 4 verification verdict "not compatible".
Identical inputs produce byte-identical JSON: floats are rounded to 12
significant digits and keys are sorted before serialization.
"""

import argparse
import json
import math
import sys

from . import growth, metric, scenarios, stability
from ._fit import linear_schedule
from .errors import StabDynError
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
    return IntMatrix(tuple(tuple(int(x) for x in row) for row in data))


def _parse_triple_file(path, tol):
    data = _load_json(path)
    sigma = stability.stability_from_json(data["sigma"])
    auto = stability.auto_from_json(data["auto"])
    from .cover import lift_from

    gspec = data["g"]
    g = lift_from(gspec["m"], float(gspec["f0"]))
    images = None
    if "images" in data:
        images = tuple(
            stability.SemistableDatum(tuple(d["v"]), float(d["phase"]))
            for d in data["images"]
        )
    triple = stability.verify_triple(auto, sigma, g, tol=tol, images=images)
    seed = None
    if "seed" in data:
        seed = stability.HNObject(
            tuple(
                stability.SemistableDatum(tuple(d["v"]), float(d["phase"]))
                for d in data["seed"]["factors"]
            )
        )
    return triple, seed


def _default_seed(triple):
    ordered = sorted(triple.sigma.semistables, key=lambda d: -d.phase)
    factors = []
    for d in ordered:
        if abs(stability.charge_of(triple.sigma.Z, d.v)) == 0.0:
            continue
        if not factors or d.phase < factors[-1].phase - 1e-9:
            factors.append(d)
        if len(factors) == 3:
            break
    return stability.HNObject(tuple(factors))


def _schedule(kind, n_max):
    if kind == "linear":
        return linear_schedule(n_max)
    return growth.default_schedule(n_max)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectral(args):
    A = _parse_matrix_file(args.input)
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
    seed = seed or _default_seed(triple)
    schedule = _schedule(args.schedule, args.n_max)
    t_grid = args.t_grid
    stream = growth.MassStream(triple, seed, n_max=args.n_max, schedule=schedule)
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


SCENARIO_FLAG_MAP = {
    "curve": {"deg_L": "degL", "m": "m", "n_max": None},
    "coh1": {"lam": "lam", "m": "m", "n_max": None},
    "weak": {"intersection_number": "intersection", "m": "m", "n_max": None},
    "ginzburg": {"phase1": "p1", "phase2": "p2", "d": "d"},
    "pseudo-anosov": {"matrix": "matrix", "n_max": None},
}


def cmd_scenario(args):
    name = args.name
    if name not in scenarios.SCENARIOS:
        print("unknown scenario %r; choices: %s" % (name, sorted(scenarios.SCENARIOS)),
              file=sys.stderr)
        return EXIT_INPUT
    kwargs = {}
    mapping = SCENARIO_FLAG_MAP[name]
    for param, flag in mapping.items():
        if flag is None:
            if param == "n_max" and args.n_max is not None:
                kwargs["n_max"] = args.n_max
            continue
        value = getattr(args, flag, None)
        if value is not None:
            if param == "matrix":
                rows = [r.split(",") for r in value.split(";")]
                value = tuple(tuple(int(x) for x in row) for row in rows)
            kwargs[param] = value
    rep = scenarios.run_scenario(name, **kwargs)
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
    return tuple(float(x) for x in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stabdyn",
        description="invariants of lattice actions on stability data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, needs_input=True):
        """--n-max, --format and --out, plus the named flags the handler reads."""
        if needs_input:
            p.add_argument("input", help="JSON input file")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--n-max", dest="n_max", type=int, default=4096)
        if "schedule" in flags:
            p.add_argument("--schedule", choices=("geom", "linear"), default="geom")
        if "t_grid" in flags:
            p.add_argument("--t-grid", dest="t_grid", type=_parse_t_grid,
                           default=growth.DEFAULT_T_GRID)
        p.add_argument("--format", choices=("json", "text", "csv"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("spectral", help="exact spectral data of an integer matrix")
    common(p, "tol")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("check-triple", help="verify a compatibility triple")
    common(p, "tol")
    p.set_defaults(func=cmd_check_triple)

    p = sub.add_parser("growth", help="mass growth along the iteration")
    common(p, "tol", "schedule", "t_grid")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("translation", help="stable translation length")
    common(p, "tol")
    p.set_defaults(func=cmd_translation)

    p = sub.add_parser("scenario", help="run a named worked example")
    p.add_argument("name")
    common(p, needs_input=False)
    p.add_argument("--degL", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--intersection", type=float, default=None)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--matrix", default=None, help='2x2 integer rows "a,b;c,d"')
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "tol", 1.0) <= 0.0:
        print("input error: tolerance must be positive", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "n_max", 16) < 16:
        print("input error: n_max must be at least 16", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except StabDynError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
