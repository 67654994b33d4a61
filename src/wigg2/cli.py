"""Command-line front end.

Subcommands: fig1, g2, pn, count, homodyne, sweep, estimate-loss.

Outputs are CSV (with '#'-prefixed manifest comment headers, 12
significant digits, LF endings) or JSON; a run manifest with output
checksums is written beside each file output.  A manifest's params are
the subcommand's options as parsed, with the state they built in place
of the state flags, so identical manifests reproduce identical bytes.

Exit codes: 0 success, 2 usage (a file that cannot be opened included),
3 domain/guard error (a state file that is not a state included),
4 statistical instability.

The parser is built once per process, on the first `main` or
`build_parser` call: parsing never mutates it, so every later `main`
reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .counting import (CountingConfig, g2_estimate_clicks, simulate_hbt)
from .errors import DomainError, StatisticalError, check_seed
from .fock import photon_number_distribution
from .loss import infer_loss
from .moments import fig1_table, g2_gaussian, weyl_moments_analytic
from .states import (GaussianState, attenuate, coherent, squeezed_vacuum,
                     thermal)
from .tomography import (DEFAULT_ANGLES, SweepRow, estimate_covariance,
                         g2_from_reconstruction, hwp_sweep, simulate_homodyne)

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_STATISTICAL = 4

# namespace entries that are not inputs of the run: the manifest leaves
# them out (--out is the file the manifest is written beside)
_BOOKKEEPING = ("command", "func", "subparser", "config", "out")
# the flags of _add_state_flags, which the manifest records as the state
# they built; the last one modifies the chosen state
_STATE_FLAGS = ("coherent", "thermal", "squeezed", "file", "attenuate")


_NUMBER = "{:.12g}"     # every number a CSV holds: 12 significant digits


class _Usage(Exception):
    pass


def _fmt(v: float) -> str:
    return _NUMBER.format(v)


def _open(path: str, mode: str = "r", **kwargs):
    """open(path, mode); a file that cannot be opened is a usage error."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise _Usage(f"cannot open {path}: {exc.strerror or exc}") from exc


def _read_text(path: str) -> str:
    """The text of an input file; one that is not text is a domain error."""
    with _open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not text: {exc}") from exc


def _write_text(path: str, text: str):
    with _open(path, "w", newline="\n") as fh:
        fh.write(text)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _emit(args, params: dict, text: str):
    """Write `text` to --out with its manifest beside it, or to stdout."""
    if not args.out:
        sys.stdout.write(text)
        return
    _write_text(args.out, text)
    manifest = {
        "subcommand": args.command,
        "params": params,
        "version": __version__,
        "outputs": {args.out: _sha256(text)},
    }
    _write_text(args.out + ".manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, params: dict, columns, rows, notes: str = ""):
    """Emit a CSV: the manifest comment, the '#' lines of `notes`, the
    column line, then each row's values formatted as _fmt does."""
    items = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    lines = [f"# wigg2 {__version__} {args.command}: {items}\n", notes,
             ",".join(columns) + "\n"]
    row = ",".join([_NUMBER] * len(columns)) + "\n"
    lines += [row.format(*values) for values in rows]
    _emit(args, params, "".join(lines))


def _params(args, state: GaussianState | None = None) -> dict:
    """The manifest's params: every option of the subcommand as parsed,
    config values included, but the state flags replaced by the state
    they built."""
    recorded = {k: v for k, v in vars(args).items()
                if k not in _BOOKKEEPING + _STATE_FLAGS}
    if state is not None:
        recorded["state"] = state.to_dict()
    return recorded


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' comments and blank lines ignored."""
    out = {}
    for line in _read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line not key=value: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _config_value(action: argparse.Action, key: str, text: str):
    """Convert one config value with the option's own argparse type; an
    option of nargs N takes N whitespace-separated values."""
    convert = action.type or str
    try:
        if action.nargs == 0:               # store_true flags
            if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise ValueError("expected 1/true/yes or 0/false/no")
            return text.lower() in ("1", "true", "yes")
        if action.nargs is None:
            return convert(text)
        tokens = text.split()
        if len(tokens) != action.nargs:
            raise ValueError(f"expected {action.nargs} values, got "
                             f"{len(tokens)}")
        return [convert(tok) for tok in tokens]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config value {key}={text!r}: {exc}") from exc


def _apply_config(args: argparse.Namespace, argv: list) -> argparse.Namespace:
    """Config supplies defaults, every flag given on the command line wins.

    The subcommand's arguments are parsed again into a namespace that
    already holds the config values; argparse fills in a default only
    where the namespace has no value, so a config value replaces the
    default but never a flag.  A state flag on the command line replaces
    the config's state flag, whichever it is.  A key that names no option
    of the subcommand raises DomainError."""
    if not getattr(args, "config", None):
        return args
    parser = args.subparser
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    states = _STATE_FLAGS[:-1]
    state_given = any(getattr(args, k, None) is not None for k in states)
    preset = argparse.Namespace(command=args.command)
    for k, v in _load_config(args.config).items():
        if k not in options:
            raise DomainError(f"config key {k!r} is not an option of "
                              f"'{args.command}'")
        if not (state_given and k in states):
            setattr(preset, k, _config_value(options[k], k, v))
    rest = argv[argv.index(args.command) + 1:]
    return parser.parse_args(rest, namespace=preset)


# ---------------------------------------------------------------------------
# flags shared between subcommands


def _add_state_flags(p: argparse.ArgumentParser):
    """Gaussian-state options shared by g2 / pn / count / homodyne."""
    p.add_argument("--coherent", nargs=2, type=float, metavar=("X0", "P0"))
    p.add_argument("--thermal", type=float, metavar="NBAR")
    p.add_argument("--squeezed", nargs=2, type=float, metavar=("S", "ANGLE_RAD"))
    p.add_argument("--file", type=str, metavar="STATE_JSON")
    p.add_argument("--attenuate", type=float, metavar="ETA")


def _add_counting_flags(p: argparse.ArgumentParser):
    """HBT counting options shared by count / sweep."""
    p.add_argument("--windows", type=int, default=1_000_000)
    p.add_argument("--eta-det", type=float, default=1.0)
    p.add_argument("--dark-prob", type=float, default=0.0)
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def _state_from_args(args) -> GaussianState:
    chosen = [name for name in _STATE_FLAGS[:-1]
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise _Usage("exactly one of --coherent/--thermal/--squeezed/--file required")
    if args.coherent is not None:
        state = coherent(*args.coherent)
    elif args.thermal is not None:
        state = thermal(args.thermal)
    elif args.squeezed is not None:
        state = squeezed_vacuum(*args.squeezed)
    else:
        state = _load_state(args.file)
    if args.attenuate is not None:
        state = attenuate(state, args.attenuate)
    return state


def _load_state(path: str) -> GaussianState:
    """The state in a JSON file of GaussianState.to_dict's form: a file
    that is not JSON, or lacks a 2-number mean or a 3-number cov, raises
    DomainError naming it, and so does a mean or cov that is no state."""
    text = _read_text(path)
    try:
        d = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"state file {path} is not JSON: {exc}") from exc
    if not (isinstance(d, dict) and all(
            isinstance(d.get(key), list) and len(d[key]) == n
            and all(type(v) in (int, float) for v in d[key])
            for key, n in (("mean", 2), ("cov", 3)))):
        raise DomainError(f"state file {path} needs a 2-number 'mean' and a "
                          f"3-number 'cov' [vxx, vxp, vpp]")
    try:
        return GaussianState.from_dict(d)
    except (DomainError, OverflowError) as exc:     # an int beyond floats
        raise DomainError(f"state file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_fig1(args):
    if not (0.0 < args.n_min < args.n_max) or args.points < 2:
        raise _Usage("need 0 < n_min < n_max and points >= 2")
    grid = np.logspace(math.log10(args.n_min), math.log10(args.n_max), args.points)
    _emit_csv(args, _params(args),
              ("n", "g2_coherent", "g2_thermal", "g2_squeezed"), fig1_table(grid))
    return 0


def cmd_g2(args):
    state = _state_from_args(args)
    m = weyl_moments_analytic(state)
    g = g2_gaussian(state, epsilon=args.epsilon)
    print(json.dumps({
        "g2": g.value,
        "mean_photon": g.mean_photon,
        "moments": {"nw": m.nw, "nw2": m.nw2},
    }, indent=2))
    return 0


def cmd_pn(args):
    state = _state_from_args(args)
    dist = photon_number_distribution(state, args.n_max, tol=args.tol)
    _emit_csv(args, _params(args, state), ("n", "p"), enumerate(dist.probs),
              notes=f"# tail_mass={_fmt(dist.tail_mass)}\n")
    return 0


def _counting_config(args) -> CountingConfig:
    return CountingConfig(
        n_windows=args.windows, eta_det=args.eta_det, dark_prob=args.dark_prob,
        split=args.split, seed=args.seed,
    )


def cmd_count(args):
    state = _state_from_args(args)
    rec = simulate_hbt(state, _counting_config(args))
    value, err = g2_estimate_clicks(rec)
    _emit_csv(args, _params(args, state),
              ("theta_deg", "g2_direct", "g2_direct_err", "n1", "n2", "nc",
               "n_windows"),
              [(args.theta_deg, value, err, rec.n1, rec.n2, rec.nc,
                rec.n_windows)])
    return 0


def _parse_angles_deg(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _Usage(f"malformed angle list {spec!r}") from exc


def cmd_homodyne(args):
    state = _state_from_args(args)
    check_seed(args.seed, "homodyne")
    if args.reconstruct and not args.out:
        raise _Usage("--reconstruct prints JSON on stdout: give the samples --out FILE")
    if args.angles is None:
        angles = list(DEFAULT_ANGLES)
    else:
        angles = [math.radians(a) for a in _parse_angles_deg(args.angles)]
        if not angles:
            raise _Usage("empty angle list")
    data = simulate_homodyne(state, angles, args.per_angle, args.eta_hd, args.seed)
    _emit_csv(args, _params(args, state), ("theta_rad", "x"),
              ((theta, x) for theta, samples in zip(data.angles.tolist(),
                                                    data.samples)
               for x in samples.tolist()))
    if args.reconstruct:
        rec = estimate_covariance(data, boot_seed=args.seed)
        g = g2_from_reconstruction(rec, epsilon=args.epsilon)
        print(json.dumps({
            "cov_raw": {"vxx": rec.raw_cov[0], "vpp": rec.raw_cov[1],
                        "vxp": rec.raw_cov[2]},
            "cov": rec.state.to_dict()["cov"],
            "mean": rec.state.to_dict()["mean"],
            "g2": g.value, "g2_ci": [g.ci_low, g.ci_high],
            "bootstrap_guarded": g.n_guarded,
        }, indent=2))
    return 0


def cmd_sweep(args):
    thetas = _parse_angles_deg(args.thetas)
    if not thetas:
        raise _Usage("empty angle list")
    rows = hwp_sweep(args.r, thetas, _counting_config(args),
                     per_angle=args.per_angle, eta_hd=args.eta_hd, seed=args.seed)
    _emit_csv(args, _params(args), [f.name for f in dataclasses.fields(SweepRow)],
              map(dataclasses.astuple, rows))
    return 0


def _sweep_bias_warnings(fields, g2):
    """A warning when a sweep row's g2_direct is more than 3 standard
    errors from its g2_analytic: the click estimator is biased (threshold
    detectors saturate), so the inferred eta is too.  Nothing when either
    column is missing or not a number."""
    try:
        analytic = float(fields["g2_analytic"])
        err = float(fields["g2_direct_err"])
    except (KeyError, ValueError):
        return []
    if not abs(g2 - analytic) > 3.0 * err:
        return []
    return [f"g2_direct {g2:.4g} +- {err:.2g} is more than 3 standard errors "
            f"from g2_analytic {analytic:.4g}: the click estimate is biased "
            f"at this row, and so is eta"]


def cmd_estimate_loss(args):
    if args.from_sweep:
        if args.g2 is not None or args.vx is not None:
            raise _Usage("--from-sweep conflicts with --g2/--vx")
        table = [line.split(",")
                 for line in _read_text(args.from_sweep).split("\n")
                 if line.strip() and not line.startswith("#")]
        header = table[0] if table else []
        rows = table[1:]
        missing = [c for c in ("g2_direct", "vx") if c not in header]
        if missing:
            raise _Usage(f"sweep file has no column {', '.join(missing)}")
        # a negative row would count from the end
        if not 0 <= args.row < len(rows):
            raise _Usage(f"sweep file has no row {args.row}")
        fields = dict(zip(header, rows[args.row]))
        try:
            g2 = float(fields["g2_direct"])
            vx = float(fields["vx"])
        except (KeyError, ValueError):
            raise _Usage(f"sweep file row {args.row} has no numeric g2_direct and vx")
        bias = _sweep_bias_warnings(fields, g2)
    else:
        if args.g2 is None or args.vx is None:
            raise _Usage("need --g2 and --vx (or --from-sweep FILE --row K)")
        g2, vx = args.g2, args.vx
        bias = []
    inf = infer_loss(g2, vx)
    report = {
        "g2": g2, "vx_measured": vx,
        "nw_pure": inf.nw_pure, "vx_pure": inf.vx_pure,
        "eta": inf.eta,
        "warnings": list(inf.warnings) + bias,
    }
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The wigg2 parser, one per process: callers share it, so none may
    change it."""
    parser = argparse.ArgumentParser(
        prog="wigg2",
        description="g2(0) of Gaussian states from Wigner moments, with "
                    "photon-counting and homodyne cross checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=str)
        p.set_defaults(func=func, subparser=p)
        return p

    p = command("fig1", cmd_fig1, "three reference g2 curves vs mean photon number")
    p.add_argument("--n-min", type=float, default=0.01)
    p.add_argument("--n-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", type=str, required=True)

    p = command("g2", cmd_g2, "analytic g2(0) and Weyl moments of a state")
    _add_state_flags(p)
    p.add_argument("--epsilon", type=float, default=1e-9)

    p = command("pn", cmd_pn, "photon-number distribution of a state")
    _add_state_flags(p)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", type=str)

    p = command("count", cmd_count, "Monte-Carlo HBT counting simulation")
    _add_state_flags(p)
    _add_counting_flags(p)
    p.add_argument("--theta-deg", type=float, default=0.0,
                   help="label column echoed into the CSV")
    p.add_argument("--out", type=str)

    p = command("homodyne", cmd_homodyne,
                "simulate homodyne samples, optionally reconstruct")
    _add_state_flags(p)
    p.add_argument("--angles", type=str,
                   help="comma-separated LO angles in degrees (default: 12 uniform)")
    p.add_argument("--per-angle", type=int, default=10_000)
    p.add_argument("--eta-hd", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--reconstruct", action="store_true",
                   help="print the reconstruction's JSON report (needs --out)")
    p.add_argument("--out", type=str)

    p = command("sweep", cmd_sweep, "HWP sweep: analytic vs counting vs homodyne")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--thetas", type=str, default="0,5,10,15,20,22.5,25,30,35,40,45",
                   help="comma-separated HWP angles in degrees")
    _add_counting_flags(p)
    p.add_argument("--per-angle", type=int, default=10_000)
    p.add_argument("--eta-hd", type=float, default=1.0)
    p.add_argument("--out", type=str, required=True)

    p = command("estimate-loss", cmd_estimate_loss,
                "infer transmissivity from g2 + variance")
    p.add_argument("--g2", type=float)
    p.add_argument("--vx", type=float)
    p.add_argument("--from-sweep", type=str, metavar="SWEEP_CSV")
    p.add_argument("--row", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, argv)
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except StatisticalError as exc:
        print(f"statistical error: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL


if __name__ == "__main__":
    sys.exit(main())
