"""Command-line surface: curve emission, optimal-angle scans, death-time
reports, and the closed-form verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error,
3 I/O failure. Emitted files carry a machine-parseable '#' header with
every resolved parameter; '--reproducible' drops the timestamp line so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from ._format import parse_header, write_csv, write_json, write_report
from .analytic import (
    Form,
    curve_evaluator,
    optimal_alpha,
    squeezing_curve,
)
from .deathtimes import death_report, default_coarse_step
from .errors import NonFiniteParameter, SqueezeDynError, ValidationError, VerificationFailure
from .kappa import (
    KappaModel,
    LorentzianClosedForm,
    MarkovianExponential,
    Tabulated,
)
from .model import (
    MAX_GRID_NODES,
    MAX_PARTICLES,
    ChannelKind,
    Definition,
    Regime,
    ReservoirConfig,
    TimeGrid,
    reservoir_regime,
    validate_ensemble,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# reservoir defaults, applied in ``_build_model`` so that a flag the
# chosen --kappa model does not read can be told from one left unset
DEFAULT_RATE = 0.005
DEFAULT_GAMMA = 0.01
DEFAULT_ETA0 = 10.0

#: the --kappa model that reads each model flag
_MODEL_OF_FLAG = {
    "rate": "markovian",
    "gamma": "lorentzian",
    "eta0": "lorentzian",
    "kappa_file": "tabulated",
}

#: the curve grid's keys in an ``evolve`` header
_GRID_KEYS = ("t_start", "t_end", "step")


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _emit(path: str, writer) -> None:
    fp, close = _open_output(path)
    try:
        writer(fp)
    finally:
        if close:
            fp.close()


def _emit_table(
    path: str, fmt: str, kind: str, params: dict, columns: list, rows: np.ndarray
) -> None:
    """Write a table as '#'-headed CSV or as one JSON document."""
    writer = write_csv if fmt == "csv" else write_json
    _emit(path, lambda fp: writer(fp, kind, params, columns, rows))


def _timestamp_params(reproducible: bool) -> dict[str, object]:
    if reproducible:
        return {}
    return {"generated": datetime.now(timezone.utc).isoformat()}


def _add_curve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="particle number (>= 2)")
    p.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="twisting angle; defaults to the optimizer result for N",
    )
    p.add_argument(
        "--channel",
        choices=[c.value for c in ChannelKind],
        required=True,
    )
    p.add_argument(
        "--definition",
        choices=[d.value for d in Definition],
        default=Definition.XI.value,
    )
    p.add_argument(
        "--form",
        choices=[f.value for f in Form],
        default=Form.REFERENCE.value,
        help="closed-form family: 'reference' reproduces the classic curves, "
        "'exact' matches the density-matrix computation",
    )
    p.add_argument(
        "--kappa",
        choices=["markovian", "lorentzian", "tabulated"],
        default="markovian",
        help="decoherence-function model",
    )
    p.add_argument("--rate", type=float, help=f"markovian decay rate (default {DEFAULT_RATE})")
    p.add_argument(
        "--gamma", type=float, help=f"reservoir spectral width (default {DEFAULT_GAMMA})"
    )
    p.add_argument(
        "--eta0", type=float, help=f"reservoir coupling strength (default {DEFAULT_ETA0})"
    )
    p.add_argument("--kappa-file", help="kappa CSV for --kappa tabulated")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument(
        "--compare-markovian",
        type=float,
        default=None,
        metavar="RATE",
        help="add a comparison column computed from kappa = exp(-RATE*t)",
    )
    p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
    p.add_argument(
        "--reproducible",
        action="store_true",
        help="omit the timestamp header line",
    )


def _load_tabulated(path: str) -> tuple[Tabulated, str]:
    """The kappa file as a model, and the hex SHA-256 of its bytes."""
    # imported here: loading hashlib's OpenSSL backend adds about 3 ms to
    # the start of every command that reads no kappa file
    import hashlib

    with open(path, "rb") as fp:
        data = fp.read()
    digest = hashlib.sha256(data).hexdigest()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: kappa file is not UTF-8 text: {exc}") from exc
    if b"\r" in data:  # CR or CRLF line ends read as LF
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = io.BytesIO(data)
    # the '#' header, blank lines, then the line naming the columns
    line = b""
    for line in buf:
        if line.rstrip(b"\n") and not line.startswith(b"#"):
            break
    try:  # a number there is a data row: skipping it would drop that row
        float(line.split(b",", 1)[0])
    except ValueError:
        pass
    else:
        raise ValidationError(f"{path}: malformed kappa file: no column-names line")
    header = parse_header(data[: buf.tell()].decode("utf-8"))
    try:
        # one C-level parse of the rows: '#' comments and blank lines are
        # skipped, columns after the second ignored, each cell read as
        # float() reads it
        with warnings.catch_warnings():
            # a body without rows is reported below, not as a warning
            warnings.simplefilter("ignore", UserWarning)
            cells = np.loadtxt(
                buf, delimiter=",", comments="#", usecols=(0, 1), ndmin=2, encoding="utf-8"
            )
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed kappa file: {exc}") from exc
    if len(cells) < 2:
        raise ValidationError(f"{path}: need at least two (t, kappa) data rows")
    ts, vals = np.ascontiguousarray(cells.T)
    try:
        step = float(header.get("step", ts[1] - ts[0]))
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed kappa file: {exc}") from exc
    grid = TimeGrid(t_start=float(ts[0]), t_end=float(ts[-1]), step=step)
    nodes = grid.nodes()
    # the values are read as samples at the grid nodes, so the t column must
    # sit on them; solver-written files hold the nodes exactly
    if ts.shape != nodes.shape or not np.all(np.abs(ts - nodes) <= 1e-6 * step):
        raise ValidationError(
            f"{path}: t column is not the grid t = {grid.t_start!r} + k*{step!r}, "
            f"k = 0..{grid.n_nodes - 1}"
        )
    return Tabulated(grid=grid, values=vals), digest


def _build_model(args: argparse.Namespace) -> tuple[KappaModel, dict[str, object]]:
    """The --kappa model and the header keys that identify it: its label,
    for a kappa file the digest of its bytes, and the model's parameters."""
    for flag, reader in _MODEL_OF_FLAG.items():
        if reader != args.kappa and getattr(args, flag) is not None:
            option = "--" + flag.replace("_", "-")
            raise ValidationError(f"{option} is read only with --kappa {reader}, not {args.kappa}")
    source: dict[str, object] = {}
    if args.kappa == "markovian":
        model = MarkovianExponential(rate=DEFAULT_RATE if args.rate is None else args.rate)
    elif args.kappa == "lorentzian":
        gamma = DEFAULT_GAMMA if args.gamma is None else args.gamma
        eta0 = DEFAULT_ETA0 if args.eta0 is None else args.eta0
        model = LorentzianClosedForm(res=ReservoirConfig(gamma=gamma, eta0=eta0))
    elif not args.kappa_file:
        raise ValidationError("--kappa tabulated requires --kappa-file")
    else:
        # the digest, not the path: a path differs between runs of one input
        model, source["kappa_sha256"] = _load_tabulated(args.kappa_file)
    return model, {"model": model.label(), **source, **model.params()}


def _check_n_cap(n: int, flag: str) -> None:
    if n > MAX_PARTICLES:
        raise ValidationError(
            f"{flag} {n} exceeds {MAX_PARTICLES}: above it the closed forms lose digits"
        )


def _resolve_config(args: argparse.Namespace, delta: float = 0.0) -> float:
    """The validated twisting angle: ``--alpha``, or the optimizer's for N."""
    if args.n < 2:
        raise ValidationError("squeezing is undefined for fewer than 2 particles")
    _check_n_cap(args.n, "--n")
    alpha = args.alpha
    if alpha is None:
        if args.n < 3:
            raise ValidationError("--alpha is required for N = 2 (no optimizer bracket)")
        alpha, _ = optimal_alpha(args.n)
    warns = validate_ensemble(args.n, alpha)
    # evolve's recorded field strength, checked after alpha
    if not math.isfinite(delta):
        raise NonFiniteParameter(f"delta must be finite, got {delta!r}")
    for warning in warns:
        print(f"warning: {warning.value} (alpha = {alpha!r})", file=sys.stderr)
    return alpha


def _cmd_evolve(args: argparse.Namespace) -> int:
    alpha = _resolve_config(args, args.delta)
    model, model_keys = _build_model(args)
    grid = TimeGrid(t_start=args.t_start, t_end=args.t_max, step=args.dt)
    kind = ChannelKind(args.channel)
    definition = Definition(args.definition)
    form = Form(args.form)
    curve = squeezing_curve(
        args.n, alpha, kind, model, grid, definition, form, args.compare_markovian
    )
    params: dict[str, object] = {
        "n": args.n,
        "alpha": alpha,
        "delta": args.delta,
        "channel": kind.value,
        "definition": definition.value,
        "form": form.value,
        # a kappa file's own t_start/t_end/step are written as kappa_t_start,
        # kappa_t_end and kappa_step, beside the curve grid's keys
        **{("kappa_" + k if k in _GRID_KEYS else k): v for k, v in model_keys.items()},
        "t_start": grid.t_start,
        "t_end": grid.t_end,
        "step": grid.step,
    }
    columns = ["t", "kappa", "xi2"]
    data = [grid.nodes(), curve.kappa, curve.values]
    if args.compare_markovian is not None:
        params["compare_markovian"] = args.compare_markovian
        columns.append("xi2_markovian")
        data.append(curve.markov_values)
    params.update(_timestamp_params(args.reproducible))
    params["alpha_auto"] = args.alpha is None
    rows = np.column_stack(data)
    _emit_table(args.output, args.format, "curve", params, columns, rows)
    return EXIT_OK


def _cmd_death_times(args: argparse.Namespace) -> int:
    alpha = _resolve_config(args)
    model, model_keys = _build_model(args)
    definition = Definition(args.definition)
    kind = ChannelKind(args.channel)
    form = Form(args.form)

    d = None
    if isinstance(model, LorentzianClosedForm):
        regime, d_val = reservoir_regime(model.res)
        d = d_val if regime is Regime.STRONG else None
    coarse = args.coarse_step if args.coarse_step is not None else default_coarse_step(d)
    # the comparison rate is checked before the main report's work
    comparison = (
        None if args.compare_markovian is None else MarkovianExponential(args.compare_markovian)
    )

    evaluator = curve_evaluator(args.n, alpha, kind, model, definition, form)
    params: dict[str, object] = {
        "n": args.n,
        "alpha": alpha,
        "channel": kind.value,
        "definition": definition.value,
        "form": form.value,
        **model_keys,
        "alpha_auto": args.alpha is None,
    }
    params.update(_timestamp_params(args.reproducible))
    report = death_report(evaluator, args.t_max, coarse, params=params)

    if comparison is not None:
        comp_eval = curve_evaluator(args.n, alpha, kind, comparison, definition, form)
        report["markovian_comparison"] = death_report(
            comp_eval, args.t_max, coarse, params={"rate": args.compare_markovian}
        )

    _emit(args.output, lambda fp: write_report(fp, report))
    return EXIT_OK


def _cmd_alpha_scan(args: argparse.Namespace) -> int:
    if not (3 <= args.n_min < args.n_max):
        raise ValidationError("need 3 <= n-min < n-max")
    _check_n_cap(args.n_max, "--n-max")
    if not 2 <= args.points <= MAX_GRID_NODES:
        raise ValidationError(f"need 2 <= points <= {MAX_GRID_NODES}")
    ns = np.unique(
        np.round(np.geomspace(args.n_min, args.n_max, args.points)).astype(int)
    )
    results = [optimal_alpha(int(n)) for n in ns]
    xi_mins = np.array([r[1] for r in results])
    slope = float(np.polyfit(np.log(ns.astype(float)), np.log(xi_mins), 1)[0])

    params: dict[str, object] = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "points": args.points,
        "slope_log_xi_vs_log_n": slope,
    }
    params.update(_timestamp_params(args.reproducible))
    rows = np.column_stack((ns.astype(float), [r[0] for r in results], xi_mins))
    _emit_table(args.output, args.format, "alpha-scan", params, ["n", "alpha_star", "xi_min"], rows)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(max_n=args.max_n, tolerance=args.tolerance)
    # the report is written first, so that a path that cannot be written
    # fails before the summary prints its verdict
    if args.output is not None:
        _emit(args.output, lambda fp: write_report(fp, report.to_json()))
    # with the report on stdout, the summary goes to stderr so that stdout
    # stays one JSON document
    summary = sys.stderr if args.output == "-" else sys.stdout
    for line in report.summary_lines():
        print(line, file=summary)
    if not report.all_passed:
        raise VerificationFailure(
            f"worst |oracle - exact| = {report.worst_exact_delta:.3e} "
            f"exceeds {report.tolerance:g}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeeze-dyn",
        description="Spin-squeezing dynamics under per-qubit decoherence",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="emit a squeezing curve")
    _add_curve_arguments(p_evolve)
    # squeezing is invariant under the collective z rotation the field
    # drives, so only the curve records it; death-times does not take it
    p_evolve.add_argument(
        "--delta", type=float, default=0.0, help="external field strength (recorded)"
    )
    p_evolve.add_argument("--t-start", type=float, default=0.0)
    p_evolve.add_argument("--dt", type=float, default=0.05)
    p_evolve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_evolve.set_defaults(func=_cmd_evolve)

    p_death = sub.add_parser("death-times", help="death/revival report (JSON)")
    _add_curve_arguments(p_death)
    p_death.add_argument("--coarse-step", type=float, default=None)
    p_death.set_defaults(func=_cmd_death_times)

    p_scan = sub.add_parser("alpha-scan", help="optimal angle and minimum squeezing vs N")
    p_scan.add_argument("--n-min", type=int, required=True)
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--points", type=int, default=25)
    p_scan.add_argument("--output", "-o", default="-")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--reproducible", action="store_true")
    p_scan.set_defaults(func=_cmd_alpha_scan)

    p_verify = sub.add_parser("verify", help="closed forms vs explicit-state computation")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--tolerance", type=float, default=1e-8)
    p_verify.add_argument("--output", "-o", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call.

    Building one costs about ten parses (each ``add_argument`` makes a
    help formatter), so a process that calls ``main`` many times builds
    it once. Sharing is safe: ``parse_args`` leaves the parser unchanged,
    no default is mutable and ``prog`` does not read ``sys.argv``.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SqueezeDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
