"""Command-line surface: reproducible experiments from JSON configs.

Exit codes follow a CI-friendly contract: 0 for pass, 1 for a failed check
or verdict, 2 for usage and configuration errors.  All randomness derives
from the single config-level seed through named substreams, so adding a
command never perturbs another command's draws.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from .constants import compute_ledger, excluded_lambda
from .critical import (
    AssumptionError,
    InternalConsistencyError,
    SolverError,
    construct_critical_point,
    optimal_profile,
    saddle_profile,
    sample_random_params,
    solve_scalar_equation,
    zero_profile,
)
from .network import DimChain, RegParams
from .spectrum import Instance, WeightRangeError
from .training import (
    DivergenceError,
    ModelSpec,
    TrainConfig,
    estimate_linear_rate,
    InsufficientDataError,
    reproduce_section4,
    train,
)
from .util import is_number, named_seed, named_stream
from .verify import (
    COUNTEREXAMPLE_KINDS,
    CenterNotCriticalError,
    RadiusSweepConfig,
    counterexample_family,
    fit_counterexample_scaling,
    verify_error_bound,
    verify_pl_qg,
)

OUTPUT_DIR_ENV = "DEEPLINEAR_OUT"
# The config's blocks: each, when present, is a JSON object.
BLOCKS = ("instance", "sweep", "train", "model")


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _reading():
    """Read config: a ``TypeError`` or ``ValueError`` raised inside (a value of
    the wrong type or range) becomes a ``ConfigError``.  Also a decorator."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(block: dict, allowed: set[str], context: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {context}")
    return block[key]


def _integer(block: dict, key: str, default, context: str, least: int | None = None) -> int:
    """The block's ``key`` (``default`` when absent): an integer, not a bool, and
    at least ``least`` when given; else a config error."""
    value = block.get(key, default)
    if not is_number(value, int) or (least is not None and value < least):
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{context} must be an integer{floor}, got {value!r}")
    return value


def _number(value, context: str) -> float:
    """A JSON number, not a bool, as a float; else a config error."""
    if not is_number(value):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def _numbers(value, context: str) -> tuple:
    """A JSON list of numbers, not bools, as floats; else a config error."""
    if not isinstance(value, list) or not all(is_number(v) for v in value):
        raise ConfigError(f"{context} must be a list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _block(parent: dict, key: str, context: str) -> dict:
    """The parent's ``key`` (``{}`` when absent): a JSON object, else a config error."""
    block = parent.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {block!r}")
    return block


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, {"seed", "output_dir", "depths", *BLOCKS}, "config")
    for key in BLOCKS:
        _block(cfg, key, key)
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {cfg['output_dir']!r}")
    return cfg


def _gaussian_target(tblock: dict, seed: int, stream: str, d_out: int, cols: int) -> np.ndarray:
    """Gaussian (d_out, cols) target: ``stream`` of its seed (else the config's), times its scale."""
    rng = named_stream(_integer(tblock, "seed", seed, "instance.target.seed", least=0), stream)
    target = rng.standard_normal((d_out, cols))
    target *= _number(tblock.get("scale", 1.0), "instance.target.scale")
    return target


@_reading()
def build_instance(cfg: dict, seed: int) -> Instance:
    block = _require(cfg, "instance", "config")
    _check_keys(
        block,
        {"dims", "lambdas", "lambda_uniform", "target"},
        "instance",
    )
    if "lambdas" in block and "lambda_uniform" in block:
        raise ConfigError("give either 'lambdas' or 'lambda_uniform', not both")
    dims = _require(block, "dims", "instance")
    if not isinstance(dims, list):
        raise ConfigError(f"instance.dims must be a list, got {dims!r}")
    dims = DimChain(dims)
    if "lambdas" in block:
        reg = RegParams(_numbers(block["lambdas"], "instance.lambdas"))
    elif "lambda_uniform" in block:
        reg = RegParams.uniform(_number(block["lambda_uniform"], "instance.lambda_uniform"), dims.depth)
    else:
        raise ConfigError("instance needs 'lambdas' or 'lambda_uniform'")

    _require(block, "target", "instance")
    tblock = _block(block, "target", "instance.target")
    _check_keys(tblock, {"kind", "scale", "values", "path", "seed"}, "instance.target")
    kind = _require(tblock, "kind", "instance.target")
    if kind == "gaussian":
        target = _gaussian_target(tblock, seed, "instance", dims.d_out, dims.d_in)
    elif kind == "diagonal":
        values = _numbers(_require(tblock, "values", "instance.target"), "instance.target.values")
        if len(values) > dims.d_min:
            raise ConfigError(
                f"diagonal target has {len(values)} values; "
                f"min(d_out, d_in) = {dims.d_min} allows at most that many"
            )
        target = np.zeros((dims.d_out, dims.d_in))
        for i, v in enumerate(values):
            target[i, i] = v
    elif kind == "file":
        path = Path(_require(tblock, "path", "instance.target"))
        if not path.is_file():
            raise ConfigError(f"target file not found: {path}")
        target = np.load(path) if path.suffix == ".npy" else np.loadtxt(path)
        target = np.atleast_2d(np.asarray(target, dtype=float))
    else:
        raise ConfigError(f"unknown target kind {kind!r}")
    if not np.all(np.isfinite(target)):
        raise ConfigError("target has non-finite entries")
    return Instance(dims, reg, target)


def _output_dir(cfg: dict) -> Path:
    out = os.environ.get(OUTPUT_DIR_ENV) or cfg.get("output_dir", "deeplinear-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(path: Path, text: str) -> None:
    """Write ``text`` over ``path`` in place, then cut the file to its length: on
    ext4, closing a file truncated from non-empty to zero starts its writeback."""
    with open(path, "r+b" if path.exists() else "wb") as f:
        f.write(text.encode())
        f.truncate()


def dump_json(payload: dict, path: Path) -> str:
    """Write ``payload`` as indented, key-sorted JSON and a newline; return that text."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_report(path, text)
    return text


def write_csv(path: Path, columns: tuple[str, ...], rows) -> None:
    """Write the ``columns`` header and one line per row tuple, each value as
    ``str`` (a float's shortest round-trip form)."""
    line = ",".join(["%s"] * len(columns))
    _write_report(path, "\n".join([",".join(columns), *(line % row for row in rows)]) + "\n")


# The columns of the sweep and counterexample CSVs: every sample field but in_regime.
SAMPLE_COLUMNS = ("radius", "dist_lower", "dist_upper", "grad_norm", "F", "ratio")


@_reading()
def _sweep_config(cfg: dict, seed: int) -> tuple[RadiusSweepConfig, str, str]:
    block = cfg.get("sweep", {})
    _check_keys(
        block,
        {"radii", "samples_per_radius", "mode", "center", "target", "seed"},
        "sweep",
    )
    radii = block.get("radii")
    kwargs = {}
    if isinstance(radii, dict):
        _check_keys(radii, {"start", "stop", "num"}, "sweep.radii")
        start, stop, num = (_require(radii, k, "sweep.radii") for k in ("start", "stop", "num"))
        num = _integer(radii, "num", None, "sweep.radii.num", least=1)
        start, stop = _number(start, "sweep.radii.start"), _number(stop, "sweep.radii.stop")
        if not (0 < start < math.inf and 0 < stop < math.inf):
            raise ConfigError(f"sweep.radii start and stop must be finite and positive, got {start}, {stop}")
        radii = tuple(float(r) for r in np.geomspace(start, stop, num))
    elif radii is not None:
        radii = _numbers(radii, "sweep.radii")
    if radii is not None:
        kwargs["radii"] = radii
    if "samples_per_radius" in block:
        kwargs["samples_per_radius"] = block["samples_per_radius"]
    if "mode" in block:
        kwargs["mode"] = str(block["mode"])
    kwargs["seed"] = _integer(block, "seed", named_seed(seed, "sweep"), "sweep.seed", least=0)
    target = str(block.get("target", "F"))
    if target not in ("F", "G"):
        raise ConfigError(f"sweep.target must be 'F' or 'G', got {target!r}")
    return RadiusSweepConfig(**kwargs), str(block.get("center", "optimal")), target


def _profile(inst: Instance, spec: str, context: str):
    """The profile a user names: 'zero', 'optimal', 'saddle' or an index into
    the instance's enumeration; else a config error naming ``context``."""
    named = {"zero": zero_profile, "optimal": optimal_profile, "saddle": saddle_profile}
    if spec in named:
        return named[spec](inst)
    digits = spec.lstrip("0") or "0"  # int() refuses past 4,300 digits: read short ones only
    if spec.isdecimal() and len(digits) < 19 and int(digits) < len(inst.profiles.profiles):
        return inst.profiles.profiles[int(digits)]
    raise ConfigError(
        f"{context} must be 'zero', 'optimal', 'saddle', or a valid profile index; "
        f"got {spec[:32]!r} ({len(spec)} characters)"
    )


def _resolve_center(inst: Instance, spec: str, seed: int, target: str, context: str):
    profile = _profile(inst, spec, context)
    params = sample_random_params(inst, seed=named_seed(seed, "center-params"))
    return construct_critical_point(profile, params, inst, target=target)


def cmd_roots(args) -> int:
    lam, y, L = args.lam, args.y, args.L
    if not (0 <= y < math.inf and 0 < lam < math.inf and L >= 2):
        raise ConfigError(f"need finite --y >= 0 and --lambda > 0, --L >= 2; got {y}, {lam}, {L}")
    roots = solve_scalar_equation(y, lam, L)
    rows = []
    for r, deg, res in zip(roots.roots, roots.degenerate, roots.residuals):
        rows.append({"root": r, "residual": res, "degenerate": deg})
    if args.json:
        print(json.dumps({"y": y, "lambda": lam, "L": L, "roots": rows},
                         indent=2, sort_keys=True))
    else:
        print(f"roots of x^{2 * L - 1} - sqrt({lam})*{y}*x^{L - 1} + {lam}*x = 0, x >= 0")
        print(f"{'root':>22}  {'residual':>12}  degenerate")
        for row in rows:
            print(f"{row['root']:>22.16g}  {row['residual']:>12.3e}  {row['degenerate']}")
    return 0


def _setup(args) -> tuple[dict, int, Instance]:
    """The command's config, its seed and its instance."""
    cfg = load_config(args.config)
    seed = _integer(cfg, "seed", 0, "seed", least=0)
    return cfg, seed, build_instance(cfg, seed)


def cmd_check_assumptions(args) -> int:
    cfg, _, inst = _setup(args)
    report = inst.assumptions
    print(dump_json(vars(report), _output_dir(cfg) / "assumptions.json"), end="")
    return 0 if report.ok else 1


def cmd_constants(args) -> int:
    cfg, _, inst = _setup(args)
    profile = _profile(inst, args.profile, "--profile")
    try:
        ledger = compute_ledger(inst, profile)
    except AssumptionError as exc:
        print(f"constants: refused: {exc}", file=sys.stderr)
        return 1
    out = _output_dir(cfg)
    row = {k: v for k, v in vars(ledger).items() if k != "enumeration_truncated"}
    write_csv(out / "constants.csv", tuple(row), [tuple(row.values())])
    print(dump_json(vars(ledger), out / "constants.json"), end="")
    return 0


def _finish_report(report, out: Path, name: str) -> int:
    samples = map(operator.attrgetter(*SAMPLE_COLUMNS), report.samples)
    write_csv(out / f"{name}.csv", SAMPLE_COLUMNS, samples)
    payload = {**vars(report), "samples": [vars(s) for s in report.samples]}
    dump_json(payload, out / f"{name}.json")
    fitted = ", ".join(
        f"{k}={v:.4g}" for k, v in sorted(report.fitted.items())
        if isinstance(v, (int, float)) and math.isfinite(v)
    )
    tags = f" [{','.join(report.tags)}]" if report.tags else ""
    print(f"{name}: {report.verdict}{tags} ({fitted}) -> {out / (name + '.json')}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    """verify-eb or verify-plqg, by ``args.command``: one radius sweep."""
    cfg, seed, inst = _setup(args)
    sweep, center_spec, target = _sweep_config(cfg, seed)
    point = _resolve_center(inst, center_spec, seed, target, "sweep.center")
    verify = verify_error_bound if args.command == "verify-eb" else verify_pl_qg
    report = verify(point, inst, sweep)
    return _finish_report(report, _output_dir(cfg), args.command)


def cmd_counterexample(args) -> int:
    kind = next(k for k in COUNTEREXAMPLE_KINDS if k.startswith(f"{args.kind}-"))
    depth = COUNTEREXAMPLE_KINDS[kind]
    if not (0 < args.y < math.inf and 0 < args.t < math.inf):
        raise ConfigError(f"need finite --y > 0 and --t > 0; got {args.y}, {args.t}")
    lam = excluded_lambda(args.y, depth)
    if not 0 < lam < math.inf:
        raise ConfigError(f"--y {args.y} puts the excluded weight at {lam}, not a positive finite float")
    if args.fit:
        report = fit_counterexample_scaling(kind, y=args.y)
        return _finish_report(report, _output_dir({}), f"counterexample-{args.kind}")
    family = counterexample_family(kind, y=args.y)
    t = args.t
    try:
        with np.errstate(over="raise", invalid="raise"):
            grads, _, dists = family.measure(np.array([t]))
            grad, predicted, dist = float(grads[0]), family.predicted_grad_norm(t), float(dists[0])
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"--t {t} overflows the family's values: {exc}") from exc
    print(
        f"counterexample {args.kind}: t={t!r} grad_norm={grad!r} "
        f"predicted={predicted!r} dist={dist!r}"
    )
    return 0


def cmd_train(args) -> int:
    cfg, seed, inst = _setup(args)
    with _reading():
        mblock = cfg.get("model", {})
        _check_keys(mblock, {"kind", "activation", "input"}, "model")
        input_matrix, target = None, inst.target
        iblock = _block(mblock, "input", "model.input")
        if iblock:
            _check_keys(iblock, {"kind", "cols", "seed"}, "model.input")
            ikind = _require(iblock, "kind", "model.input")
            if ikind == "uniform":
                cols = _integer(iblock, "cols", inst.dims.d_in, "model.input.cols", least=1)
                rng = named_stream(_integer(iblock, "seed", seed, "model.input.seed", least=0), "input")
                bound = math.sqrt(6.0 / (inst.dims.d_in + cols))
                input_matrix = rng.uniform(-bound, bound, size=(inst.dims.d_in, cols))
                if cols != inst.dims.d_in:  # one target column per sample: redraw Y
                    yblock = cfg["instance"]["target"]
                    if yblock["kind"] != "gaussian":
                        raise ConfigError(f"model.input.cols != d_in needs a gaussian target, got {yblock['kind']!r}")
                    target = _gaussian_target(yblock, seed, "instance-target", inst.dims.d_out, cols)
            elif ikind != "identity":
                raise ConfigError(f"unknown input kind {ikind!r}")
        model = ModelSpec(
            kind=mblock.get("kind", "linear"),
            activation=mblock.get("activation", "identity"),
            input_matrix=input_matrix,
        )

        tblock = cfg.get("train", {})
        _check_keys(
            tblock,
            {"learning_rate", "max_iters", "grad_sq_tol", "fval_change_tol",
             "init", "init_scale", "log_stride", "center"},
            "train",
        )
        kwargs = {k: tblock[k] for k in tblock if k != "center"}
        kwargs.setdefault("seed", named_seed(seed, "init"))
        tcfg = TrainConfig(**kwargs)

    center = None
    if tcfg.init == "near-critical":
        center = _resolve_center(inst, str(tblock.get("center", "optimal")), seed, "F", "train.center").stack

    traj = train(model, target, inst.reg, tcfg, inst.dims, center=center)
    out = _output_dir(cfg)
    rows = zip(range(traj.n_steps), traj.f_values.tolist(), traj.grad_sq.tolist())
    write_csv(out / "trajectory.csv", ("iter", "F", "grad_sq"), rows)
    summary = traj.summary()
    try:
        fit = estimate_linear_rate(traj)
        summary["rate"] = fit.rate
        summary["rate_r_squared"] = fit.r_squared
    except InsufficientDataError:
        summary["rate"] = None
        summary["rate_r_squared"] = None
    dump_json(summary, out / "train-summary.json")
    print(
        f"train: {traj.termination} after {traj.n_steps} steps, "
        f"F={traj.f_values[-1]:.6e} -> {out / 'train-summary.json'}"
    )
    return 0


def cmd_reproduce_s4(args) -> int:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = {}
    seed = _integer(cfg, "seed", 0, "seed", least=0)
    depths = cfg.get("depths", [2, 4, 6])
    if args.depths is not None:
        try:
            depths = [int(d) for d in args.depths.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--depths must be comma-separated integers: {exc}") from exc
    if not (isinstance(depths, list) and depths and all(isinstance(d, int) and d >= 2 for d in depths)):
        raise ConfigError(f"depths must be a non-empty list of integers >= 2; got {depths!r}")
    rows = reproduce_section4(depths=depths, seed=seed)
    out = _output_dir(cfg)
    write_csv(out / "section4.csv", tuple(vars(rows[0])), [tuple(vars(r).values()) for r in rows])
    dump_json({"rows": [vars(r) for r in rows]}, out / "section4.json")
    for r in rows:
        print(
            f"L={r.depth} init={r.init}: F(center)={r.f_center:.6e} "
            f"F(end)={r.f_end:.6e} rate={r.rate:.6f} R2={r.r_squared:.4f} "
            f"({r.termination}, {r.n_steps} steps)"
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    Each ``parse_args`` call fills a fresh namespace from the defaults, so no
    option of one command carries over to the next; callers must not modify
    the parser.
    """
    parser = argparse.ArgumentParser(
        prog="deeplinear",
        description="critical points, error-bound constants, and descent "
        "experiments for regularized deep linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="solve the scalar stationarity equation")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("check-assumptions", help="width and non-degeneracy gate")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_assumptions)

    p = sub.add_parser("constants", help="error-bound constant ledger")
    p.add_argument("config")
    p.add_argument("--profile", default="optimal",
                   help="'zero', 'optimal', 'saddle' or an index into the profile enumeration")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify-eb", help="error-bound radius sweep")
    p.add_argument("config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-plqg", help="gradient-dominance/quadratic-growth sweep")
    p.add_argument("config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", help="degenerate-instance scaling family")
    p.add_argument("--kind", choices=("l2", "lge3"), required=True)
    p.add_argument("--y", type=float, default=2.0)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--fit", action="store_true")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("train", help="gradient descent run")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reproduce-s4", help="near-critical initialization table")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--depths", default=None)
    p.set_defaults(func=cmd_reproduce_s4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WeightRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, SolverError, InternalConsistencyError,
            CenterNotCriticalError) as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
