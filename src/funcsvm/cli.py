"""Command-line surface.

Subcommands: train, predict, select, evaluate, synth, inspect.  Exit
statuses: 0 success, 1 usage, 2 data, 3 convergence.  Failures emit one
machine-parsable line on stderr of the form ``FSVM-ERROR code=<name>
msg=<text>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config
from .datasets import load_curves, load_dataset, write_csv
from .errors import (
    ConvergenceError,
    DataError,
    FuncSvmError,
    UsageError,
)
from .evaluation import (
    generate_synthetic,
    run_fixed_split,
    run_leave_one_out,
    run_repeated_splits,
)
from .persistence import atomic_write_bytes, load_model, save_model, write_report
from .selection import select, validate_grid
from .solver import decision_values, train_svm


def _error_code(exc: FuncSvmError) -> str:
    if isinstance(exc, ConvergenceError):
        return "convergence"
    if isinstance(exc, UsageError):
        return "usage"
    return "data"


def _fail(exc: FuncSvmError) -> int:
    msg = str(exc).replace("\n", " ")
    print(f"FSVM-ERROR code={_error_code(exc)} msg={msg}", file=sys.stderr)
    return exc.exit_code


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _dimensions(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _flag(flag: str, text: str, parse):
    """``parse(text)``; a value it cannot parse is a usage error."""
    try:
        return parse(text)
    except ValueError:
        raise UsageError(f"{flag} cannot parse {text!r}") from None


def _common_overrides(args) -> dict:
    overrides = {"seed": args.seed}
    if getattr(args, "c_grid", None):
        overrides["C"] = _flag("--c-grid", args.c_grid, _floats)
    if getattr(args, "sigma_grid", None):
        overrides["sigma"] = _flag("--sigma-grid", args.sigma_grid, _floats)
    if getattr(args, "d_range", None):
        overrides["dimensions"] = _flag("--d-range", args.d_range, _dimensions)
    return overrides


def _load_config_and_data(args):
    cfg = load_config(args.config, overrides=_common_overrides(args))
    if cfg.dataset is None:
        raise UsageError("config has no dataset section")
    data = load_dataset(cfg.dataset)
    return cfg, data


def _select(cfg, data):
    """The config's split-sample search and its report payload."""
    l = cfg.split.get("l")
    if l is None:  # absent or null; 0 goes on to split_sample's check
        l = len(data) // 2
    result = select(
        cfg.grid, data, l, policy=cfg.split.get("policy", "first_l"),
        seed=cfg.seed, tol=cfg.tol,
    )
    payload = {
        "chosen": result.chosen.as_dict(),
        "table": [r.as_row() for r in result.table],
        "split": {"train": result.train_size, "validation": result.validation_size,
                  "warnings": result.split_warnings},
        "grid_warnings": validate_grid(cfg.grid, N=len(data), l=l),
    }
    return result, payload


def cmd_train(args) -> int:
    cfg, data = _load_config_and_data(args)
    if len(cfg.grid) == 0:
        raise UsageError("the candidate grid is empty")
    out = _out_dir(args)
    if len(cfg.grid) == 1:
        cand = cfg.grid.candidates[0]
        model = train_svm(cand.kernel, data, cand.C, tol=cfg.tol,
                          meta={"seed": cfg.seed, "dimension": cand.dimension})
        payload = {
            "mode": "direct",
            "candidate": cand.as_dict(),
            "n_support": model.n_support,
            # trained on the whole sample: no split, so no growth condition
            "grid_warnings": validate_grid(cfg.grid, N=len(data), l=None),
        }
    else:
        result, selected = _select(cfg, data)
        model = result.model
        payload = {"mode": "select", **selected, "n_support": model.n_support}
    save_model(model, out / "model.fsvm")
    write_report(payload, out / "train_report.json")
    print(f"model written to {out / 'model.fsvm'}")
    return 0


def cmd_select(args) -> int:
    cfg, data = _load_config_and_data(args)
    out = _out_dir(args)
    result, payload = _select(cfg, data)
    save_model(result.model, out / "model.fsvm")
    write_report(payload, out / "selection_report.json")
    print(f"selected: d={result.chosen.dimension} "
          f"{result.chosen.kernel.describe()} C={result.chosen.C:g}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    curves = load_curves(args.data, model.grid)
    values = decision_values(model, curves)
    labels = np.where(values >= 0.0, 1, -1)
    lines = [f"{int(y)},{repr(float(v))}" for y, v in zip(labels, values)]
    text = "label,decision\n" + "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(out, text.encode("ascii"))
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    cfg, data = _load_config_and_data(args)
    out = _out_dir(args)
    proto = cfg.protocol
    kind = proto.get("kind")
    if kind == "leave_one_out":
        report = run_leave_one_out(
            data, cfg.grid, inner_l=proto.get("inner_l"), tol=cfg.tol,
        )
    elif kind == "fixed_split":
        report = run_fixed_split(
            data, cfg.grid, train_size=proto["train_size"],
            inner_l=proto["inner_l"], seed=cfg.seed,
            policy=proto.get("policy", "first_l"), tol=cfg.tol,
        )
    elif kind == "repeated_splits":
        report = run_repeated_splits(
            data, cfg.grid, count=proto.get("count", 1),
            train_size=proto["train_size"], inner_l=proto["inner_l"],
            seed=cfg.seed, tol=cfg.tol,
        )
    else:
        raise UsageError(f"unknown protocol kind {kind!r}")
    write_report(report.payload(), out / "evaluation_report.json",
                 meta={"wall_time": report.wall_time})
    print(f"mean error: {report.mean_error:.4f} "
          f"({len(report.per_run_errors)} runs, {report.excluded_runs} excluded)")
    return 0


def cmd_synth(args) -> int:
    data = generate_synthetic(
        n=args.n, noise=args.noise, label_noise=args.label_noise,
        grid_length=args.grid_length,
        frequencies=tuple(_flag("--frequencies", args.frequencies, _floats)),
        seed=args.seed if args.seed is not None else 0,
    )
    write_csv(data, args.out)
    print(f"wrote {len(data)} curves to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.path)
    blob = path.read_bytes()
    if blob[:4] == b"FSVM":
        model = load_model(args.path)
        print(f"model file version {blob[4]}")
        print(f"kernel: {model.kernel.describe()}")
        print(f"grid: {len(model.grid)} points on "
              f"[{model.grid.interval[0]:g}, {model.grid.interval[1]:g}]")
        print(f"support vectors: {model.n_support}")
        print(f"bias: {model.bias!r}")
        for key, value in sorted(model.meta.items()):
            print(f"meta.{key}: {value}")
    else:
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{args.path} is neither a model nor a JSON report: {exc}")
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcsvm",
        description="SVM classification of sampled curves with functional kernels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
            p.add_argument("--c-grid", help="override C grid, comma separated")
            p.add_argument("--sigma-grid", help="override Gaussian sigma grid")
            p.add_argument("--d-range", help="override dimensions: lo:hi or comma list")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("train", help="train a model from a config")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="run the penalized split-sample search")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("predict", help="predict labels for curves")
    add_common(p, config=False)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="CSV of curves")
    p.add_argument("--out", help="output CSV (stdout if omitted)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic sinusoid dataset")
    add_common(p, config=False)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--grid-length", type=int, default=64)
    p.add_argument("--frequencies", default="2,3")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="pretty-print a model or report file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 1
    try:
        # No numpy warning line beside the one error line: explicit checks decide.
        with np.errstate(all="ignore"):
            return args.func(args)
    except FuncSvmError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(DataError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
