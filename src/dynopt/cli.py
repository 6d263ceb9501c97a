"""Command line driver: enumerate cases, run experiments, score results.

Verbs:

* ``list``: print every benchmark case id, one per line.
* ``run``: execute an experiment, writing each cell's raw table to ``--out``
  as the cell finishes, then the summary tables.
* ``score``: rewrite the summary tables (``errors_*.csv``, ``scores.csv``)
  from the raw tables in ``--out``.
* ``selftest``: a known-answer run: print the numeric environment and exit
  1 unless the golden grid's results hash to the digest recorded here.

Exit codes are stable for scripting: 0 on success, 1 on a runtime failure,
2 on a usage error. The seed is taken from ``--seed``, else the config
file, else the default 12345.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np

from dynopt.errors import ConfigError, DimensionMismatch
from dynopt.harness import csvio
from dynopt.harness.cases import all_cases
from dynopt.harness.experiment import ExperimentConfig, run_experiment
from dynopt.overrides import parse_config_text

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynopt",
        description="Dynamic optimization benchmark runner.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    verbs.add_parser("list", help="print all benchmark case ids")

    run_parser = verbs.add_parser("run", help="run an experiment, write CSVs")
    run_parser.add_argument("--config", help="key=value experiment config file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, help="base seed")
    run_parser.add_argument(
        "--case", action="append", default=[],
        help="case selector such as F2, F1:T3, F1(50):T7 (repeatable)",
    )
    run_parser.add_argument(
        "--optimizer", action="append", default=[],
        help="optimizer id to include (repeatable)",
    )
    run_parser.add_argument("--jobs", type=int, help="worker processes")
    run_parser.add_argument(
        "--trace", action="store_true",
        help="also write per-run trajectories: the best error at each "
        "ratio-sample point, then the window-close errors",
    )
    run_parser.add_argument(
        "--weights", help="weight table: uniform, official, or a file path"
    )

    score_parser = verbs.add_parser("score", help="rescore the raw tables in --out")
    score_parser.add_argument("--out", required=True, help="results directory")
    score_parser.add_argument(
        "--weights", default="uniform",
        help="weight table: uniform, official, or a file path",
    )

    verbs.add_parser("selftest", help="check the recorded results reproduce here")
    return parser


def _build_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> ExperimentConfig:
    pairs: dict[str, object] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            parser.error(f"config file not found: {args.config}")
        pairs.update(parse_config_text(path.read_text(encoding="utf-8")))
    for key, values in (("cases", args.case), ("optimizers", args.optimizer)):
        if values:
            pairs[key] = ",".join(values)
    for key in ("seed", "jobs", "weights"):
        if getattr(args, key) is not None:
            pairs[key] = getattr(args, key)
    if args.trace:
        pairs["trace"] = True
    return ExperimentConfig.from_pairs(pairs)


def _cmd_list(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for case in all_cases():
        print(case.case_id)
    return 0


def _write_summary(out_dir: Path, weights: dict[str, float]) -> tuple[list, dict, dict]:
    """Write ``errors_*.csv`` and ``scores.csv`` from every raw table in ``out_dir``."""
    result = csvio.read_results(out_dir)
    scores, overall = result.scores(), result.overall(weights)
    tables = csvio.write_errors_tables(out_dir, result)
    csvio.write_scores(out_dir, scores, overall)
    return tables, scores, overall


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        config = _build_config(args, parser)
        cases = config.selected_cases()
        weights = csvio.load_weight_table(config.weights)
    except ConfigError as exc:
        parser.error(str(exc))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # closed on any error, so the pool cancels the runs not yet started
    with contextlib.closing(run_experiment(config)) as cells:
        for cell in cells:
            csvio.write_raw_table(out_dir, cell)
            csvio.write_cell_trajectories(out_dir, cell)
    error_tables, _, overall = _write_summary(out_dir, weights)
    print(f"ran {len(cases)} case(s) x {len(config.optimizers)} optimizer(s) "
          f"x {config.runs} run(s), budget {config.budget()} evaluations each")
    print(f"wrote {len(error_tables)} error table(s), "
          f"{len(cases) * len(config.optimizers)} raw table(s), scores.csv in {out_dir}")
    for optimizer_id, value in overall.items():
        print(f"OVERALL {optimizer_id} {value:.4f}")
    return 0


def _cmd_score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        weights = csvio.load_weight_table(args.weights)
    except ConfigError as exc:
        parser.error(str(exc))

    _, scores, overall = _write_summary(Path(args.out), weights)
    case_order = [c.case_id for c in all_cases()]
    for optimizer_id, per_case in scores.items():
        for case_id in sorted(per_case, key=case_order.index):
            print(f"{case_id} {optimizer_id} {per_case[case_id]:.6f}")
    for optimizer_id, value in overall.items():
        print(f"OVERALL {optimizer_id} {value:.4f}")
    return 0


# -- selftest: one known-answer run ---------------------------------------

# every case x optimizer, one run of three windows.  tests/data/golden_grid.txt
# holds the grid's text and GOLDEN_DIGEST its sha256 (regenerate both together),
# which holds only on GOLDEN_ENVIRONMENT: the kernels set the results' low bits
GRID = ExperimentConfig(runs=1, num_change=3, change_frequency=200, seed=12345)
GOLDEN_DIGEST = "85a86baea70cb300f8cff3e520dcde30b26b70fd10c9092794bb83edc31249b5"
GOLDEN_ENVIRONMENT = {
    "numpy": "2.4.6",
    "dispatch": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas core": "SkylakeX",
}


def grid_text() -> str:
    """One line per grid cell: its before-change errors and ratios as ``repr``."""
    return "".join(
        ",".join([cell.case.case_id, cell.optimizer_id,
                  *map(repr, [*cell.errors[0].tolist(), *cell.r_last[0].tolist()])])
        + "\n"
        for cell in run_experiment(GRID)
    )


def numeric_environment() -> dict[str, str]:
    """The numpy version, its dispatched kernels, the BLAS and its core."""
    import ctypes

    from numpy._core import _multiarray_umath as umath

    dispatch = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    # the OpenBLAS numpy loaded: opening it again returns the same handle
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in libs.glob("libscipy_openblas64_*.so"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            corename = lib.scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return {
        "numpy": np.__version__,
        "dispatch": " ".join(dispatch),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas core": core,
    }


def _cmd_selftest(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    text = grid_text()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    shown = {"current": (numeric_environment(), digest)}
    if digest != GOLDEN_DIGEST:
        shown = {"recorded": (GOLDEN_ENVIRONMENT, GOLDEN_DIGEST), **shown}
    for title, (environment, hexdigest) in shown.items():
        print(f"{title}:")
        for key, value in {**environment, "digest": hexdigest}.items():
            print(f"  {key:<10} {value}")
    if digest == GOLDEN_DIGEST:
        print(f"selftest: ok, the {len(text.splitlines())} golden grid runs reproduce")
        return 0
    print("selftest: FAIL: this environment does not reproduce the golden grid")
    return 1


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "score": _cmd_score,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](args, parser)
    except (ConfigError, DimensionMismatch, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
