"""Command line frontend: generate, train, predict, eval, sweep, cv.

Exit codes: 0 on success, 1 for data errors (malformed input), 2 for usage
errors (bad flags or numbers in them, bad combinations, unusable paths).
"""
from __future__ import annotations

import argparse
import os
import sys
import zlib
from typing import List, Optional

from . import data as dat
from . import learners, pipeline


def _csv_list(text: str, kind: type = str) -> list:
    try:
        values = [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
        if values:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a comma list of {kind.__name__} values, got {text!r}")


def _csv_ints(text: str) -> List[int]:
    return _csv_list(text, int)


def _csv_floats(text: str) -> List[float]:
    return _csv_list(text, float)


def _input_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    if os.path.isdir(path):  # not isfile: a FIFO or /dev/stdin is readable
        raise argparse.ArgumentTypeError(f"is a directory: {path}")
    return path


def _output_file(path: str) -> str:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent}")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"is a directory: {path}")
    return path


def _output_dir(path: str) -> str:
    """A directory, or a path ``os.makedirs`` can create: its nearest existing ancestor is one."""
    probe = path
    while not os.path.exists(probe):
        probe = os.path.dirname(probe) or "."
    if not os.path.isdir(probe):
        raise argparse.ArgumentTypeError(f"not a directory: {probe}")
    return path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ofs",
        description="Budgeted online feature selection for sparse streams.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset to a directory")
    g.add_argument("--dim", type=int, required=True, help="total dimensionality")
    g.add_argument("--idim", type=int, required=True, help="informative features per example")
    g.add_argument("--ndim", type=int, required=True, help="noise features per example")
    g.add_argument("--train", type=int, required=True, help="training examples")
    g.add_argument("--test", type=int, required=True, help="test examples")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=_output_dir, required=True, help="output directory, created if missing")
    g.add_argument("--gz", action="store_true", help="gzip the data files")
    g.set_defaults(func=_cmd_generate)

    t = sub.add_parser("train", help="train one model on a libsvm file")
    t.add_argument("--algo", choices=learners.ALGOS, required=True)
    budgeted = "/".join(algo for algo in learners.ALGOS if algo in learners.BUDGETED)
    t.add_argument("--B", type=int, default=None, help=f"selection budget ({budgeted})")
    t.add_argument("--gamma", type=float, default=1.0)
    t.add_argument("--eta", type=float, default=0.2)
    t.add_argument("--lambda", dest="lam", type=float, default=0.01)
    t.add_argument("--data", type=_input_file, required=True)
    t.add_argument("--model", type=_output_file, required=True, help="where to write the model")
    t.set_defaults(func=_cmd_train)

    pr = sub.add_parser("predict", help="write one predicted label per line")
    pr.add_argument("--model", type=_input_file, required=True)
    pr.add_argument("--data", type=_input_file, required=True)
    pr.add_argument("--out", type=_output_file, default=None, help="output file (default stdout)")
    pr.set_defaults(func=_cmd_predict)

    e = sub.add_parser("eval", help="accuracy of a saved model on a libsvm file")
    e.add_argument("--model", type=_input_file, required=True)
    e.add_argument("--data", type=_input_file, required=True)
    e.add_argument(
        "--recovery",
        type=_input_file,
        default=None,
        metavar="TRUTH",
        help="also report |selected & truth| / |truth| against a ground-truth index file",
    )
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("sweep", help="benchmark algorithms across budgets and repeats")
    s.add_argument("--algos", type=_csv_list, required=True, help="comma list from: " + ",".join(learners.ALGOS))
    s.add_argument("--B", type=_csv_ints, required=True, help="comma list of budgets")
    s.add_argument("--train", type=_input_file, required=True)
    s.add_argument("--test", type=_input_file, required=True)
    s.add_argument("--repeats", type=int, default=10)
    s.add_argument("--csv", type=_output_file, default=None, help="also write rows to this CSV file")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--gamma", type=float, default=1.0)
    s.add_argument("--eta", type=float, default=0.2)
    s.add_argument("--lambda", dest="lam", type=float, default=0.01)
    s.add_argument("--dim", type=int, default=None, help="dimensionality that sparsity is measured against")
    # accepted and ignored, as the benchmark in perfbench/ still passes it:
    # every sweep writes its row cache to files
    s.add_argument("--max-in-memory", type=int, help=argparse.SUPPRESS)
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("cv", help="pick hyperparameters by k-fold cross validation")
    c.add_argument("--algo", choices=learners.ALGOS, required=True)
    c.add_argument("--B", type=int, default=None)
    c.add_argument("--data", type=_input_file, required=True)
    c.add_argument("--folds", type=int, default=5)
    c.add_argument("--gammas", type=_csv_floats, default="1.0")
    c.add_argument("--etas", type=_csv_floats, default="0.2")
    c.add_argument("--lambdas", type=_csv_floats, default="0.01")
    c.set_defaults(func=_cmd_cv)

    return p


def _require_budget(parser: argparse.ArgumentParser, args) -> None:
    """A budgeted algorithm without B >= 1 is a usage error, found before any input is read."""
    if args.command == "sweep":
        algos, least = args.algos, min(args.B, default=0)
    else:
        algos, least = [getattr(args, "algo", None)], getattr(args, "B", None) or 0
    for algo in algos:
        if algo in learners.BUDGETED and least < 1:
            parser.error(f"--B >= 1 is required for {algo}")


def _cmd_generate(args) -> int:
    spec = dat.SyntheticSpec(
        n_train=args.train,
        n_test=args.test,
        dim=args.dim,
        idim=args.idim,
        ndim=args.ndim,
        seed=args.seed,
    )
    train, test, truth = dat.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    suffix = ".svm.gz" if args.gz else ".svm"
    train_path = os.path.join(args.out, "train" + suffix)
    test_path = os.path.join(args.out, "test" + suffix)
    truth_path = os.path.join(args.out, "informative.txt")
    dat.write_libsvm(train, train_path)
    dat.write_libsvm(test, test_path)
    with open(truth_path, "w", encoding="ascii") as fh:
        fh.write("# 1-based indices of the informative features\n")
        for j in sorted(truth):
            fh.write(f"{j + 1}\n")
    print(f"wrote {train_path} ({spec.n_train} examples)")
    print(f"wrote {test_path} ({spec.n_test} examples)")
    print(f"wrote {truth_path} ({len(truth)} indices)")
    return 0


def _cmd_train(args) -> int:
    learner = learners.make_learner(
        args.algo, budget=args.B, gamma=args.gamma, eta=args.eta, lam=args.lam
    )
    result = pipeline.train_stream(learner, dat.read_libsvm(args.data))
    learners.save_model(learner, args.model)
    rate = result.mistakes / result.examples if result.examples else 0.0
    print(
        f"trained {args.algo} on {result.examples} examples: "
        f"{result.mistakes} mistakes (rate {rate:.4f}), "
        f"{learner.nonzero_count()} nonzero weights, {result.train_seconds:.3f}s"
    )
    print(f"model written to {args.model}")
    return 0


def _cmd_predict(args) -> int:
    model = learners.load_model(args.model)
    lines = [f"{model.predict(ex):+d}" for ex in dat.read_libsvm(args.data)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {len(lines)} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _read_truth(path) -> frozenset:
    """The 0-based indices a truth file lists 1-based, one per line, like
    the data files; blank lines and ``#`` comments are skipped."""
    truth = set()
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                j = int(line)
                if j < 1:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: expected an index >= 1, got {line!r}") from None
            truth.add(j - 1)
    if not truth:
        raise ValueError(f"{path}: no indices found")
    return frozenset(truth)


def _cmd_eval(args) -> int:
    truth = _read_truth(args.recovery) if args.recovery else None
    model = learners.load_model(args.model)
    accuracy = pipeline.evaluate(model, dat.read_libsvm(args.data))
    print(f"accuracy {accuracy:.6f}")
    if truth is not None:
        selected = model.selected_indices()
        hits = len(selected & truth)
        print(f"recovery {hits / len(truth):.6f} ({hits}/{len(truth)})")
    return 0


def _cmd_sweep(args) -> int:
    reports = pipeline.benchmark_sweep(
        args.algos,
        args.B,
        dat.read_libsvm(args.train),
        dat.read_libsvm(args.test),
        args.repeats,
        base_seed=args.seed,
        gamma=args.gamma,
        eta=args.eta,
        lam=args.lam,
        dim=args.dim,
    )
    print(pipeline.format_report_table(reports))
    if args.csv:
        pipeline.write_reports_csv(reports, args.csv)
        print(f"wrote {len(reports)} rows to {args.csv}")
    return 0


def _cmd_cv(args) -> int:
    grid = pipeline.CvGrid(gammas=args.gammas, etas=args.etas, lambdas=args.lambdas, folds=args.folds)
    best, results = pipeline.cross_validate(args.algo, args.B, grid, dat.read_libsvm(args.data))
    for params, acc in results:
        shown = " ".join(f"{k}={v:g}" for k, v in params.items())
        print(f"{shown}: {acc:.6f}")
    shown = " ".join(f"{k}={v:g}" for k, v in best.items())
    print(f"best: {shown}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _require_budget(parser, args)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"ofs: {err}", file=sys.stderr)
        return 2
    # a LibsvmFormatError is a ValueError; a MemoryError is a dimension too large to allocate;
    # EOFError and zlib.error are a truncated or corrupt gzip input
    except (ValueError, OSError, MemoryError, EOFError, zlib.error) as err:
        print(f"ofs: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
