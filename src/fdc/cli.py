"""Command-line front end: gen, transform, decompose, learn, eval.

Outputs are machine-readable JSON with floats serialized at 17 significant
digits (lossless binary64 round-trip).  Randomized verbs require --seed and
are bit-reproducible; identical argv + seed give byte-identical outputs apart
from the ``timestamp`` field.  Exit codes: 0 success, 1 usage error, 2
solver/learning error.
"""

import argparse
import json
import sys
import time

import numpy as np

from .dataset import (
    LabeledDataset,
    PointSet,
    gen_hard_instance,
    load_labeled,
    load_points,
    massart_draw,
    save_labeled_csv,
)
from .errors import FdcError, ParseError
from .harness import general_position_model
from .learner import (
    DatasetOracle,
    LearnerConfig,
    classifier_from_dict,
    classifier_to_dict,
    evaluate_classifier,
    learn_halfspace,
)
from .transform import (
    decomposition_to_dict,
    forster_decompose,
    forster_transform,
    piece_from_dict,
    piece_to_dict,
    source_digest,
    verify_piece,
)


def _fmt_json(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_fmt_json(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_fmt_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return format(float(obj), ".17g")
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(_fmt_json(obj))
        fh.write("\n")


class UsageError(Exception):
    pass


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(args, actions):
    """Fill options still at their defaults from the ``--config`` file.

    ``actions`` are the verb parser's actions; each file value is converted
    by its option's own ``type`` and checked against its ``choices``, and a
    value that does not parse is a UsageError.  Keys naming no option of the
    verb are ignored.
    """
    if not getattr(args, "config", None):
        return args
    by_dest = {a.dest: a for a in actions}
    for key, val in _load_config_file(args.config).items():
        action = by_dest.get(key)
        if action is None or not hasattr(args, key) or getattr(args, key) != action.default:
            continue
        if isinstance(action.default, bool):
            val = val.lower() in ("1", "true", "yes")
        elif action.type is not None:
            try:
                val = action.type(val)
            except (TypeError, ValueError):
                raise UsageError(f"config value {key} = {val!r} does not parse") from None
        if action.choices is not None and val not in action.choices:
            raise UsageError(f"config value {key} = {val!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
        setattr(args, key, val)
    return args


def _require(args, names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _cmd_gen(args):
    _require(args, ["dim", "n", "seed", "out"])
    if args.marginal == "hard":
        _require(args, ["bits", "eta"])
        model, _ = gen_hard_instance(args.dim, args.support, args.bits, args.eta,
                                     args.seed)
    else:
        model = general_position_model(args.dim, args.support, args.eta or 0.0,
                                       args.seed, bits=args.bits or 10)
    draw_seed = args.seed if args.draw_seed is None else args.draw_seed
    data = massart_draw(model, args.n, draw_seed)
    save_labeled_csv(args.out, data)
    print(f"wrote {args.n} labeled examples (dim={args.dim}, "
          f"b={data.base.bit_complexity}) to {args.out}")
    return 0


def _load_input_points(args):
    ds_path = args.input
    if ds_path is None:
        raise UsageError("--input is required")
    return load_points(ds_path, format=args.format)


def _cmd_transform(args):
    _require(args, ["input", "out"])
    pts = _load_input_points(args)
    piece = forster_transform(pts, args.delta)
    report = verify_piece(piece, pts)
    doc = piece_to_dict(piece)
    doc["source_digest"] = source_digest(pts)
    doc["verification"] = {
        "trace": report.trace, "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max, "distance": report.distance,
        "passed": report.passed,
    }
    doc["timestamp"] = time.time()
    dump_json(doc, args.out)
    print(f"piece: dim {piece.subspace.dim}, {len(piece.member_indices)} members, "
          f"spectral distance {report.distance:.3e} (delta {args.delta:g})")
    return 0 if report.passed else 2


def _cmd_decompose(args):
    _require(args, ["input", "out"])
    pts = _load_input_points(args)
    dec = forster_decompose(pts, args.delta)
    doc = decomposition_to_dict(dec)
    doc["timestamp"] = time.time()
    dump_json(doc, args.out)
    sizes = [len(p.member_indices) for p in dec.pieces]
    print(f"decomposed {pts.n} points into {len(dec.pieces)} pieces: {sizes}")
    return 0


def _cmd_learn(args):
    _require(args, ["train_oracle", "eta", "eps", "delta", "seed", "out"])
    data = load_labeled(args.train_oracle, format=args.format)
    config = LearnerConfig(eta=args.eta, eps=args.eps, delta=args.delta,
                           C=args.c_const)
    oracle = DatasetOracle(data, args.seed)
    classifier, telemetry = learn_halfspace(oracle, config, dim=data.base.dim)
    doc = classifier_to_dict(classifier, config=config, telemetry=telemetry)
    doc["timestamp"] = time.time()
    dump_json(doc, args.out)
    print(f"learned classifier with {len(classifier.stages)} stages "
          f"({oracle.count} oracle draws)")
    return 0


def _cmd_eval(args):
    if args.verify_decomposition:
        _require(args, ["input"])
        pts = _load_input_points(args)
        with open(args.verify_decomposition) as fh:
            doc = json.load(fh)
        if doc.get("source_digest") not in (None, source_digest(pts)):
            print("source digest mismatch", file=sys.stderr)
            return 2
        all_members = []
        ok = True
        for i, pdoc in enumerate(doc["pieces"]):
            piece = piece_from_dict(pdoc)
            report = verify_piece(piece, pts)
            all_members.extend(piece.member_indices)
            print(f"piece {i}: dim {piece.subspace.dim}, "
                  f"distance {report.distance:.3e}, "
                  f"{'pass' if report.passed else 'FAIL'}")
            ok &= report.passed
        ok &= sorted(all_members) == list(range(pts.n))
        print("partition: " + ("pass" if sorted(all_members) == list(range(pts.n)) else "FAIL"))
        return 0 if ok else 2
    _require(args, ["model", "test"])
    with open(args.model) as fh:
        doc = json.load(fh)
    classifier = classifier_from_dict(doc)
    test = load_labeled(args.test, format=args.format)
    if any(st.subspace.ambient_dim != test.base.dim for st in classifier.stages):
        raise ParseError(f"model dimension {classifier.stages[0].subspace.ambient_dim} "
                         f"does not match the test file's {test.base.dim}")
    report = evaluate_classifier(classifier, test)
    out = {
        "error_claimed": report.error_claimed,
        "coverage": report.coverage,
        "total_error": report.total_error,
        "n_test": test.n,
    }
    if args.out:
        out["timestamp"] = time.time()
        dump_json(out, args.out)
    print(json.dumps(out))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="fdc", description=__doc__)
    sub = p.add_subparsers(dest="verb")

    def common(sp):
        sp.add_argument("--config", help="key=value defaults file; flags override")
        sp.add_argument("--format", choices=("csv", "json"), default=None)

    g = sub.add_parser("gen", help="generate labeled data")
    common(g)
    g.add_argument("--dim", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--bits", type=int)
    g.add_argument("--eta", type=float)
    g.add_argument("--seed", type=int, help="seed of the halfspace, support and draws")
    g.add_argument("--draw-seed", type=int,
                   help="seed of the draws only (default: --seed); a held-out "
                        "file of the same halfspace takes another")
    g.add_argument("--out")
    g.add_argument("--marginal", choices=("hard", "general"), default="hard")
    g.add_argument("--support", type=int, default=400,
                   help="distinct support directions")

    t = sub.add_parser("transform", help="compute one Forster piece")
    common(t)
    t.add_argument("--input")
    t.add_argument("--delta", type=float, default=1e-3)
    t.add_argument("--out")

    d = sub.add_parser("decompose", help="full Forster decomposition")
    common(d)
    d.add_argument("--input")
    d.add_argument("--delta", type=float, default=1e-3)
    d.add_argument("--out")

    l = sub.add_parser("learn", help="learn a halfspace under Massart noise")
    common(l)
    l.add_argument("--train-oracle", dest="train_oracle")
    l.add_argument("--eta", type=float)
    l.add_argument("--eps", type=float)
    l.add_argument("--delta", type=float)
    l.add_argument("--seed", type=int)
    l.add_argument("--out")
    l.add_argument("--c-const", dest="c_const", type=float, default=64.0)

    e = sub.add_parser("eval", help="evaluate a classifier or verify a decomposition")
    common(e)
    e.add_argument("--model")
    e.add_argument("--test")
    e.add_argument("--out")
    e.add_argument("--verify-decomposition", dest="verify_decomposition")
    e.add_argument("--input", help="point file for --verify-decomposition")

    return p


_COMMANDS = {
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "decompose": _cmd_decompose,
    "learn": _cmd_learn,
    "eval": _cmd_eval,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.verb is None:
        parser.print_help(sys.stderr)
        return 1
    verbs = next(a.choices for a in parser._actions if a.dest == "verb")
    try:
        args = _merge_config(args, verbs[args.verb]._actions)
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
