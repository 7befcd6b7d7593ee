"""Command line front end.

Subcommands: synth, extract-lbp, train, eval, serve, query. `train` and
`synth` write a manifest next to their outputs with the fully resolved
configuration and the hashes of the files that run wrote; `train
--from-manifest` replays a train manifest into a byte-identical model.
Every file the CLI writes goes through `binfmt.atomic_file`, and every
file named beside another (a log, a manifest, a report) is that path's
name plus a suffix.

Exit codes: 0 success, 2 usage error, 3 data error, 4 runtime error. A
trained net beyond float32's range is a runtime error, and `train` then
writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import signal
import sys
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

from . import data as data_mod
from .binfmt import atomic_file, atomic_write, encode_str
from .data import (SPLIT_NAMES, DataFormatError, Dataset, SyntheticSpec,
                   ViewSpec, format_attr_file, format_split_file, load_bank,
                   parse_attr_file, parse_split_file, write_bank)
from .evaluate import UndefinedAPError, combination_sweep, report_emit
from .model import (MAX_KINDS, PROFILES, ModelFormatError, load_model,
                    normalize_mask, write_model)
from .protocol import ProtocolError, client_query, serve
from .training import TrainConfig, regime_schedule, run_schedule, write_logs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class UsageError(ValueError):
    pass


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(path, command: str, config: dict, artifacts: dict, **sections):
    """The JSON manifest of a `command` run: its config, any further
    `sections` (train's outputs), the sha256 of each of `artifacts`
    (key -> path) and the time it was written, in that key order."""
    manifest = {"command": command, "config": config, **sections,
                "artifacts": {key: _sha256(p) for key, p in artifacts.items()},
                "created": datetime.now(timezone.utc).isoformat()}
    atomic_write(path, json.dumps(manifest, indent=2).encode() + b"\n")


def _parse_banks(pairs: list[str]) -> dict[str, str]:
    banks = {}
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise UsageError(f"--bank expects name=path, got {pair!r}")
        if name in banks:
            raise UsageError(f"--bank names kind {name!r} twice")
        banks[name] = path
    if not banks:
        raise UsageError("at least one --bank name=path is required")
    return banks


def _load_banks(bank_paths: dict[str, str], kinds, net=None) -> dict[str, data_mod.FeatureBank]:
    """The bank of each of `kinds`, in that order. Each must be supplied
    and store its kind, and given `net`, fit the input of its branch."""
    banks = {}
    for kind in kinds:
        if kind not in bank_paths:
            raise DataFormatError(f"no --bank supplied for kind {kind!r}")
        bank = banks[kind] = load_bank(bank_paths[kind])
        if bank.kind_name != kind:
            raise DataFormatError(f"bank {bank_paths[kind]} stores kind "
                                  f"{bank.kind_name!r}, expected {kind!r}")
        if net is not None and bank.dim != net.kind_by_name(kind).input_dim:
            raise DataFormatError(f"bank {kind!r} has dim {bank.dim}, model branch "
                                  f"expects {net.kind_by_name(kind).input_dim}")
    return banks


def _read_utf8(path, what: str) -> str:
    """The text of `path`; a byte that is not UTF-8 is a data error naming
    the file and the line, numbered as the parsers number lines."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise DataFormatError(f"{what} {path}, line {line}: not UTF-8 "
                              f"({exc.reason} at byte {exc.start})") from None


def load_dataset(attrs_path, split_path, bank_paths: dict[str, str], net=None) -> Dataset:
    """The attribute table with its splits, and the bank of each kind of
    `net`, or without a net, of every kind in `bank_paths`. Given `net`,
    the table must have one attribute per output; that is checked before
    any bank is read."""
    table = parse_attr_file(_read_utf8(attrs_path, "attribute file"))
    if net is not None and table.n_attributes != net.n_outputs:
        raise DataFormatError(f"attribute file {attrs_path} names {table.n_attributes} "
                              f"attributes, the model scores {net.n_outputs}")
    table.splits = parse_split_file(_read_utf8(split_path, "partition file"))
    kinds = bank_paths if net is None else net.kind_names()
    return Dataset(table, _load_banks(bank_paths, kinds, net))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_KEYS = ("regime", "profile", *(f.name for f in dataclasses.fields(TrainConfig)))


def _read_json_object(path, what: str) -> dict:
    """The JSON object in `path`; a file that holds anything else is a
    usage error (a missing file stays a data error)."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UsageError(f"{what} {path} is not JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return obj


def _manifest_config(path) -> dict:
    resolved = _read_json_object(path, "manifest").get("config")
    if not isinstance(resolved, dict):
        raise UsageError(f"manifest {path} has no config object")
    missing = [k for k in _TRAIN_KEYS if k not in resolved]
    if missing:
        raise UsageError(f"manifest {path} config lacks " + ", ".join(missing))
    return resolved


def _flag_config(args) -> dict:
    """Precedence: flags > environment > config file > profile defaults."""
    resolved = dataclasses.asdict(TrainConfig())
    resolved.update({"regime": None, "profile": "desk"})
    if args.config:
        resolved.update(_read_json_object(args.config, "config"))
    seed = os.environ.get("SIGFUSE_SEED")
    if seed:
        try:
            resolved["seed"] = int(seed)
        except ValueError:
            raise UsageError(f"SIGFUSE_SEED: expected an integer, got {seed!r}")
    for key in _TRAIN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    resolved["attrs"] = args.attrs or resolved.get("attrs")
    resolved["split"] = args.split_file or resolved.get("split")
    if args.bank:
        resolved["banks"] = _parse_banks(args.bank)
    return resolved


def _resolve_train_config(args) -> tuple[dict, TrainConfig, list]:
    """A replayed manifest's config, else the one the flags resolve to, with
    its `TrainConfig` and stages; all of it checked before any data is read."""
    resolved = _manifest_config(args.from_manifest) if args.from_manifest else _flag_config(args)
    if not resolved.get("regime"):
        raise UsageError("--regime is required")
    for key in ("attrs", "split", "banks"):
        if not resolved.get(key):
            raise UsageError(f"missing data input: {key}")
    for key in ("regime", "profile", "attrs", "split"):
        if not isinstance(resolved[key], str):
            raise UsageError(f"config {key} must be a string, got {resolved[key]!r}")
    banks = resolved["banks"]
    if not (isinstance(banks, dict) and all(isinstance(p, str) and p for p in banks.values())):
        raise UsageError(f"config banks must map kind names to paths, got {banks!r}")
    if len(banks) > MAX_KINDS:
        raise UsageError(f"config banks names {len(banks)} kinds; a net holds at most "
                         f"{MAX_KINDS}")
    if resolved["profile"] not in PROFILES:
        raise UsageError(f"unknown profile {resolved['profile']!r}")
    try:
        cfg = TrainConfig(**{f.name: resolved[f.name] for f in dataclasses.fields(TrainConfig)})
        # the dataset's kinds are the bank names, in this order
        stages = regime_schedule(resolved["regime"], list(banks))
    except ValueError as exc:
        raise UsageError(str(exc))
    return resolved, cfg, stages


def cmd_train(args) -> int:
    cfg_map, cfg, stages = _resolve_train_config(args)
    dataset = load_dataset(cfg_map["attrs"], cfg_map["split"], cfg_map["banks"])
    # a ValueError while training (a diverged net) is a runtime error; a val
    # split without examples or positives fails first, as a data error
    result = run_schedule(stages, dataset, cfg, PROFILES[cfg_map["profile"]])
    out = Path(args.out)
    log_path = Path(args.log or out.with_name(out.name + ".log.csv"))
    manifest_path = Path(args.manifest or out.with_name(out.name + ".manifest.json"))
    with atomic_file(out) as fh:
        write_model(fh, result.net)
    write_logs(result.logs, log_path)
    _write_manifest(manifest_path, "train", cfg_map,
                    {"model_sha256": out, "log_sha256": log_path},
                    outputs={"model": str(out), "log": str(log_path)})
    print(f"wrote {out}, {log_path}, {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    banks = _parse_banks(args.bank)
    net = load_model(args.model)
    dataset = load_dataset(args.attrs, args.split_file, banks, net)
    report = combination_sweep(net, dataset, args.split)
    prefix = Path(args.out_prefix)
    for suffix, fmt in ((".csv", "csv"), (".md", "markdown")):
        atomic_write(prefix.with_name(prefix.name + suffix), report_emit(report, fmt).encode())
    print(f"evaluated {len(report.masks)} masks; aggregate mean AP "
          f"{report.aggregate_mean:.4f} +/- {report.aggregate_std:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract-lbp
# ---------------------------------------------------------------------------

def cmd_extract_lbp(args) -> int:
    if not args.kind:
        raise UsageError("--kind must be non-empty")
    encode_str(args.kind, "--kind", UsageError)  # the rule for the bank's kind name
    if args.cell_size < 1:
        raise UsageError(f"--cell-size must be positive, got {args.cell_size}")
    image_dir = Path(args.images)
    paths = sorted(image_dir.glob("*.pgm"))
    if not paths:
        raise DataFormatError(f"no .pgm images in {image_dir}")
    bank = None
    for path in paths:
        img = data_mod.read_pgm(path)
        if bank is None:
            shape = img.shape
            if args.cell_size > min(shape):
                raise UsageError(f"--cell-size {args.cell_size} is larger than the "
                                 f"{shape[0]}x{shape[1]} images")
            bank = data_mod.FeatureBank(args.kind, data_mod.lbp_dim(*shape, args.cell_size))
        elif img.shape != shape:
            raise DataFormatError(f"{path.name} is {img.shape}, expected {shape} "
                                  "(all images must share one size)")
        bank.add(path.stem, data_mod.lbp_extract(img, args.cell_size))
    with atomic_file(args.out) as fh:
        write_bank(fh, bank)
    print(f"wrote {args.out}: {len(bank.entries)} images, dim {bank.dim}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_views(specs: list[str]) -> tuple[ViewSpec, ...]:
    views = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"--view expects name:dim:noise, got {spec!r}")
        try:
            views.append(ViewSpec(parts[0], int(parts[1]), float(parts[2])))
        except ValueError:
            raise UsageError(f"--view expects name:dim:noise with an integer dim "
                             f"and a number noise, got {spec!r}")
    return tuple(views)


def cmd_synth(args) -> int:
    views = _parse_views(args.view) if args.view else (
        ViewSpec("fv", 24, 0.1), ViewSpec("cnn", 16, 0.2), ViewSpec("lbp", 12, 0.4))
    try:
        spec = SyntheticSpec(latent_dim=args.latent_dim, views=views,
                             n_attributes=args.attributes, n_train=args.train_count,
                             n_val=args.val_count, n_test=args.test_count,
                             seed=args.seed)
        table, banks = data_mod.synth_generate(spec)  # a view beyond float32 is a ValueError
    except ValueError as exc:
        raise UsageError(str(exc))
    out_dir = Path(args.out_dir)
    written = [out_dir / "attrs.txt", out_dir / "partition.txt"]
    atomic_write(written[0], format_attr_file(table).encode())
    atomic_write(written[1], format_split_file(table.splits).encode())
    for name, bank in banks.items():
        written.append(out_dir / f"{name}.fbnk")
        with atomic_file(written[-1]) as fh:
            write_bank(fh, bank)
    _write_manifest(out_dir / "manifest.json", "synth",
                    {"latent_dim": spec.latent_dim, "attributes": spec.n_attributes,
                     "views": [[v.name, v.dim, v.noise] for v in views],
                     "counts": [spec.n_train, spec.n_val, spec.n_test], "seed": spec.seed},
                    {p.name: p for p in sorted(written)})
    print(f"wrote {len(banks)} banks and attribute table to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# serve / query
# ---------------------------------------------------------------------------

def _parse_port(text: str, source: str, lowest: int) -> int:
    """`text` as a TCP port in lowest..65535, else a usage error naming `source`."""
    if not (text.isascii() and text.isdigit() and lowest <= int(text) <= 0xFFFF):
        raise UsageError(f"{source}: expected a port in {lowest}..65535, got {text!r}")
    return int(text)


def cmd_serve(args) -> int:
    model = args.model or os.environ.get("SIGFUSE_MODEL")
    if not model:
        raise UsageError("provide --model or set SIGFUSE_MODEL")
    if args.port is not None:
        port = _parse_port(args.port, "--port", 0)
    else:
        port = _parse_port(os.environ.get("SIGFUSE_PORT") or "0", "SIGFUSE_PORT", 0)
    with serve(model, args.host, port) as server:  # its exit closes the listening socket
        host, bound_port = server.endpoint
        # SIGTERM, which `kill` and service managers send, stops it as SIGINT does
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with suppress(KeyboardInterrupt):
                print(f"serving {model} on {host}:{bound_port}", flush=True)
                server.serve_forever()
        finally:
            signal.signal(signal.SIGTERM, previous)
    return EXIT_OK


def cmd_query(args) -> int:
    host, _, port = args.endpoint.rpartition(":")
    if not host:
        raise UsageError(f"--endpoint expects host:port, got {args.endpoint!r}")
    port = _parse_port(port, "--endpoint", 1)
    bank_paths = _parse_banks(args.bank)
    net = load_model(args.model)
    try:
        mask = normalize_mask([k.strip() for k in args.mask.split(",") if k.strip()], net)
    except ValueError as exc:
        raise UsageError(f"--mask: {exc}")
    features = {}
    for kind, bank in _load_banks(bank_paths, mask, net).items():
        if args.id not in bank.entries:
            raise DataFormatError(f"image {args.id!r} not in bank {kind!r}")
        features[kind] = bank.entries[args.id]
    label = "".join(k.name[0].upper() if k.name in mask else "x" for k in net.kinds)
    print(f"querying {args.endpoint} with mask {label}", file=sys.stderr)
    scores = client_query(features, mask, net, (host, port))
    for name, score in zip(range(len(scores)), scores):
        print(f"attr_{name:02d} {score:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sigfuse",
                                     description="multi-feature fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model under one regime")
    p.add_argument("--regime", help="dedicated:<kind> | allfeat | moddrop | "
                                    "multistage:<seed-kind> | allfeatinit")
    p.add_argument("--attrs", help="attribute list file")
    p.add_argument("--split-file", help="partition file (id 0|1|2 per line)")
    p.add_argument("--bank", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--from-manifest", help="replay a previous run's manifest")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--log", help="epoch log CSV path")
    p.add_argument("--manifest", help="manifest output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the feature-combination sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--split-file", required=True)
    p.add_argument("--bank", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract-lbp", help="extract LBP descriptors from PGM images")
    p.add_argument("--images", required=True, help="directory of .pgm files")
    p.add_argument("--cell-size", type=int, default=20)
    p.add_argument("--kind", default="lbp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_lbp)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--view", action="append", metavar="NAME:DIM:NOISE")
    p.add_argument("--attributes", type=int, default=8)
    p.add_argument("--train-count", type=int, default=8000)
    p.add_argument("--val-count", type=int, default=1000)
    p.add_argument("--test-count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("serve", help="serve attribute scores for signatures")
    p.add_argument("--model", help="model file (or SIGFUSE_MODEL)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", help="port, 0 for any free one (or SIGFUSE_PORT)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="send one signature to a server")
    p.add_argument("--model", required=True, help="model file for branch params")
    p.add_argument("--endpoint", required=True, help="host:port")
    p.add_argument("--mask", required=True, help="comma-separated kind names")
    p.add_argument("--bank", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--id", required=True, help="image id to look up in the banks")
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ModelFormatError, UndefinedAPError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # any other fault is a runtime error, never a traceback
        print(f"error: {type(exc).__name__}: " + " ".join(str(exc).splitlines()),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
