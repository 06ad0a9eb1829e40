"""Command-line interface.

Subcommands: energy, simulate, sweep, requirements, chunking, catalogue.
Every run writes its data files plus one manifest recording the resolved
inputs, atomically, with deterministic byte-stable formatting (floats at 9
significant digits, RFC-4180 CSV with LF line endings).
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .arch import (ModelConfig, builtin_catalogue, compute_breakdown, find_model,
                   hardware_requirements, load_catalogue)
from .energy import (ChunkingScenario, DIGITAL_BASELINES, HardwareProfile, PhotonPolicy,
                     chunked_gpu_energy, chunked_onn_energy, default_policy,
                     default_profile, future_profile, total_energy)
from .optics import NoiseSpec, load_lut
from .txsim import (DigitalBackend, OpticalBackend, deviation, forward, init_weights,
                    make_input, noise_sweep, trace_to_json_dict)

DESK_SCALE_LIMIT = 2 ** 20  # max n*d simulate will materialize without --allow-large

CATALOGUE_ENV = "PHOTONSIM_CATALOGUE"


class CliError(Exception):
    def __init__(self, err_class: str, message: str, code: int = 1):
        super().__init__(message)
        self.err_class = err_class
        self.code = code


def _usage(message: str) -> CliError:
    return CliError("usage", message, code=2)


# --------------------------------------------------------------------------
# Deterministic serialization


def fmt(x: float) -> str:
    return f"{x:.9g}"


_INDENT = "  "


def _block(items: list[str], depth: int, brackets: str) -> str:
    """A JSON array or object at nesting `depth` holding the encoded `items`."""
    pad = "\n" + _INDENT * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + _INDENT * depth + brackets[1]


def _float_rows(rows: list, depth: int) -> list[str] | None:
    """JSON texts of the rows of a matrix of Python floats, or None if `rows`
    is not a list of equal-length lists that hold only Python floats.

    "%.9g" prints what repr(float(fmt(v))) prints, because 9 significant
    digits survive the round trip through a normal double. It prints
    another layout for an integer value (no ".", or "-0") and for exponents
    9 to 15, and fewer digits may survive a subnormal. A row holding a value
    within 1e-8 |v| of an integer (every |v| >= 5e7 is), a subnormal or a
    non-finite value goes float by float through _encode."""
    width = len(rows[0]) if type(rows[0]) is list else 0
    if not width or any(type(row) is not list or len(row) != width for row in rows):
        return None
    if set(map(type, itertools.chain.from_iterable(rows))) != {float}:
        return None
    a = np.abs(np.array(rows))
    with np.errstate(invalid="ignore"):  # inf - inf; nan and inf fail the test
        plain = ((a >= sys.float_info.min) & (np.abs(a - np.rint(a)) > 1e-8 * a)).all(axis=1)
    template = _block(["%.9g"] * width, depth, "[]")  # one % call per row
    return [template % tuple(row) if ok else _encode(row, depth)
            for row, ok in zip(rows, plain.tolist())]


def _encode(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=2), with floats at 9 significant digits and
    non-finite floats as strings. Dict keys must be strings."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return encode_basestring_ascii(str(obj))  # JSON has no literal for nan and inf
        return repr(float(fmt(obj)))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = _float_rows(obj, depth + 1) if type(obj) is list else None
        if items is None:
            items = [_encode(v, depth + 1) for v in obj]
        return _block(items, depth, "[]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(value, depth + 1))
        return _block(items, depth, "{}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _atomic_write(path: str, text: str) -> None:
    # created through the umask like a plain open(); O_EXCL never reuses a stray file
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    _atomic_write(path, _encode(obj) + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def _timestamp() -> str:
    # honors SOURCE_DATE_EPOCH so archived runs can be byte-reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def write_manifest(out_dir: str, command: str, seed: int, resolved: dict,
                   outputs: list[str]) -> str:
    path = os.path.join(out_dir, f"{command}_manifest.json")
    write_json(path, {"command": command, "seed": seed, "resolved": resolved,
                      "outputs": sorted(os.path.basename(p) for p in outputs),
                      "version": __version__, "timestamp": _timestamp()})
    return path


def _emit(args, command: str, resolved: dict, files: dict, written=()) -> list[str]:
    """Write each of `files` whose extension --format selects, then the manifest,
    which also lists the `written` paths. A payload is a JSON document or, for
    a .csv name, a (header, rows) pair."""
    os.makedirs(args.out or ".", exist_ok=True)
    outputs = list(written)
    for name, payload in files.items():
        if args.format not in (name.rsplit(".", 1)[1], "both"):
            continue
        path = os.path.join(args.out, name)
        if name.endswith(".csv"):
            write_csv(path, *payload)
        else:
            write_json(path, payload)
        outputs.append(path)
    outputs.append(write_manifest(args.out, command, args.seed, resolved, outputs))
    return outputs


# --------------------------------------------------------------------------
# Shared resolution


def _get_catalogue() -> tuple[list[ModelConfig], str]:
    env_path = os.environ.get(CATALOGUE_ENV)
    if env_path:
        try:
            return load_catalogue(env_path), env_path
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise CliError("parse", f"catalogue file {env_path}: {exc}")
    return builtin_catalogue(), "builtin"


def _load_config_file(path: str) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return ModelConfig(doc.get("name", os.path.basename(path)),
                           doc["n"], doc["d"], doc["h"], doc["L"])
    except FileNotFoundError as exc:
        raise CliError("io", f"config file {path}: {exc}")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CliError("parse", f"config file {path}: {exc}")


def _resolve_models(args, require_one: bool = False) -> tuple[list[ModelConfig], dict]:
    catalogue, source = _get_catalogue()
    if getattr(args, "all", False):
        return catalogue, {"models": "all", "catalogue": source}
    if args.config:
        config = _load_config_file(args.config)
        return [config], {"models": [config.name], "config_file": args.config}
    if args.model:
        try:
            config = find_model(args.model, catalogue)
        except KeyError as exc:
            raise CliError("unknown_model", str(exc.args[0]))
        return [config], {"models": [config.name], "catalogue": source}
    if require_one:
        raise _usage("provide --model NAME or --config FILE")
    raise _usage("provide --model NAME, --config FILE, or --all")


def _read_json_file(kind: str, path: str, from_json):
    """`from_json` applied to the text of the --profile or --policy file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(fh.read())
    except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise CliError("parse", f"{kind} file {path}: {exc}")


def _pricing_from_args(args, resolved: dict) -> tuple[HardwareProfile, PhotonPolicy]:
    """Hardware profile and photon policy, recorded in `resolved`."""
    profile = (_read_json_file("profile", args.profile, HardwareProfile.from_json)
               if args.profile else default_profile())
    resolved["profile"] = args.profile or "default"
    if getattr(args, "future", False):
        profile = future_profile(profile)
        resolved["future"] = True
    policy = (_read_json_file("policy", args.policy, PhotonPolicy.from_json)
              if args.policy else default_policy())
    resolved["policy"] = args.policy or "default"
    return profile, policy


def _parse_float_list(text: str, flag: str, valid, rule: str) -> list[float]:
    """Comma-separated floats, each passing `valid`, which `rule` describes."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise _usage(f"{flag} must be a non-empty comma-separated list")
    try:
        values = [float(v) for v in items]
    except ValueError as exc:
        raise _usage(f"{flag}: {exc}")
    if not all(map(valid, values)):
        raise _usage(f"{flag} values must be {rule}")
    return values


def _is_percent(value: float) -> bool:
    return 0 <= value < math.inf


def _checked_float(flag: str, valid, rule: str):
    """A parser of `flag`'s value: a float passing `valid`, which `rule`
    describes. As an argparse type it raises the CliError like _parse_seed."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # rejected below like any other invalid value
        if not valid(value):
            raise _usage(f"{flag} must be {rule}, got {text}")
        return value
    return parse


def _parse_seed(text: str) -> int:
    """--seed's type. argparse reports only its own exception types, so the
    CliError raised here reaches main() like any other usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # rejected below like any other negative value
    if value < 0:
        raise _usage(f"--seed must be a non-negative integer, got {text}")
    return value


def _parse_photons(text: str) -> float:
    if text.lower() in ("inf", "none", ""):
        return math.inf
    return _checked_float("--photons", lambda v: v > 0, "> 0 or 'inf'")(text)


def _simulation_inputs(args) -> tuple[ModelConfig, dict, tuple, float]:
    """Model, LUTs and photons per MAC shared by `simulate` and `sweep`."""
    models, resolved = _resolve_models(args, require_one=True)
    config = models[0]
    if config.n * config.d > DESK_SCALE_LIMIT and not args.allow_large:
        raise CliError(
            "over_limit",
            f"n*d = {config.n * config.d} exceeds the desk-scale limit {DESK_SCALE_LIMIT}; "
            f"simulation would materialize full weights (pass --allow-large to override)")
    try:
        luts = tuple(load_lut(path) if path else None
                     for path in (args.input_lut, args.weight_lut))
    except (OSError, ValueError) as exc:
        raise CliError("parse", f"LUT file: {exc}")
    return config, resolved, luts, _parse_photons(args.photons)


# --------------------------------------------------------------------------
# Commands


def cmd_energy(args) -> list[str]:
    models, resolved = _resolve_models(args)
    profile, policy = _pricing_from_args(args, resolved)
    baselines = dict(DIGITAL_BASELINES)
    if args.baseline is not None:
        baselines["custom"] = args.baseline
        resolved["baseline_j_per_mac"] = args.baseline

    reports = [total_energy(m, profile, policy, baselines) for m in models]
    summary = []
    for model, report in zip(models, reports):
        adv = report.advantages()
        summary.append([model.name, model.n, model.d, model.h, model.L,
                        model.param_count, report.total_macs, report.total()]
                       + [adv[name] for name in baselines])
        print(f"{model.name}: total {fmt(report.total())} J, "
              + ", ".join(f"{k} {fmt(v)}x" for k, v in adv.items()))
    header = ["model", "n", "d", "h", "L", "params", "total_macs", "total_j"]
    return _emit(args, "energy", resolved, {
        "energy.json": [r.to_json_dict() for r in reports],
        "energy.csv": (["model", "layer_class", "category", "joules"],
                       [row for r in reports for row in r.csv_rows()]),
        "energy_summary.csv": (header + [f"advantage_{name}" for name in baselines],
                               summary),
    })


def cmd_requirements(args) -> list[str]:
    models, resolved = _resolve_models(args)
    resolved["core_size"] = args.core_size
    rows = []
    for model in models:
        req = hardware_requirements(model, args.core_size)
        rows.append([model.name, req.input_vector_elements, req.detectors,
                     req.mvm_cores, req.sram_bytes])
        print(f"{model.name}: {req.input_vector_elements} inputs, {req.detectors} detectors, "
              f"{req.mvm_cores} cores, {req.sram_bytes / 1e6:.4g} MB SRAM")
    header = ["model", "input_vector_elements", "detectors", "mvm_cores", "sram_bytes"]
    return _emit(args, "requirements", resolved, {
        "requirements.csv": (header, rows),
        "requirements.json": [dict(zip(header, row)) for row in rows],
    })


def cmd_chunking(args) -> list[str]:
    models, resolved = _resolve_models(args)
    profile, policy = _pricing_from_args(args, resolved)
    memories = _parse_float_list(args.memory, "--memory", lambda m: m > 0, "> 0")
    batches = _parse_float_list(args.batch, "--batch", lambda b: b >= 1, ">= 1")
    resolved.update({"memory": memories, "batch": batches,
                     "dram_j_per_bit": args.dram_j_per_bit})

    a100 = DIGITAL_BASELINES["a100"]
    rows = []
    for model in models:
        macs = compute_breakdown(model).total_macs
        for memory in memories:
            for batch in batches:
                scenario = ChunkingScenario(memory_capacity_weights=memory, batch_size=batch)
                onn = chunked_onn_energy(model, profile, policy, scenario).total()
                gpu = chunked_gpu_energy(model, a100, scenario, args.dram_j_per_bit)
                rows.append([model.name, memory, batch,
                             scenario.chunks(model.layer_weight_count),
                             onn, gpu, macs * a100 / onn, gpu / onn])
    header = ["model", "memory_weights", "batch_size", "chunks",
              "onn_j", "gpu_chunked_j", "advantage_a100", "advantage_chunked_gpu"]
    return _emit(args, "chunking", resolved, {
        "chunking.csv": (header, rows),
        "chunking.json": [dict(zip(header, row)) for row in rows],
    })


def cmd_simulate(args) -> list[str]:
    config, resolved, (input_lut, weight_lut), photons = _simulation_inputs(args)
    noise = NoiseSpec(systematic_percent_ff=args.ff_noise,
                      systematic_percent_attn=args.attn_noise,
                      photons_per_mac=photons, seed=args.seed)
    resolved.update({"ff_noise": args.ff_noise, "attn_noise": args.attn_noise,
                     "photons": args.photons, "input_lut": args.input_lut,
                     "weight_lut": args.weight_lut})

    weights = init_weights(config, args.seed)
    x = make_input(config, args.seed)
    digital = forward(config, weights, x, DigitalBackend())
    optical = forward(config, weights, x,
                      OpticalBackend(noise, input_lut=input_lut, weight_lut=weight_lut))
    dev = deviation(optical.final, digital.final)

    # one trace document in memory at a time: they dominate peak RSS
    os.makedirs(args.out or ".", exist_ok=True)
    traces = []
    for name, trace in (("digital", digital), ("optical", optical)):
        path = os.path.join(args.out, f"simulate_{name}_trace.json")
        write_json(path, trace_to_json_dict(trace, config, args.seed))
        traces.append(path)
    print(f"{config.name}: deviation {fmt(dev)}")
    return _emit(args, "simulate", resolved, {
        "simulate_deviation.json": {
            "model": config.name, "seed": args.seed,
            "ff_noise_percent": args.ff_noise, "attn_noise_percent": args.attn_noise,
            "photons_per_mac": None if math.isinf(photons) else photons,
            "deviation": dev,
        },
        "simulate_deviation.csv": (
            ["model", "ff_percent", "attn_percent", "seed", "deviation"],
            [[config.name, float(args.ff_noise), float(args.attn_noise), args.seed, dev]]),
    }, written=traces)


def cmd_sweep(args) -> list[str]:
    config, resolved, (input_lut, weight_lut), photons = _simulation_inputs(args)
    ff_grid = _parse_float_list(args.ff_grid, "--ff-grid", _is_percent, "finite and >= 0")
    attn_grid = _parse_float_list(args.attn_grid, "--attn-grid", _is_percent, "finite and >= 0")
    seeds = [int(s) for s in _parse_float_list(args.seeds, "--seeds",
                                                lambda s: s.is_integer() and s >= 0,
                                                "non-negative integers")]
    resolved.update({"ff_grid": ff_grid, "attn_grid": attn_grid, "seeds": seeds,
                     "photons": args.photons, "input_lut": args.input_lut,
                     "weight_lut": args.weight_lut})

    weights = init_weights(config, args.seed)
    x = make_input(config, args.seed)
    surfaces = noise_sweep(config, weights, x, ff_grid, attn_grid, photons=photons,
                           seed=seeds, input_lut=input_lut, weight_lut=weight_lut)
    rows = []
    for seed, surface in zip(seeds, surfaces):
        for i, ff in enumerate(ff_grid):
            for j, attn in enumerate(attn_grid):
                rows.append([ff, attn, seed, float(surface[i, j])])

    print(f"{config.name}: {len(rows)} sweep cells written")
    header = ["ff_percent", "attn_percent", "seed", "deviation"]
    return _emit(args, "sweep", resolved, {
        "sweep.csv": (header, rows),
        "sweep.json": [dict(zip(header, row)) for row in rows],
    })


def cmd_catalogue(args) -> list[str]:
    catalogue, source = _get_catalogue()
    rows = [[c.name, c.n, c.d, c.h, c.L, c.param_count] for c in catalogue]
    for row in rows:
        print(f"{row[0]}: n={row[1]} d={row[2]} h={row[3]} L={row[4]} params={row[5]}")
    return _emit(args, "catalogue", {"catalogue": source}, {
        "catalogue.json": [{"name": c.name, "n": c.n, "d": c.d, "h": c.h, "L": c.L}
                           for c in catalogue],
        "catalogue.csv": (["name", "n", "d", "h", "L", "params"], rows),
    })


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: `simulate --all` must not mean --allow-large
    parser = argparse.ArgumentParser(
        prog="photonsim", allow_abbrev=False,
        description="Transformer inference simulator and cost model for optical accelerators")
    parser.add_argument("--version", action="version", version=f"photonsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups, each declared once and shared through argparse parents
    def group():
        return argparse.ArgumentParser(add_help=False, allow_abbrev=False)

    common = group()
    common.add_argument("--seed", type=_parse_seed, default=0, help="RNG seed (u64)")
    common.add_argument("--out", default=".", help="output directory (default: cwd)")
    common.add_argument("--format", choices=("json", "csv", "both"), default="both")
    models = group()
    models.add_argument("--model", default=None, help="catalogue model name")
    models.add_argument("--config", default=None, help="model config JSON file")
    costing = group()
    costing.add_argument("--all", action="store_true", help="cost every catalogue model")
    pricing = group()
    pricing.add_argument("--profile", default=None, help="hardware profile JSON file")
    pricing.add_argument("--policy", default=None, help="photon policy JSON file")
    simulation = group()
    simulation.add_argument("--photons", default="inf", help="photons per MAC, or 'inf'")
    simulation.add_argument("--input-lut", default=None, help="input LUT CSV")
    simulation.add_argument("--weight-lut", default=None, help="weight LUT CSV")
    simulation.add_argument("--allow-large", action="store_true",
                            help="lift the desk-scale limit")

    def command(name, handler, parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = command("energy", cmd_energy, [models, costing, pricing],
                "per-inference energy report and advantage")
    p.add_argument("--future", action="store_true", help="apply the future-electronics profile")
    p.add_argument("--baseline", default=None,
                   type=_checked_float("--baseline", lambda v: 0 < v < math.inf, "finite and > 0"),
                   help="extra digital baseline in J/MAC")

    p = command("requirements", cmd_requirements, [models, costing],
                "hardware requirement table")
    p.add_argument("--core-size", default=1e7,
                   type=_checked_float("--core-size", lambda v: 0 < v < math.inf, "finite and > 0"),
                   help="weights per MVM core (default 1e7)")

    p = command("chunking", cmd_chunking, [models, costing, pricing],
                "chunked weight-streaming advantage curves")
    p.add_argument("--memory", default="1e8", help="comma list of weight-memory capacities")
    p.add_argument("--batch", default="1", help="comma list of batch sizes")
    p.add_argument("--dram-j-per-bit", default=1e-12,
                   type=_checked_float("--dram-j-per-bit", _is_percent, "finite and >= 0"))

    p = command("simulate", cmd_simulate, [models, simulation], "digital vs optical forward pass")
    p.add_argument("--ff-noise", default=0.0, help="systematic %% on FF products",
                   type=_checked_float("--ff-noise", _is_percent, "finite and >= 0"))
    p.add_argument("--attn-noise", default=0.0, help="systematic %% on attention products",
                   type=_checked_float("--attn-noise", _is_percent, "finite and >= 0"))

    p = command("sweep", cmd_sweep, [models, simulation], "noise-tolerance deviation surface")
    p.add_argument("--ff-grid", default="0,1,2,5", help="comma list of FF noise percents")
    p.add_argument("--attn-grid", default="0,1,2,5", help="comma list of attention noise percents")
    p.add_argument("--seeds", default="0", help="comma list of seeds")

    command("catalogue", cmd_catalogue, [], "list/export the model catalogue")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except CliError as exc:
        print(f"error:{exc.err_class}: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError as exc:  # e.g. the weights of a model run with --allow-large
        print(f"error:over_limit: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error:internal: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
