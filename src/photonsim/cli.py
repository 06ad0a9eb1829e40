"""Command-line interface.

Subcommands: energy, simulate, sweep, requirements, chunking, catalogue.
Every run writes its data files plus one manifest recording the resolved
inputs, in the byte-stable formats of `artifacts`.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .arch import (AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, POSITIVE_OR_INF, SEED, ModelConfig,
                   builtin_catalogue, catalogue_from_json, compute_breakdown, find_model,
                   hardware_requirements)
from .artifacts import Table, _non_finite, fmt, write_csv, write_json
from .energy import (ChunkingScenario, DIGITAL_BASELINES, HardwareProfile, PhotonPolicy,
                     chunked_gpu_energy, chunked_onn_energy, default_policy,
                     default_profile, energy_ratio, future_profile, total_energy)
from .optics import NoiseSpec, lut_from_csv
from .txsim import (DigitalBackend, OpticalBackend, TransformerWeights, deviation, forward,
                    init_weights, make_input, noise_sweep, trace_to_json_dict)

DESK_SCALE_LIMIT = 2 ** 20  # max n*d simulate will materialize without --allow-large

CATALOGUE_ENV = "PHOTONSIM_CATALOGUE"


class CliError(Exception):
    def __init__(self, err_class: str, message: str):
        super().__init__(message)
        self.err_class = err_class


def _number(name: str, rule: tuple, cast=float, many: bool = False):
    """The parser of numeric input `name`: a `cast` value passing `rule`, an
    `arch` (words, test) pair, or with `many` a comma-separated list of them.
    As an argparse type it raises a CliError, which argparse lets reach main()."""
    words, valid = rule

    def one(text: str, label: str = name):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan  # rejected below like any other invalid value
        if not valid(value):
            raise CliError("usage", f"{label} must be {words}, got {text}")
        return value

    def parse(text: str):
        if not many:
            return one(text)
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items:
            raise CliError("usage", f"{name} must be a non-empty comma-separated list")
        return [one(item, f"each {name} value") for item in items]
    return parse


_LAST_EPOCH = 253402300799  # 9999-12-31T23:59:59Z
_EPOCH = _number("SOURCE_DATE_EPOCH",
                 (f"an integer in [0, {_LAST_EPOCH}]", lambda v: 0 <= v <= _LAST_EPOCH), int)


def _timestamp() -> str:
    # honors SOURCE_DATE_EPOCH so archived runs can be byte-reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = _EPOCH(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def write_manifest(out_dir: str, command: str, seed: int, resolved: dict,
                   outputs: list[str], timestamp: str) -> str:
    """Write `<command>_manifest.json` in `out_dir`, listing the names of the
    `outputs` written there."""
    path = os.path.join(out_dir, f"{command}_manifest.json")
    write_json(path, {"command": command, "seed": seed, "resolved": resolved,
                      "outputs": sorted(outputs),
                      "version": __version__, "timestamp": timestamp})
    return path


def _emit(args, command: str, resolved: dict, files: dict, always=None) -> None:
    """Create --out and write `always` and each of `files` whose extension
    --format selects, each a JSON document or a `Table`, then the manifest
    that lists them. A NaN or an infinity (a result past float64) in a file
    to be written is an over_limit error, raised before any file is written."""
    files = {**(always or {}), **{name: payload for name, payload in files.items()
                                  if args.format in (name.rsplit(".", 1)[1], "both")}}
    for name, payload in files.items():
        if (payload.cells is None if type(payload) is Table else _non_finite(payload)):
            raise CliError("over_limit", f"a result left the float64 range: {name}")
    os.makedirs(args.out or ".", exist_ok=True)
    for name, payload in files.items():
        (write_csv if name.endswith(".csv") else write_json)(os.path.join(args.out, name), payload)
    write_manifest(args.out, command, args.seed, resolved, list(files), args.timestamp)


def _table(stem: str, header: list[str], rows: list[list]) -> dict:
    """The `_emit` files of one table: `<stem>.csv` and its JSON twin `<stem>.json`."""
    table = Table(header, rows)
    return {f"{stem}.csv": table, f"{stem}.json": table}


def _check_out(out: str) -> None:
    """Raise, before a command computes what it could not write, the error
    that _emit's makedirs would raise where --out or its nearest existing
    ancestor is not a directory. The directory itself is made only by _emit."""
    import errno
    path, missing = out, None  # missing: the shallowest missing directory, made first
    while path and not os.path.exists(path):
        path, missing = os.path.dirname(path), path
    if os.path.isdir(path or os.curdir):
        return
    if missing is None:
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)


@functools.cache
def _keep_freed_pages() -> None:
    """Raise glibc's allocator thresholds for the rest of this process, once:
    blocks up to 32 MiB come from the heap instead of fresh mappings, and up
    to 64 MiB of freed heap is kept instead of handed back. A forward pass
    then reuses its temporaries' pages instead of faulting in new ones.
    Forked sweep workers inherit the setting. Nothing happens where the C
    library has no mallopt."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; TypeError: no CDLL(None)
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# --------------------------------------------------------------------------
# Shared resolution


def _read(kind: str, path: str, reader):
    """`reader` applied to the text of the `kind` file at `path`. A file that
    cannot be opened or read is an io error; text that `reader` rejects (a
    ValueError such as JSONDecodeError, a KeyError or a TypeError) a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return reader(fh.read())
    except OSError as exc:
        raise CliError("io", f"{kind} file {path}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("parse", f"{kind} file {path}: {exc}")


def _get_catalogue() -> tuple[list[ModelConfig], str]:
    env_path = os.environ.get(CATALOGUE_ENV)
    if env_path:
        return _read("catalogue", env_path, catalogue_from_json), env_path
    return builtin_catalogue(), "builtin"


def _resolve_models(args) -> tuple[list[ModelConfig], dict]:
    """The models of --all, --config or --model, in that precedence; only
    --all and --model read the catalogue. `simulate` and `sweep` have no --all."""
    if getattr(args, "all", False):
        catalogue, source = _get_catalogue()
        return catalogue, {"models": "all", "catalogue": source}
    if args.config:
        name = os.path.basename(args.config)
        config = _read("config", args.config, lambda text: ModelConfig.from_json(text, name=name))
        return [config], {"models": [config.name], "config_file": args.config}
    if args.model:
        catalogue, source = _get_catalogue()
        try:
            config = find_model(args.model, catalogue)
        except KeyError as exc:
            raise CliError("unknown_model", str(exc.args[0]))
        return [config], {"models": [config.name], "catalogue": source}
    raise CliError("usage", "provide --model NAME, --config FILE, or --all"
                   if hasattr(args, "all") else "provide --model NAME or --config FILE")


def _pricing_from_args(args) -> tuple[list[ModelConfig], dict, HardwareProfile, PhotonPolicy]:
    """Models, hardware profile and photon policy, recorded in the resolved inputs."""
    models, resolved = _resolve_models(args)
    profile = (_read("profile", args.profile, HardwareProfile.from_json)
               if args.profile else default_profile())
    resolved["profile"] = args.profile or "default"
    if getattr(args, "future", False):
        profile = future_profile(profile)
        resolved["future"] = True
    policy = (_read("policy", args.policy, PhotonPolicy.from_json)
              if args.policy else default_policy())
    resolved["policy"] = args.policy or "default"
    for model in models:  # a table policy need not cover every d
        try:
            policy.photons_per_mac(model.d)
        except KeyError as exc:
            raise CliError("parse", f"policy file {args.policy}: {exc.args[0]}")
    return models, resolved, profile, policy


def _simulation_inputs(args, noise: dict) -> tuple[ModelConfig, dict, tuple, float,
                                                    TransformerWeights, np.ndarray]:
    """Model, resolved inputs, LUTs, photons per MAC, weights and input shared
    by `simulate` and `sweep`. The resolved inputs record the command's `noise`
    settings ahead of the shared ones."""
    models, resolved = _resolve_models(args)
    resolved.update(noise, photons=args.photons, input_lut=args.input_lut,
                    weight_lut=args.weight_lut)
    config = models[0]
    if config.n * config.d > DESK_SCALE_LIMIT and not args.allow_large:
        raise CliError(
            "over_limit",
            f"n*d = {config.n * config.d} exceeds the desk-scale limit {DESK_SCALE_LIMIT}; "
            f"simulation would materialize full weights (pass --allow-large to override)")
    try:
        config.head_dim  # costing allows heads that do not divide d; a forward pass does not
    except ValueError as exc:
        source = f"config file {args.config}" if args.config else f"model {config.name}"
        raise CliError("parse", f"{source}: {exc}")
    luts = tuple(_read(f"{side} LUT", path, lut_from_csv) if path else None
                 for side, path in (("input", args.input_lut), ("weight", args.weight_lut)))
    _check_out(args.out)
    photons = _number("--photons", POSITIVE_OR_INF)(args.photons)
    _keep_freed_pages()
    return (config, resolved, luts, photons,
            init_weights(config, args.seed), make_input(config, args.seed))


# --------------------------------------------------------------------------
# Commands


def cmd_energy(args) -> list[str]:
    models, resolved, profile, policy = _pricing_from_args(args)
    baselines = dict(DIGITAL_BASELINES)
    if args.baseline is not None:
        baselines["custom"] = args.baseline
        resolved["baseline_j_per_mac"] = args.baseline

    reports = [total_energy(m, profile, policy, baselines) for m in models]
    summary, lines = [], []
    for model, report in zip(models, reports):
        adv = report.advantages()
        summary.append([model.name, model.n, model.d, model.h, model.L,
                        model.param_count, report.total_macs, report.total()]
                       + [adv[name] for name in baselines])
        lines.append(f"{model.name}: total {fmt(report.total())} J, "
                     + ", ".join(f"{k} {fmt(v)}x" for k, v in adv.items()))
    header = ["model", "n", "d", "h", "L", "params", "total_macs", "total_j"]
    _emit(args, "energy", resolved, {
        # to_json_dict of each report, as a table: one row of cells per report
        "energy.json": Table(reports[0].json_header() if reports else [],
                             [r.json_row() for r in reports]),
        "energy.csv": Table(["model", "layer_class", "category", "joules"],
                            [row for r in reports for row in r.csv_rows()]),
        "energy_summary.csv": Table(header + [f"advantage_{name}" for name in baselines],
                                    summary),
    })
    return lines


def cmd_requirements(args) -> list[str]:
    models, resolved = _resolve_models(args)
    resolved["core_size"] = args.core_size
    rows, lines = [], []
    for model in models:
        req = hardware_requirements(model, args.core_size)
        rows.append([model.name, req.input_vector_elements, req.detectors,
                     req.mvm_cores, req.sram_bytes])
        lines.append(f"{model.name}: {req.input_vector_elements} inputs, {req.detectors} "
                     f"detectors, {req.mvm_cores} cores, {req.sram_bytes / 1e6:.4g} MB SRAM")
    header = ["model", "input_vector_elements", "detectors", "mvm_cores", "sram_bytes"]
    _emit(args, "requirements", resolved, _table("requirements", header, rows))
    return lines


def cmd_chunking(args) -> list[str]:
    models, resolved, profile, policy = _pricing_from_args(args)
    resolved.update({"memory": args.memory, "batch": args.batch,
                     "dram_j_per_bit": args.dram_j_per_bit})

    a100 = DIGITAL_BASELINES["a100"]
    scenarios = [ChunkingScenario(memory_capacity_weights=memory, batch_size=batch)
                 for memory in args.memory for batch in args.batch]
    rows = []
    for model in models:
        macs = compute_breakdown(model).total_macs
        for scenario in scenarios:
            onn = chunked_onn_energy(model, profile, policy, scenario=scenario).total()
            gpu = chunked_gpu_energy(model, a100, scenario, args.dram_j_per_bit)
            rows.append([model.name, scenario.memory_capacity_weights, scenario.batch_size,
                         scenario.chunks(model.layer_weight_count),
                         onn, gpu, energy_ratio(macs * a100, onn), energy_ratio(gpu, onn)])
    header = ["model", "memory_weights", "batch_size", "chunks",
              "onn_j", "gpu_chunked_j", "advantage_a100", "advantage_chunked_gpu"]
    _emit(args, "chunking", resolved, _table("chunking", header, rows))
    return []


def cmd_simulate(args) -> list[str]:
    config, resolved, (input_lut, weight_lut), photons, weights, x = _simulation_inputs(
        args, {"ff_noise": args.ff_noise, "attn_noise": args.attn_noise})
    noise = NoiseSpec(systematic_percent_ff=args.ff_noise,
                      systematic_percent_attn=args.attn_noise,
                      photons_per_mac=photons, seed=args.seed)
    with np.errstate(over="raise", invalid="raise"):  # main() reports FloatingPointError
        digital = forward(config, weights, x, DigitalBackend())
        optical = forward(config, weights, x,
                          OpticalBackend(noise, input_lut=input_lut, weight_lut=weight_lut))
        dev = deviation(optical.final, digital.final)

    _emit(args, "simulate", resolved, {
        "simulate_deviation.json": {
            "model": config.name, "seed": args.seed,
            "ff_noise_percent": args.ff_noise, "attn_noise_percent": args.attn_noise,
            "photons_per_mac": None if math.isinf(photons) else photons,
            "deviation": dev,
        },
        "simulate_deviation.csv": Table(
            ["model", "ff_percent", "attn_percent", "seed", "deviation"],
            [[config.name, args.ff_noise, args.attn_noise, args.seed, dev]]),
    }, always={  # the documents hold the passes' own arrays, not copies
        f"simulate_{name}_trace.json": trace_to_json_dict(trace, config, args.seed)
        for name, trace in (("digital", digital), ("optical", optical))})
    return [f"{config.name}: deviation {fmt(dev)}"]


def cmd_sweep(args) -> list[str]:
    config, resolved, (input_lut, weight_lut), photons, weights, x = _simulation_inputs(
        args, {"ff_grid": args.ff_grid, "attn_grid": args.attn_grid, "seeds": args.seeds})
    with np.errstate(over="raise", invalid="raise"):  # main() reports FloatingPointError
        surfaces = noise_sweep(config, weights, x, args.ff_grid, args.attn_grid, photons=photons,
                               seeds=args.seeds, input_lut=input_lut, weight_lut=weight_lut)
    rows = []
    for seed, surface in zip(args.seeds, surfaces):
        for i, ff in enumerate(args.ff_grid):
            for j, attn in enumerate(args.attn_grid):
                rows.append([ff, attn, seed, float(surface[i, j])])

    header = ["ff_percent", "attn_percent", "seed", "deviation"]
    _emit(args, "sweep", resolved, _table("sweep", header, rows))
    return [f"{config.name}: {len(rows)} sweep cells written"]


def cmd_catalogue(args) -> list[str]:
    catalogue, source = _get_catalogue()
    rows = [[c.name, c.n, c.d, c.h, c.L, c.param_count] for c in catalogue]
    _emit(args, "catalogue", {"catalogue": source}, {
        "catalogue.json": [c.to_json_dict() for c in catalogue],
        "catalogue.csv": Table(["name", "n", "d", "h", "L", "params"], rows),
    })
    return [f"{r[0]}: n={r[1]} d={r[2]} h={r[3]} L={r[4]} params={r[5]}" for r in rows]


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
    common.add_argument("--seed", type=_number("--seed", SEED, int), default=0,
                        help="RNG seed (u64)")
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
    p.add_argument("--baseline", default=None, type=_number("--baseline", POSITIVE),
                   help="extra digital baseline in J/MAC")

    p = command("requirements", cmd_requirements, [models, costing],
                "hardware requirement table")
    p.add_argument("--core-size", default=1e7, type=_number("--core-size", POSITIVE),
                   help="weights per MVM core (default 1e7)")

    p = command("chunking", cmd_chunking, [models, costing, pricing],
                "chunked weight-streaming advantage curves")
    p.add_argument("--memory", default="1e8", help="comma list of weight-memory capacities",
                   type=_number("--memory", POSITIVE, many=True))
    p.add_argument("--batch", default="1", help="comma list of batch sizes",
                   type=_number("--batch", AT_LEAST_ONE, many=True))
    p.add_argument("--dram-j-per-bit", default=1e-12,
                   type=_number("--dram-j-per-bit", NON_NEGATIVE))

    p = command("simulate", cmd_simulate, [models, simulation], "digital vs optical forward pass")
    p.add_argument("--ff-noise", default=0.0, help="systematic %% on FF products",
                   type=_number("--ff-noise", NON_NEGATIVE))
    p.add_argument("--attn-noise", default=0.0, help="systematic %% on attention products",
                   type=_number("--attn-noise", NON_NEGATIVE))

    p = command("sweep", cmd_sweep, [models, simulation], "noise-tolerance deviation surface")
    p.add_argument("--ff-grid", default="0,1,2,5", help="comma list of FF noise percents",
                   type=_number("--ff-grid", NON_NEGATIVE, many=True))
    p.add_argument("--attn-grid", default="0,1,2,5", help="comma list of attention noise percents",
                   type=_number("--attn-grid", NON_NEGATIVE, many=True))
    p.add_argument("--seeds", default="0", help="comma list of seeds",
                   type=_number("--seeds", SEED, int, many=True))

    command("catalogue", cmd_catalogue, [], "list/export the model catalogue")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.timestamp = _timestamp()  # a bad SOURCE_DATE_EPOCH fails before any work
        for line in args.handler(args):  # a command's result lines, once its files are written
            print(line)
        return 0
    except CliError as exc:
        error = exc
    except MemoryError as exc:  # e.g. the weights of a model run with --allow-large
        error = CliError("over_limit", f"out of memory: {str(exc) or 'allocation failed'}")
    except FloatingPointError as exc:  # a forward pass that left the float64 range means nothing
        error = CliError("over_limit", f"the forward pass left the float64 range: {exc}")
    except OverflowError as exc:  # a count past float64, as from --core-size 5e-324
        error = CliError("over_limit", f"a count left the float64 range: {exc}")
    except OSError as exc:  # an output that cannot be written
        error = CliError("io", str(exc))
    except (ValueError, KeyError) as exc:
        error = CliError("internal", str(exc))
    print(f"error:{error.err_class}: {error}", file=sys.stderr)
    return 2 if error.err_class == "usage" else 1


if __name__ == "__main__":
    sys.exit(main())
