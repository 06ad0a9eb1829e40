"""Per-layer spans for photonsim, recorded from outside the program.

`Tracer.install()` wraps public functions of each module at the names
their callers look up (`photonsim.cli.forward`,
`photonsim.txsim.optical_matmul`, `photonsim.optics.apply_shot_noise`, ...);
`Tracer.uninstall()` puts the originals back. Spans nest on one stack and
are aggregated in memory by name as they close: count, inclusive time and
self time (duration minus child spans). Work the wrappers do for counting,
such as hashing operands, is subtracted from every enclosing span.

Each backend product is labelled with its `PRODUCT_CLASSES` name from its
position in the forward pass (qkv, then (attn_qk, attn_av) per head, then
out_proj, ff1, ff2 per layer). When a forward pass ends, the MACs, loads
and detects derived from the labelled shapes are checked against
`L x compute_breakdown(config)` for every class.
"""
from __future__ import annotations

import hashlib
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np

import photonsim.arch
import photonsim.cli
import photonsim.energy
import photonsim.optics
import photonsim.txsim

clock = time.perf_counter

PRODUCT_CLASSES = photonsim.arch.PRODUCT_CLASSES
# Right operand is a resident weight matrix: only the left operand is loaded.
WEIGHT_CLASSES = ("qkv", "out_proj", "ff1", "ff2")


def product_class(ordinal: int, heads: int) -> str:
    """Class of the ordinal-th backend product of a forward pass."""
    i = ordinal % (2 * heads + 4)
    if i == 0:
        return "qkv"
    if i <= 2 * heads:
        return "attn_qk" if i % 2 else "attn_av"
    return ("out_proj", "ff1", "ff2")[i - 2 * heads - 1]


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.digest()


class _Frame:
    __slots__ = ("name", "start", "child", "excl", "products", "heads")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.excl = 0.0
        self.products = None
        self.heads = 0
        self.start = clock()


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.forwards: list[_Frame] = []
        self.count = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.quantize_seen: set = set()
        self.reference_seen: set = set()
        self.breakdown_seen: set = set()  # (invocation ordinal, config)
        self.crosscheck_errors: list[str] = []
        self.missing: list[str] = []
        self._undo: list = []
        self._expected_breakdown = photonsim.arch.compute_breakdown

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = clock()
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start - frame.excl
        self.count[frame.name] += 1
        self.incl[frame.name] += duration
        self.self_time[frame.name] += duration - frame.child
        if self.stack:
            parent = self.stack[-1]
            parent.child += duration
            parent.excl += frame.excl

    def discount(self, since: float) -> None:
        """Remove the time since `since` from the enclosing spans."""
        if self.stack:
            self.stack[-1].excl += clock() - since

    # -- instrumentation --------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def span(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                frame = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(frame)
            return wrapper
        return make

    def _writer(self, original):
        def writer(path, *args, **kwargs):
            frame = self.open("cli.write")
            try:
                return original(path, *args, **kwargs)
            finally:
                self.close(frame)
                since = clock()
                if os.path.isfile(path):
                    self.counters["bytes_written"] += os.path.getsize(path)
                self.discount(since)
        return writer

    def _forward(self, original):
        signature = inspect.signature(original)

        def forward(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            backend = bound.arguments.get("backend")
            optical = isinstance(backend, photonsim.txsim.OpticalBackend)
            frame = self.open("txsim.forward." + ("optical" if optical else "digital"))
            frame.products = []
            frame.heads = bound.arguments["config"].h
            self.forwards.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                self.forwards.pop()
                self.close(frame)
                since = clock()
                config = bound.arguments["config"]
                self._crosscheck(config, frame.products)
                if not optical:
                    weights = bound.arguments["weights"]
                    self.reference_seen.add(_digest(
                        np.asarray(bound.arguments["x"], dtype=float),
                        *[w for layer in weights.layers
                          for w in (layer.qkv, layer.out_proj, layer.ff1, layer.ff2)]))
                self.discount(since)
        return forward

    def _matmul(self, optical: bool):
        def make(original):
            def matmul(backend, a, b, *args, **kwargs):
                fwd = self.forwards[-1] if self.forwards else None
                if not optical:
                    name = "txsim.digital_matmul"
                elif fwd is None:
                    name = "optics.backend.unlabelled"
                else:
                    name = "optics.backend." + product_class(len(fwd.products), fwd.heads)
                frame = self.open(name)
                try:
                    return original(backend, a, b, *args, **kwargs)
                finally:
                    self.close(frame)
                    (m, k), (_, p) = np.shape(a), np.shape(b)
                    if fwd is not None:
                        fwd.products.append(((m, k), (k, p)))
                    if optical:
                        self.counters["optical_macs"] += m * k * p
            return matmul
        return make

    def _quantize(self, original):
        def quantize(values, spec, *args, **kwargs):
            frame = self.open("optics.quantize")
            try:
                return original(values, spec, *args, **kwargs)
            finally:
                self.close(frame)
                since = clock()
                lut = kwargs.get("lut", args[0] if args else None)
                values = np.asarray(values, dtype=float)
                self.counters["quantized_elems"] += values.size
                key = (_digest(values), spec.mode, spec.rounding,
                       None if lut is None else _digest(lut.levels))
                if key in self.quantize_seen:
                    self.counters["quantize_repeats"] += 1
                self.quantize_seen.add(key)
                self.discount(since)
        return quantize

    def _shot_noise(self, original):
        def apply_shot_noise(outputs, photons_per_mac, *args, **kwargs):
            frame = self.open("optics.shot_noise")
            try:
                return original(outputs, photons_per_mac, *args, **kwargs)
            finally:
                self.close(frame)
                if math.isfinite(photons_per_mac):
                    self.counters["shot_samples"] += np.size(outputs)
        return apply_shot_noise

    def _breakdown(self, original):
        def compute_breakdown(config, *args, **kwargs):
            frame = self.open("arch.compute_breakdown")
            try:
                return original(config, *args, **kwargs)
            finally:
                self.close(frame)
                self.breakdown_seen.add((self.count["cli.main"], config))
        return compute_breakdown

    def _crosscheck(self, config, products) -> None:
        expected = self._expected_breakdown(config)
        per_layer = 2 * config.h + 4
        if len(products) != config.L * per_layer:
            self.crosscheck_errors.append(
                f"{config.name}: {len(products)} backend products, "
                f"expected {config.L * per_layer}")
            return
        totals = {c: [0, 0, 0] for c in PRODUCT_CLASSES}
        for ordinal, ((m, k), (_, p)) in enumerate(products):
            cls = product_class(ordinal, config.h)
            loads = m * k + (0 if cls in WEIGHT_CLASSES else k * p)
            for i, v in enumerate((m * k * p, loads, m * p)):
                totals[cls][i] += v
        for cls in PRODUCT_CLASSES:
            counts = expected.products[cls]
            want = [config.L * counts.macs, config.L * counts.loads, config.L * counts.detects]
            if totals[cls] != want:
                self.crosscheck_errors.append(
                    f"{config.name} {cls}: traced macs/loads/detects {totals[cls]}, "
                    f"L x compute_breakdown gives {want}")
        self.counters["crosschecked_passes"] += 1

    def install(self) -> None:
        cli, txsim, optics = photonsim.cli, photonsim.txsim, photonsim.optics
        energy = photonsim.energy
        self.patch(cli, "main", self.span("cli.main"))
        self.patch(cli, "write_json", self._writer)
        self.patch(cli, "write_csv", self._writer)
        self.patch(cli, "write_manifest", self.span("cli.write"))
        for owner in (cli, txsim):
            self.patch(owner, "forward", self._forward)
            self.patch(owner, "deviation", self.span("txsim.other"))
        for name in ("init_weights", "make_input", "noise_sweep", "trace_to_json_dict"):
            self.patch(cli, name, self.span("txsim.other"))
        self.patch(txsim.DigitalBackend, "matmul", self._matmul(optical=False))
        self.patch(txsim.OpticalBackend, "matmul", self._matmul(optical=True))
        self.patch(txsim, "optical_matmul", self.span("optics.optical_matmul"))
        self.patch(optics, "quantize", self._quantize)
        self.patch(optics, "four_pass_decompose", self.span("optics.decompose"))
        self.patch(optics, "apply_shot_noise", self._shot_noise)
        self.patch(optics, "apply_systematic_noise", self.span("optics.systematic"))
        for owner in (cli, energy):
            self.patch(owner, "total_energy", self.span("energy.total_energy"))
            self.patch(owner, "compute_breakdown", self._breakdown)
        self.patch(cli, "chunked_onn_energy", self.span("energy.chunked_onn"))
        self.patch(cli, "chunked_gpu_energy", self.span("energy.chunked_gpu"))
        self.patch(cli, "hardware_requirements", self.span("arch.requirements"))

    # -- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per round."""
        per = 1.0 / rounds
        t, s, n, c = self.incl, self.self_time, self.count, self.counters
        digital_forwards = n["txsim.forward.digital"]
        optical_backend = sum(t[f"optics.backend.{cls}"] for cls in PRODUCT_CLASSES)
        breakdowns = n["arch.compute_breakdown"]
        quantizes = n["optics.quantize"]
        metrics = {
            "cli.self_s": s["cli.main"] * per,
            "cli.write_s": s["cli.write"] * per,
            "cli.bytes_written": c["bytes_written"] * per,
            "txsim.forward_calls": (digital_forwards + n["txsim.forward.optical"]) * per,
            "txsim.digital_forward_s": t["txsim.forward.digital"] * per,
            "txsim.optical_forward_s": t["txsim.forward.optical"] * per,
            "txsim.self_s": (s["txsim.forward.digital"] + s["txsim.forward.optical"]) * per,
            "txsim.other_s": s["txsim.other"] * per,
            "txsim.digital_matmul_s": s["txsim.digital_matmul"] * per,
            "txsim.reference_reuse": (len(self.reference_seen) / digital_forwards
                                      if digital_forwards else 0.0),
        }
        for cls in PRODUCT_CLASSES:
            metrics[f"optics.{cls}_s"] = t[f"optics.backend.{cls}"] * per
        metrics.update({
            "optics.quantize_s": s["optics.quantize"] * per,
            "optics.decompose_s": s["optics.decompose"] * per,
            "optics.shot_noise_s": s["optics.shot_noise"] * per,
            "optics.pass_matmul_s": (s["optics.optical_matmul"]
                                     + sum(s[f"optics.backend.{cls}"]
                                           for cls in PRODUCT_CLASSES)) * per,
            "optics.systematic_s": s["optics.systematic"] * per,
            "optics.macs": c["optical_macs"] * per,
            "optics.shot_samples": c["shot_samples"] * per,
            "optics.quantized_elems": c["quantized_elems"] * per,
            "optics.ns_per_mac": (optical_backend * 1e9 / c["optical_macs"]
                                  if c["optical_macs"] else 0.0),
            "optics.redundant_quantize_frac": (c["quantize_repeats"] / quantizes
                                               if quantizes else 0.0),
            "energy.total_energy_calls": n["energy.total_energy"] * per,
            "energy.total_energy_s": s["energy.total_energy"] * per,
            "energy.chunked_onn_s": s["energy.chunked_onn"] * per,
            "energy.chunked_gpu_s": s["energy.chunked_gpu"] * per,
            "arch.compute_breakdown_calls": breakdowns * per,
            "arch.compute_breakdown_s": s["arch.compute_breakdown"] * per,
            "arch.breakdowns_per_report": (len(self.breakdown_seen) / breakdowns
                                           if breakdowns else 0.0),
            "arch.requirements_s": s["arch.requirements"] * per,
            "trace.crosschecked_passes": c["crosschecked_passes"] * per,
        })
        return metrics

    def span_seconds(self) -> float:
        """Total time inside spans: the sum of every span's self time."""
        return sum(self.self_time.values())

    def summary_lines(self) -> list[str]:
        return [f"span {name}: count {self.count[name]} incl_s {self.incl[name]:.6f} "
                f"self_s {self.self_time[name]:.6f}" for name in sorted(self.count) if self.count[name]]
