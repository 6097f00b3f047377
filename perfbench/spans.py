"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

Layers are freescale's modules. The tracer wraps the module attributes
through which one layer calls another (``freescale.denoiser.conv2d``,
``freescale.pipeline.predict_noise``, ...), so nothing under ``src/``
changes and nothing is wrapped while tracing is off. A span carries a
name, start, end, parent span and image id. A layer's self time is its
span minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    image: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(args, kwargs, result):
    return {"size": int(result.shape[-1])}


def _tokens(args, kwargs, result):
    h = args[0]
    return {"tokens": int(h.shape[-2] * h.shape[-1])}


def _conv(args, kwargs, result):
    x, kernel = args[0], args[1]
    dilation = args[2] if len(args) > 2 else kwargs.get("dilation", 1)
    n, c, h, w = x.shape
    out_c, _, kh, kw = kernel.weights.shape
    return {"macs": int(n * out_c * c * kh * kw * h * w), "dilation": int(dilation)}


# (module, attribute, span name, attrs from (args, kwargs, result)). A
# function imported by name into a caller's module is wrapped there; a
# callee looked up inside its own module is wrapped in that module too.
WRAP_POINTS = (
    ("freescale.cli", "main", "cli.main", None),
    ("freescale.fileio", "write_ppm", "fileio.write_ppm", None),
    ("freescale.pipeline", "direct_generate", "pipeline.level", _size),
    ("freescale.pipeline", "generate_base", "pipeline.level", _size),
    ("freescale.pipeline", "cascade_level", "pipeline.level", _size),
    ("freescale.pipeline", "latent_to_image", "pipeline.latent_to_image", None),
    ("freescale.pipeline", "init_weights", "denoiser.init_weights", None),
    ("freescale.pipeline", "predict_noise", "denoiser.predict_noise", _size),
    ("freescale.pipeline", "cfg_combine", "denoiser.cfg_combine", None),
    ("freescale.pipeline", "ddim_step", "scheduler.ddim_step", None),
    ("freescale.pipeline", "detail_blend", "scheduler.detail_blend", None),
    ("freescale.pipeline", "forward_noise", "scheduler.forward_noise", None),
    ("freescale.scheduler", "forward_noise", "scheduler.forward_noise", None),
    ("freescale.pipeline", "phi_upsample", "vae.phi_upsample", None),
    ("freescale.pipeline", "decode", "vae.decode", None),
    ("freescale.vae", "decode", "vae.decode", None),
    ("freescale.denoiser", "conv2d", "tensor_ops.conv2d", _conv),
    ("freescale.denoiser", "fused_attention", "attention.fused_attention", _tokens),
    ("freescale.denoiser", "self_attention", "attention.self_attention", _tokens),
    ("freescale.attention", "self_attention", "attention.self_attention", _tokens),
    ("freescale.attention", "lowpass", "tensor_ops.lowpass", None),
)


class Tracer:
    """Collects spans in memory while installed (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.image: int | None = None
        self._ids = itertools.count()
        self._stack: list[int] = []  # open span ids; one thread (FREESCALE_THREADS=1)
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            tracer.spans.append(Span(sid, name, start, end, parent, tracer.image, attrs))
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, attrs_fn in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span), so overlapping children count once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered
    return out


LEVELS = (1, 2, 4, 8)

# Per-layer metrics of one image, with units. Counts and shape-derived
# values must repeat exactly between images and runs.
LAYER_METRICS = {
    "tensor_ops.conv2d_calls": "count",
    "tensor_ops.conv2d_s": "s",
    "tensor_ops.conv2d_gmac": "GMAC",
    "tensor_ops.conv2d_gmac_per_s": "GMAC/s",
    "tensor_ops.conv2d_dilated_frac": "ratio",
    "tensor_ops.lowpass_calls": "count",
    "tensor_ops.lowpass_s": "s",
    "attention.fused_calls": "count",
    "attention.fused_s": "s",
    "attention.fused_self_s": "s",
    "attention.local_calls": "count",
    "attention.self_attention_s": "s",
    "attention.local_token_ratio": "ratio",
    "attention.global_tokens_max": "count",
    "denoiser.forward_calls": "count",
    "denoiser.forward_s": "s",
    "denoiser.forward_ms_p50": "ms",
    "denoiser.forward_ms_p90": "ms",
    "denoiser.self_s": "s",
    "denoiser.cfg_combine_s": "s",
    "denoiser.init_weights_s": "s",
    **{f"pipeline.level_s.{lvl}": "s" for lvl in LEVELS},
    "pipeline.steps": "count",
    "pipeline.decode_s": "s",
    "scheduler.ddim_s": "s",
    "scheduler.blend_s": "s",
    "scheduler.blend_calls": "count",
    "scheduler.forward_noise_s": "s",
    "vae.phi_upsample_s": "s",
    "vae.decode_s": "s",
    "fileio.write_ppm_s": "s",
    "cli.generate_s": "s",
}

EXACT_METRICS = frozenset(
    name
    for name, unit in LAYER_METRICS.items()
    if unit in ("count", "GMAC", "ratio")
)


def image_metrics(spans: list[Span], base_latent_size: int) -> dict[str, float]:
    """Every LAYER_METRICS value for the spans of one image (0 where the
    layer did not run)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_times(spans)
    ids = {s.id: s for s in spans}

    def total(name):
        return sum(s.duration for s in by[name])

    m = {}
    conv = by["tensor_ops.conv2d"]
    conv_s = total("tensor_ops.conv2d")
    gmac = sum(s.attrs["macs"] for s in conv) / 1e9
    m["tensor_ops.conv2d_calls"] = len(conv)
    m["tensor_ops.conv2d_s"] = conv_s
    m["tensor_ops.conv2d_gmac"] = gmac
    m["tensor_ops.conv2d_gmac_per_s"] = gmac / conv_s if conv_s > 0 else 0.0
    m["tensor_ops.conv2d_dilated_frac"] = (
        sum(s.attrs["dilation"] > 1 for s in conv) / len(conv) if conv else 0.0
    )
    m["tensor_ops.lowpass_calls"] = len(by["tensor_ops.lowpass"])
    m["tensor_ops.lowpass_s"] = total("tensor_ops.lowpass")

    fused = by["attention.fused_attention"]
    attn = by["attention.self_attention"]
    # inside fused attention, a call over fewer tokens than the map is a patch
    local = [
        s
        for s in attn
        if s.parent in ids
        and ids[s.parent].name == "attention.fused_attention"
        and s.attrs["tokens"] < ids[s.parent].attrs["tokens"]
    ]
    local_ids = {s.id for s in local}
    fused_tokens = sum(s.attrs["tokens"] for s in fused)
    m["attention.fused_calls"] = len(fused)
    m["attention.fused_s"] = total("attention.fused_attention")
    m["attention.fused_self_s"] = sum(own[s.id] for s in fused)
    m["attention.local_calls"] = len(local)
    m["attention.self_attention_s"] = total("attention.self_attention")
    m["attention.local_token_ratio"] = (
        sum(s.attrs["tokens"] for s in local) / fused_tokens if fused_tokens else 0.0
    )
    m["attention.global_tokens_max"] = max(
        (s.attrs["tokens"] for s in attn if s.id not in local_ids), default=0
    )

    fwd = by["denoiser.predict_noise"]
    final = max((s.attrs["size"] for s in fwd), default=0)
    final_ms = [1000.0 * s.duration for s in fwd if s.attrs["size"] == final]
    m["denoiser.forward_calls"] = len(fwd)
    m["denoiser.forward_s"] = total("denoiser.predict_noise")
    m["denoiser.forward_ms_p50"] = statistics.median(final_ms) if final_ms else 0.0
    m["denoiser.forward_ms_p90"] = (
        statistics.quantiles(final_ms, n=10, method="inclusive")[-1]
        if len(final_ms) > 1
        else sum(final_ms)
    )
    m["denoiser.self_s"] = sum(own[s.id] for s in fwd)
    m["denoiser.cfg_combine_s"] = total("denoiser.cfg_combine")
    m["denoiser.init_weights_s"] = total("denoiser.init_weights")

    for lvl in LEVELS:
        m[f"pipeline.level_s.{lvl}"] = sum(
            s.duration
            for s in by["pipeline.level"]
            if s.attrs["size"] == base_latent_size * lvl
        )
    m["pipeline.steps"] = len(by["scheduler.ddim_step"])
    m["pipeline.decode_s"] = total("pipeline.latent_to_image")

    m["scheduler.ddim_s"] = total("scheduler.ddim_step")
    m["scheduler.blend_s"] = total("scheduler.detail_blend")
    m["scheduler.blend_calls"] = len(by["scheduler.detail_blend"])
    m["scheduler.forward_noise_s"] = total("scheduler.forward_noise")
    m["vae.phi_upsample_s"] = total("vae.phi_upsample")
    m["vae.decode_s"] = total("vae.decode")
    m["fileio.write_ppm_s"] = total("fileio.write_ppm")
    m["cli.generate_s"] = total("cli.main")
    return m


def self_time_table(spans: list[Span]) -> dict[str, dict]:
    """Span name -> {"calls", "total_s", "self_s"} summed over the spans."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return dict(sorted(table.items()))


def median_metrics(per_image: list[dict[str, float]]) -> dict[str, float]:
    """Median over images; exact metrics (checked equal) keep their value."""
    return {
        k: v if k in EXACT_METRICS else statistics.median(m[k] for m in per_image)
        for k, v in per_image[0].items()
    }
