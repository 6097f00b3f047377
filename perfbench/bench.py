"""Measurement, correctness checks and reports of the freescale benchmark.

Load shape: a closed loop with one client. One process generates an image,
waits for it, checks it, then starts the next, until ``--seconds`` would be
exceeded (at least one image; two in a traced run).

End-to-end metrics (``--trace 0``), per workload:
  image_s      median wall seconds per image: one in-process
               ``freescale.cli.main(["generate", ...])`` call for a cascade
               workload, one ``pipeline.direct_generate`` call for direct-x4
  image_cpu_s  median process CPU seconds (user + sys) per image
  setup_s      median seconds from a fresh interpreter to ready (import,
               schedule, weights, autoencoder), over SETUP_REPEATS spawns
  peak_rss_mb  peak resident memory of this workload's process
Failed images over images attempted (failed_frac) is printed and carried
by the ``attempted``/``failed`` fields of the result line.

Per-layer metrics (``--trace 1``) come from a separate run that alternates
untraced and traced images; see ``spans.py``. The traced image_s minus the
untraced image_s is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYER_METRICS, EXACT_METRICS, Tracer, image_metrics, median_metrics, self_time_table
from workloads import DEFAULT_SEED, WORKLOADS, Workload, config_for, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

END_TO_END = {"image_s": "s", "image_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {**LAYER_METRICS, "bench.traced_image_s": "s", "bench.trace_overhead_s": "s"}


class Failure(Exception):
    """An image that exited nonzero, raised, or failed a correctness check."""


def import_program():
    """Import freescale from this checkout's ``src``; (cli, pipeline)."""
    if not (SRC / "freescale" / "__init__.py").is_file():
        raise SystemExit(f"error: freescale sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freescale
    from freescale import cli, pipeline

    if SRC.resolve() not in Path(freescale.__file__).resolve().parents:
        raise SystemExit(f"error: freescale imported from {freescale.__file__}, not {SRC}")
    return cli, pipeline


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "FREESCALE_THREADS": os.environ.get("FREESCALE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "load": "closed loop, 1 client",
    }


def check_ppm(payload: bytes, size: int) -> None:
    header = f"P6\n{size} {size}\n255\n".encode("ascii")
    if not payload.startswith(header) or len(payload) != len(header) + 3 * size * size:
        raise Failure(f"PPM is not a {size}x{size} P6 image")
    raster = np.frombuffer(payload, dtype=np.uint8, offset=len(header))
    if raster.min() == raster.max():
        raise Failure("PPM is a constant image")


def check_latent(latent, shape: tuple) -> None:
    if not isinstance(latent, np.ndarray) or latent.shape != shape or latent.dtype != np.float32:
        raise Failure(f"latent is not a float32 array of shape {shape}")
    if not np.all(np.isfinite(latent)):
        raise Failure("latent has non-finite values")


def _timed(fn, *args):
    """(wall_s, cpu_s, result, error) of one call; an exception is the error."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = error = None
    try:
        result = fn(*args)
    except SystemExit as e:  # argparse exits instead of returning a code
        result = e.code
    except Exception as e:
        error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, time.process_time() - c0, result, error


def _check_cascade(workload: Workload, code, out: Path, stdout: str, stderr: str) -> str:
    if code != 0:
        raise Failure(f"exit code {code}: {stderr.strip()}")
    payload = out.read_bytes()
    check_ppm(payload, workload.image_size)
    digest = hashlib.sha256(payload).hexdigest()
    if f"checksum={digest}" not in stdout.splitlines():
        raise Failure("printed checksum disagrees with the written PPM")
    return digest


def _check_direct(workload: Workload, latent) -> str:
    channels = 3 * workload.config["vae_patch"] ** 2
    check_latent(latent, (1, channels, workload.latent_size, workload.latent_size))
    return hashlib.sha256(np.ascontiguousarray(latent, "<f4").tobytes()).hexdigest()


def generate(workload: Workload, inputs: dict, workdir: Path, cli, pipeline):
    """Produce and check one image; returns (wall_s, cpu_s, digest, error
    or None). Only the program call is timed."""
    if workload.kind == "cascade":
        out = workdir / "image.ppm"
        argv = ["generate", "--config", str(inputs["config"]), "--out", str(out)]
        if inputs["mask"] is not None:
            argv += ["--mask", str(inputs["mask"])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            wall, cpu, code, error = _timed(cli.main, argv)

        def check():
            return _check_cascade(workload, code, out, stdout.getvalue(), stderr.getvalue())
    else:
        # a fresh config per image: run() writes into the config it is given
        with open(inputs["config"]) as f:
            config = pipeline.CascadeConfig.from_dict(json.load(f))
        wall, cpu, latent, error = _timed(pipeline.direct_generate, config, config.levels[-1])

        def check():
            return _check_direct(workload, latent)
    digest = None
    if error is None:
        try:
            digest = check()
        except (Failure, OSError) as e:
            error = str(e)
    return wall, cpu, digest, error


def expected_digest(workload: Workload, seed: int) -> str | None:
    """The committed digest at the workload's default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text()).get(workload.name)


def run_images(workload: Workload, seed: int, seconds: float, expected: str | None,
               tracer: Tracer | None = None) -> list[dict]:
    """The closed loop. Every image must give the same bytes: the expected
    digest if one is given, else the first good image's. With a tracer,
    odd-numbered images run traced and even ones untraced."""
    cli, pipeline = import_program()
    workdir = OUT / f"run-{os.getpid()}"
    inputs = write_inputs(workload, seed, workdir)
    reference = expected
    records = []
    start = time.perf_counter()
    try:
        while True:
            i = len(records)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.image = i
            with tracer if traced else contextlib.nullcontext():
                wall, cpu, digest, error = generate(workload, inputs, workdir, cli, pipeline)
            if error is None:
                if reference is None:
                    reference = digest
                elif digest != reference:
                    error = f"output digest {digest} != expected {reference}"
            records.append({"image": i, "traced": traced, "wall": wall, "cpu": cpu,
                            "digest": digest, "error": error})
            elapsed = time.perf_counter() - start
            enough = tracer is None or len(records) >= 2
            if enough and elapsed + wall > seconds:
                return records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: Workload, seed: int, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it prints ``ready``."""
    workdir = OUT / f"setup-{os.getpid()}"
    inputs = write_inputs(workload, seed, workdir)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(inputs["config"])]
    times = []
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            with subprocess.Popen(probe, stdout=subprocess.PIPE, env=env, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            if line.strip() != "ready" or code != 0:
                raise SystemExit(f"error: set-up probe failed (exit code {code})")
            times.append(elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def _result(correct: bool, records: list[dict], metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def _print_failures(records: list[dict]) -> None:
    failed = [r for r in records if r["error"] is not None]
    print(f"failed_frac={len(failed) / len(records):.4f} ({len(failed)} of {len(records)} images)")
    for r in failed:
        print(f"  image {r['image']} failed: {r['error']}")


def end_to_end(workload: Workload, seed: int, seconds: float) -> int:
    setup = measure_setup(workload, seed, SETUP_REPEATS)
    records = run_images(workload, seed, seconds, expected_digest(workload, seed))
    metrics = {
        "image_s": statistics.median(r["wall"] for r in records),
        "image_cpu_s": statistics.median(r["cpu"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(records)
    notes = {
        "image_s": f"median of {n} images",
        "image_cpu_s": f"median of {n} images",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "this workload's process",
    }
    for name, unit in END_TO_END.items():
        print(f"{name}={metrics[name]:.6g} {unit}  ({notes[name]})")
    print("image wall_s: " + " ".join(f"{r['wall']:.3f}" for r in records))
    print(f"output_sha256={next((r['digest'] for r in records if r['error'] is None), None)}")
    _print_failures(records)
    correct = all(r["error"] is None for r in records)
    print(_result(correct, records, metrics, END_TO_END))
    return 0


def traced(workload: Workload, seed: int, seconds: float) -> int:
    tracer = Tracer()
    records = run_images(workload, seed, seconds, expected_digest(workload, seed), tracer)
    good = [r for r in records if r["traced"] and r["error"] is None]
    plain = [r["wall"] for r in records if not r["traced"] and r["error"] is None]
    base = workload.config["base_latent_size"]
    per_image = [image_metrics([s for s in tracer.spans if s.image == r["image"]], base)
                 for r in good]
    correct = all(r["error"] is None for r in records) and bool(good)
    metrics = median_metrics(per_image) if per_image else dict.fromkeys(LAYER_METRICS, 0.0)
    for name in sorted(EXACT_METRICS):
        values = {m[name] for m in per_image}
        if len(values) > 1:
            correct = False
            print(f"count {name} differs between traced images: {sorted(values)}")
    traced_s = statistics.median(r["wall"] for r in good) if good else 0.0
    plain_s = statistics.median(plain) if plain else 0.0
    metrics["bench.traced_image_s"] = traced_s
    metrics["bench.trace_overhead_s"] = traced_s - plain_s if good and plain else 0.0

    print(f"per-layer metrics, median per image over {len(good)} traced images:")
    for name, unit in TRACE_METRICS.items():
        print(f"  {name}={metrics[name]:.6g} {unit}")
    print(f"tracing overhead={metrics['bench.trace_overhead_s']:.6g} s per image "
          f"(traced {traced_s:.6g} s over {len(good)} images, "
          f"untraced {plain_s:.6g} s over {len(plain)})")
    print("self-time table, summed over traced images (name calls total_s self_s):")
    good_images = {r["image"] for r in good}
    for name, row in self_time_table([s for s in tracer.spans if s.image in good_images]).items():
        print(f"  {name:28s} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    _print_failures(records)

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.jsonl", "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "image": s.image, **s.attrs}) + "\n")
    print(_result(correct, records, metrics, TRACE_METRICS))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, then a summary that adds
    cascade-x4's image_s over direct-x4's (overhead_ratio, informational)."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(f"== {name}\n{proc.stdout}", end="")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    if not trace:
        ratio = (results["cascade-x4"]["metrics"]["image_s"]["value"]
                 / results["direct-x4"]["metrics"]["image_s"]["value"])
        print(f"overhead_ratio={ratio:.4f} (cascade-x4 image_s / direct-x4 image_s)")
        metrics["overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workload = WORKLOADS[args.workload]
    import_program()
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload={workload.name} seed={args.seed} config_seed={config_for(workload, args.seed)['seed']}"
          f" trace={args.trace}: {workload.why}")
    run = traced if args.trace else end_to_end
    return run(workload, args.seed, args.seconds)
