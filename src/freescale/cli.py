"""Command-line front end: generation runs, baseline benchmarking, and
oracle verification. Standard output is line-oriented key=value; manifests
are JSON; images are binary PPM.

Exit codes: 0 ok, 1 oracle failure, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio, oracle
from .pipeline import CascadeConfig, ConfigError, NumericError, direct_generate, run

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(path: str) -> CascadeConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    # ValueError: not UTF-8 (UnicodeDecodeError) or not JSON (JSONDecodeError);
    # RecursionError: arrays or objects nested past the interpreter's limit
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return CascadeConfig.from_dict(raw)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _load_mask(path: str) -> np.ndarray:
    try:
        return fileio.read_pgm(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read mask: {e}") from e


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError while writing path into a config error naming it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    mask = _load_mask(args.mask) if args.mask else None
    out = Path(args.out)
    manifest_path = Path(f"{out}.manifest.json")
    created = []  # removed again if the call fails: leave no partial output behind
    try:
        # an unwritable output fails before any level runs
        for path in (out, manifest_path):
            with _writing(path):
                existed = path.exists()
                path.parent.mkdir(parents=True, exist_ok=True)
                path.open("ab").close()
            if not existed:
                created.append(path)
        result = run(config, mask=mask)
        manifest = dict(result["manifest"])
        with _writing(out):
            payload = fileio.write_ppm(out, result["image"])
        checksum = hashlib.sha256(payload).hexdigest()
        manifest["output_sha256"] = checksum
        with _writing(manifest_path):
            fileio.write_manifest(manifest_path, manifest)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise

    print(f"out={out}")
    print(f"manifest={manifest_path}")
    print(f"checksum={checksum}")
    for record in manifest["levels"]:
        print(
            f"level={record['level']} wall_ms={record['wall_ms']} "
            f"latent_mean={record['latent_mean']:.6f} latent_std={record['latent_std']:.6f}"
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    final_level = config.levels[-1]
    direct_times, cascade_times = [], []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        direct_generate(config, final_level)
        direct_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(config)
        cascade_times.append(time.perf_counter() - t0)

    direct, cascade = statistics.median(direct_times), statistics.median(cascade_times)
    print(f"direct_median_s={direct:.4f}")
    print(f"cascade_median_s={cascade:.4f}")
    print(f"ratio={cascade / direct:.4f}")
    print(f"repeat={args.repeat}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    names = oracle.CHECKS if args.check == "all" else (args.check,)
    results = oracle.run_checks(names, mutate=args.mutate)
    ok = True
    for r in results:
        ok = ok and r.passed
        print(f"check_{r.name}={'pass' if r.passed else 'fail'} max_dev={r.max_dev:.3e}")
    print(f"oracle={'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freescale",
        description="Deterministic tuning-free high-resolution diffusion cascade (toy scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the cascade and write image + manifest")
    gen.add_argument("--config", required=True, help="JSON config path")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.add_argument("--out", default="out.ppm", help="output image path (PPM)")
    gen.add_argument("--mask", default=None, help="grayscale PGM detail-weight mask")
    gen.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="time cascade vs direct inference")
    bench.add_argument("--config", required=True)
    bench.add_argument("--repeat", type=_positive_int, default=3)
    bench.set_defaults(func=cmd_bench)

    orc = sub.add_parser("oracle", help="run brute-force verification suites")
    orc.add_argument("--check", choices=(*oracle.CHECKS, "all"), default="all")
    orc.add_argument(
        "--mutate",
        choices=tuple(oracle.MUTATIONS),
        default=None,
        help=argparse.SUPPRESS,  # self-test: inject a known-bad variant
    )
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
