"""File formats: PPM/PGM images and JSON manifests."""

from __future__ import annotations

import json

import numpy as np


def write_ppm(path, image: np.ndarray) -> bytes:
    """Write a [1,3,H,W] float image (values clamped from [0,1]) as binary
    PPM (P6, maxval 255). Returns the emitted bytes.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 4 or image.shape[0] != 1 or image.shape[1] != 3:
        raise ValueError(f"expected [1,3,H,W] image, got shape {image.shape}")
    h, w = image.shape[2:]
    pixels = np.clip(image[0], 0.0, 1.0)
    bytes_hw3 = np.round(pixels * 255.0).astype(np.uint8).transpose(1, 2, 0)
    payload = f"P6\n{w} {h}\n255\n".encode("ascii") + bytes_hw3.tobytes()
    with open(path, "wb") as f:
        f.write(payload)
    return payload


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into a float [H,W] array in [0,1]."""
    with open(path, "rb") as f:
        data = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: expected P5 PGM, got {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image is {w}x{h}, need at least 1x1")
    pos += 1  # single whitespace after the header
    raster = np.frombuffer(data[pos : pos + w * h], dtype=np.uint8)
    if raster.size != w * h:
        raise ValueError(f"{path}: truncated raster")
    return (raster.reshape(h, w).astype(np.float32) / 255.0).astype(np.float32)


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
