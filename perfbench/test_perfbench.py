"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in WORKLOADS.values():
        paths = [write_inputs(workload, 5, tmp_path / f"{workload.name}-{i}") for i in range(2)]
        other = write_inputs(workload, 6, tmp_path / f"{workload.name}-other")
        assert (paths[0]["mask"] is not None) == workload.masked
        for key, path in paths[0].items():
            if path is not None:
                assert path.read_bytes() == paths[1][key].read_bytes()
                assert path.read_bytes() != other[key].read_bytes()
        assert json.loads(paths[0]["config"].read_text())["seed"] == 5


def test_metric_names_and_benchmark_json_agree():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in [*bench.END_TO_END, *bench.TRACE_METRICS, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.TRACE_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_self_time_on_synthetic_tree():
    tree = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),  # overlaps a: the union counts once
        Span(3, "c", 8.0, 12.0, 0, 0),  # clipped to the parent's end
        Span(4, "d", 2.5, 3.0, 2, 0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 2.5, 3: 4.0, 4: 0.5})
    table = spans.self_time_table(tree)
    assert table["b"] == pytest.approx({"calls": 1, "total_s": 3.0, "self_s": 2.5})


def test_layer_metrics_on_synthetic_tree():
    tree = [
        Span(0, "denoiser.predict_noise", 0.0, 1.0, None, 0, {"size": 32}),
        Span(1, "tensor_ops.conv2d", 0.0, 0.25, 0, 0, {"macs": 10**9, "dilation": 2}),
        Span(2, "attention.fused_attention", 0.5, 0.9, 0, 0, {"tokens": 64}),
        Span(3, "attention.self_attention", 0.5, 0.6, 2, 0, {"tokens": 64}),
        Span(4, "attention.self_attention", 0.6, 0.65, 2, 0, {"tokens": 16}),
        Span(5, "attention.self_attention", 0.65, 0.7, 2, 0, {"tokens": 16}),
        Span(6, "tensor_ops.lowpass", 0.8, 0.85, 2, 0),
    ]
    m = spans.image_metrics(tree, base_latent_size=16)
    assert set(m) == set(spans.LAYER_METRICS)
    assert m["tensor_ops.conv2d_gmac_per_s"] == pytest.approx(4.0)
    assert m["tensor_ops.conv2d_dilated_frac"] == 1.0
    assert m["attention.local_calls"] == 2
    assert m["attention.local_token_ratio"] == pytest.approx(0.5)
    assert m["attention.global_tokens_max"] == 64
    assert m["attention.fused_self_s"] == pytest.approx(0.4 - 0.2 - 0.05)
    assert m["denoiser.self_s"] == pytest.approx(1.0 - 0.25 - 0.4)
    assert m["denoiser.forward_ms_p50"] == pytest.approx(1000.0)


def test_tracer_nests_spans_and_restores_wrapped_attributes():
    bench.import_program()
    from freescale import denoiser, pipeline
    from freescale.pipeline import CascadeConfig

    config = CascadeConfig(levels=(1,), steps=1, base_latent_size=8, base_width=4,
                           time_embedding_dim=8, cond_dim=4)
    original = denoiser.conv2d
    tracer = spans.Tracer()
    tracer.image = 7
    with tracer:
        assert denoiser.conv2d is not original
        pipeline.direct_generate(config, 1)
    assert denoiser.conv2d is original
    by_id = {s.id: s for s in tracer.spans}
    conv = [s for s in tracer.spans if s.name == "tensor_ops.conv2d"]
    assert conv and all(by_id[s.parent].name == "denoiser.predict_noise" for s in conv)
    assert {s.image for s in tracer.spans} == {7}


def test_correctness_checks_reject_bad_outputs():
    size = 4
    header = f"P6\n{size} {size}\n255\n".encode()
    good = header + bytes(range(3 * size * size))
    bench.check_ppm(good, size)
    for bad in (good[:-1], header + bytes(3 * size * size), good.replace(b"P6", b"P5")):
        with pytest.raises(bench.Failure):
            bench.check_ppm(bad, size)
    bench.check_latent(np.zeros((1, 12, 4, 4), np.float32), (1, 12, 4, 4))
    with pytest.raises(bench.Failure):
        bench.check_latent(np.full((1, 12, 4, 4), np.nan, np.float32), (1, 12, 4, 4))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_matches_committed_digest(name):
    workload = WORKLOADS[name]
    expected = bench.expected_digest(workload, DEFAULT_SEED)
    assert expected is not None
    records = bench.run_images(workload, DEFAULT_SEED, 0, expected)
    assert [r["error"] for r in records] == [None]


def test_tampered_digest_is_a_failed_image():
    workload = WORKLOADS["direct-x4"]
    records = bench.run_images(workload, DEFAULT_SEED, 0, "0" * 64)
    assert len(records) == 1
    assert "digest" in records[0]["error"]


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct-x4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
