import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from freescale import cli, fileio, oracle
from freescale.cli import main
from freescale.pipeline import CascadeConfig, ConfigError, NumericError


def write_config(tmp_path, **overrides):
    cfg = {
        "prompt": "cli test scene",
        "levels": [1, 2],
        "steps": 10,
        "base_latent_size": 8,
        "vae_patch": 2,
        "base_width": 8,
        "time_embedding_dim": 16,
        "cond_dim": 8,
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_pgm(path, gray):
    """Write an [H,W] array of [0,1] values as a binary PGM (P5, maxval 255)."""
    h, w = gray.shape
    raster = np.round(np.clip(gray, 0.0, 1.0) * 255.0).astype(np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + raster.tobytes())


class TestGenerate:
    def test_success_and_manifest_checksum(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "img.ppm"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = out.read_bytes()
        assert payload.startswith(b"P6\n32 32\n255\n")
        manifest = json.loads((tmp_path / "img.ppm.manifest.json").read_text())
        assert manifest["output_sha256"] == hashlib.sha256(payload).hexdigest()
        assert manifest["seed"] == 3
        stdout = capsys.readouterr().out
        assert f"checksum={manifest['output_sha256']}" in stdout
        # stdout is line-oriented key=value
        for line in stdout.strip().splitlines():
            assert "=" in line

    def test_descending_levels_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, levels=[2, 1])
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")]) == 2
        assert "levels must be 1, 2, 4, ..." in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spurious=True)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.json")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        assert main(["generate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["generate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        main(["generate", "--config", str(cfg), "--out", str(out1)])
        main(["generate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_mask_input(self, tmp_path):
        cfg = write_config(tmp_path)
        mask_path = tmp_path / "mask.pgm"
        mask = np.zeros((16, 16), np.float32)
        mask[:, :8] = 1.0
        write_pgm(mask_path, mask)
        out1, out2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        assert main(["generate", "--config", str(cfg), "--out", str(out1),
                     "--mask", str(mask_path)]) == 0
        main(["generate", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [None, b"P5\n0 0\n255\n", b"P5\n0 4\n255\n", b"P5\n4 4\n255\n\x00",
         b"P6\n1 1\n255\n\x00"],
    )
    def test_unreadable_mask_exit_2(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path)
        mask = tmp_path / "mask.pgm"
        if payload is not None:  # None: no mask file at all
            mask.write_bytes(payload)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm"),
                     "--mask", str(mask)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read mask")

    def test_bad_seed_override_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm"),
                     "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "under_file"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, where):
        cfg = write_config(tmp_path)

        def no_run(*args, **kwargs):
            raise AssertionError("the cascade ran before --out was checked")

        monkeypatch.setattr(cli, "run", no_run)
        if where == "directory":
            out = tmp_path  # an existing directory
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "x.ppm"  # its parent is a regular file
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


    @pytest.mark.parametrize("existing", [None, b"an older image"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, existing):
        cfg = write_config(tmp_path)
        out = tmp_path / "new_dir" / "x.ppm"
        if existing is not None:
            out.parent.mkdir()
            out.write_bytes(existing)

        def failing_run(*args, **kwargs):
            assert out.exists()  # opened before the cascade runs
            raise NumericError("non-finite values in decoded image")

        monkeypatch.setattr(cli, "run", failing_run)
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 3
        if existing is None:
            assert not out.exists()  # no empty image left behind
        else:
            assert out.read_bytes() == existing
        assert not (tmp_path / "new_dir" / "x.ppm.manifest.json").exists()

    def test_unwritable_manifest_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "x.ppm"
        manifest = tmp_path / "x.ppm.manifest.json"
        manifest.mkdir()  # an existing directory

        def no_run(*args, **kwargs):
            raise AssertionError("the cascade ran before the manifest path was checked")

        monkeypatch.setattr(cli, "run", no_run)
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {manifest}")
        assert not out.exists()  # the image opened before it is removed again
        assert manifest.is_dir()


def test_readme_example_loads():
    # the minimal config in README.md obeys the config rules
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"Minimal example:\n\n```json\n(.*?)```", readme, re.S).group(1)
    config = CascadeConfig.from_dict(json.loads(example))
    assert config.levels == (1, 2, 4)


class TestBench:
    def test_both_arms_report_ratio(self, tmp_path, capsys):
        cfg = write_config(tmp_path, steps=5)
        assert main(["bench", "--config", str(cfg), "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "direct_median_s=" in out
        assert "cascade_median_s=" in out
        assert "ratio=" in out


class TestConfigErrors:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha_per_level": {"2": 1.0}},  # no field: every level uses alpha_default
            {"steps": "10"},
            {"steps": 10, "injection_step": 50},
            {"seed": -1},
            {"levels": [1, 4]},  # levels lists every doubling
            {"alpha_lo": 0.0005},
            {"levels": [1, 2.7]},
            {"blur_mode": "box"},
            {"upsample_space": "pixel"},
            {"prompt": "\ud800"},
            {"base_latent_size": 20},  # window 5 does not tile the 10x10 level-2 mid map
            {"steps": 1001},  # more steps than the model's 1000 timesteps
            # too large to allocate on any host, so nothing is allocated:
            {"vae_patch": 10**6},  # weights of 1.5 PiB, past the 128 TiB address space
            {"base_latent_size": 4 * 10**8},  # a first latent past numpy's largest array
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_config_error_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        extra = []
        if command == "generate":
            # a mask makes the run read alpha_lo/alpha_hi
            mask = tmp_path / "mask.pgm"
            write_pgm(mask, np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16))
            extra = ["--out", str(tmp_path / "x.ppm"), "--mask", str(mask)]
        assert main([command, "--config", str(cfg), *extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "payload",
        [b'{"prompt": "\xff"}',  # not UTF-8
         b"[" * 100_000 + b"]" * 100_000],  # nested past the recursion limit
        ids=["not-utf8", "too-deep"],
    )
    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, command, payload):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(payload)
        extra = ["--out", str(tmp_path / "x.ppm")] if command == "generate" else []
        assert main([command, "--config", str(cfg), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {cfg} is not valid UTF-8 JSON")

    # an error message shows a rejected value as a repr cut short, and
    # unknown keys as a few keys, each cut short, and how many more there are
    @pytest.mark.parametrize(
        "overrides",
        [{"prompt": [0] * 10**6}, {"levels": [0] * 10**6}, {"levels": [1, 2.5] + [0] * 10**6},
         {"k" * 10**6: 1}, {f"k{i}": 1 for i in range(10**5)}],
        ids=["prompt", "levels-doubling", "levels-integers", "long-key", "many-keys"],
    )
    def test_huge_rejected_value_exits_2_briefly(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode("utf-8")) < 1024, len(err)

    # constants of the method, held by the components that use them
    @pytest.mark.parametrize(
        "key",
        ["blur_sigma", "blur_cutoff", "dilation_stop_fraction", "down_blocks",
         "latent_upsample_mode", "total_timesteps"],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
            CascadeConfig.from_dict({key: 1})
        # a blur sigma of 1e300 would ask for a Gaussian kernel too large to allocate
        cfg = write_config(tmp_path, **{key: 1e300})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.ppm")]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
        assert not (tmp_path / "x.ppm").exists()

    @pytest.mark.parametrize("repeat", ["0", "-3"])
    def test_non_positive_repeat_exits_2(self, tmp_path, capsys, repeat):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--config", str(cfg), "--repeat", repeat])
        assert exit_info.value.code == 2
        assert "--repeat: must be a positive integer" in capsys.readouterr().err

    def test_untiled_window_runs_without_fusion(self, tmp_path):
        cfg = write_config(tmp_path, base_latent_size=20, fusion_enabled=False)
        out = tmp_path / "img.ppm"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P6\n80 80\n255\n")


class TestOracle:
    def test_all_checks_pass(self, capsys):
        assert main(["oracle", "--check", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("conv", "ddim", "fusion", "attention", "patch", "blend"):
            assert f"check_{name}=pass" in out

    def test_single_check(self, capsys):
        assert main(["oracle", "--check", "blend"]) == 0
        out = capsys.readouterr().out
        assert "check_blend=pass" in out
        assert "check_conv" not in out

    # a mutation runs the check it breaks, whichever check is named
    @pytest.mark.parametrize("check", ["all", "conv"])
    def test_fusion_sign_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "fusion-sign"]) == 1
        assert "check_fusion=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "fusion"])
    def test_dilate_up_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "dilate-up"]) == 1
        assert "check_conv=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "blend"])
    def test_attention_scale_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "attention-scale"]) == 1
        assert "check_attention=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "ddim"])
    def test_overlap_order_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "overlap-order"]) == 1
        assert "check_patch=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "attention"])
    def test_conv_tap_order_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "conv-tap-order"]) == 1
        assert "check_conv=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "patch"])
    def test_cfg_order_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "cfg-order"]) == 1
        assert "check_ddim=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "conv"])
    def test_fusion_grouping_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "fusion-grouping"]) == 1
        assert "check_fusion=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "blend"])
    def test_noise_grouping_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "noise-grouping"]) == 1
        assert "check_ddim=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "fusion"])
    def test_ddim_grouping_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "ddim-grouping"]) == 1
        assert "check_ddim=fail" in capsys.readouterr().out

    @pytest.mark.parametrize("check", ["all", "ddim"])
    def test_blend_grouping_mutation_detected(self, capsys, check):
        assert main(["oracle", "--check", check, "--mutate", "blend-grouping"]) == 1
        assert "check_blend=fail" in capsys.readouterr().out

    def test_every_mutation_has_a_test(self):
        tested = {name.removeprefix("test_").removesuffix("_mutation_detected").replace("_", "-")
                  for name in dir(self) if name.endswith("_mutation_detected")}
        assert tested == set(oracle.MUTATIONS)

    def test_every_mutation_in_readme(self):
        # the CLI block lists the names: `--mutate <name>  # or: <name>, ...`
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        first, others = re.search(r"--mutate (\S+)\s+# or: (.*)", readme).groups()
        assert {first, *others.split(", ")} == set(oracle.MUTATIONS)


class TestFileio:
    def test_pgm_round_trip(self, tmp_path):
        path = tmp_path / "m.pgm"
        gray = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
        write_pgm(path, gray)
        back = fileio.read_pgm(path)
        assert back.shape == (3, 4)
        np.testing.assert_allclose(back, gray, atol=1 / 255.0 + 1e-6)

    def test_pgm_with_comment(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 200, 255]))
        back = fileio.read_pgm(path)
        np.testing.assert_allclose(back.ravel() * 255, [0, 128, 200, 255], atol=1e-4)

    def test_ppm_payload_format(self, tmp_path):
        img = np.zeros((1, 3, 2, 2), np.float32)
        img[0, 0] = 1.0
        payload = fileio.write_ppm(tmp_path / "x.ppm", img)
        assert payload == b"P6\n2 2\n255\n" + bytes([255, 0, 0]) * 4
