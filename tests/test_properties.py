"""Property tests over small configs: every valid config runs to a finite,
reproducible latent, and a bad value in one field is either rejected as a
config error or harmless (the run completes). Examples are derandomized so
the suite draws the same cases on every run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freescale.pipeline import CascadeConfig, ConfigError, run


# 8^2 base latent, width-8 UNet: a run takes tens of milliseconds.
_SMALL = {
    "prompt": "property scene",
    "levels": [1, 2],
    "steps": 4,
    "base_latent_size": 8,
    "vae_patch": 2,
    "base_width": 8,
    "time_embedding_dim": 16,
    "cond_dim": 8,
    "upsample_space": "latent",
}
MASK = np.linspace(0.0, 1.0, 256, dtype=np.float32).reshape(16, 16)


@st.composite
def valid_configs(draw):
    return CascadeConfig(**dict(
        _SMALL,
        levels=draw(st.sampled_from([(1,), (1, 2)])),
        steps=draw(st.integers(2, 6)),
        dilation_enabled=draw(st.booleans()),
        fusion_enabled=draw(st.booleans()),
        blend_enabled=draw(st.booleans()),
        upsample_space=draw(st.sampled_from(["rgb", "latent"])),
        blur_mode=draw(st.sampled_from(["gaussian", "ideal_lowpass"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    ))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(config=valid_configs(), masked=st.booleans())
def test_valid_config_runs_finite_and_reproducible(config, masked):
    mask = MASK if masked else None
    first = run(config, mask=mask)
    second = run(config, mask=mask)
    size = config.base_latent_size * config.levels[-1]
    assert first["latent"].shape == (1, 3 * config.vae_patch**2, size, size)
    assert np.all(np.isfinite(first["latent"]))
    assert first["latent"].tobytes() == second["latent"].tobytes()
    assert first["image"].tobytes() == second["image"].tobytes()


# any JSON value, bounded so that an accepted one still gives a small run
_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(-3.0, 3.0),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 4), st.floats(0.0, 4.0), st.booleans()), max_size=3),
    st.dictionaries(st.text(max_size=2), st.one_of(st.integers(-1, 3), st.floats(-1.0, 3.0),
                                                   st.text(max_size=2)), max_size=2),
)
# out-of-range values of the right kind, per field annotation
_OUT_OF_RANGE = {
    "int": st.integers(-3, 0),
    "float": st.one_of(st.floats(-3.0, 0.0), st.floats(0.0, 0.002), st.floats(1.001, 3.0)),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "tuple": st.lists(st.integers(-2, 5), max_size=4),
}
_FIELDS = {f.name: f.type for f in dataclasses.fields(CascadeConfig)}


@pytest.mark.parametrize("name", sorted(_FIELDS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bad_field_is_config_error_or_harmless(name, data):
    value = data.draw(st.one_of(_ANY_JSON, _OUT_OF_RANGE[_FIELDS[name]]), label=name)
    try:
        config = CascadeConfig.from_dict(dict(_SMALL, **{name: value}))
    except ConfigError:
        return
    # without a mask the run reads alpha_default, with one alpha_lo/alpha_hi
    for mask in (None, MASK):
        assert np.all(np.isfinite(run(config, mask=mask)["latent"]))
