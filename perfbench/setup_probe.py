"""Set-up probe, run in a fresh interpreter: import freescale, build the
schedule, the weights and the autoencoder for the config given as the only
argument, then print ``ready``. The parent times spawn-to-``ready``.
"""

import json
import sys

from freescale.denoiser import init_weights
from freescale.pipeline import CascadeConfig
from freescale.scheduler import make_schedule
from freescale.vae import make_autoencoder

with open(sys.argv[1]) as f:
    config = CascadeConfig.from_dict(json.load(f))
make_schedule(config.total_timesteps, config.steps)
init_weights(config.unet_config(), config.seed)
make_autoencoder(config.vae_patch, config.seed + 1)
print("ready", flush=True)
