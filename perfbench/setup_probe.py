"""Set-up work of one temsim run, in a fresh interpreter.

Imports temsim and loads and resolves one config (the ``default_mu_for``
fit and the ``delta_star`` search included), then exits before any path
is simulated. run.py times the whole process, interpreter start included.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG.yaml
"""

import sys

import temsim  # noqa: F401  (the import is part of what is timed)
from temsim.config import load_config, resolve_config

if __name__ == "__main__":
    resolve_config(load_config(sys.argv[1]))
