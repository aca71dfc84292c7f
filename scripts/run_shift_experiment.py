#!/usr/bin/env python3
"""End-to-end covariate-shift demo driven through the CLI.

Writes the benchmark's ``shift`` workspace (``perfbench/workloads.py``): a
2-class Gaussian problem with train/valid/test CSVs, a trained softmax
checkpoint, a rule schema and a YAML config, where the test features are
scaled x3. Then runs mine -> evaluate -> adapt and prints the violation
counts before and after adaptation. The tables and the model are the same
for every seed; ``--seed`` picks the evaluation and adaptation batch
streams.

Usage:
    python scripts/run_shift_experiment.py --workdir /tmp/shift_demo
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from quantrules.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="shift_demo")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    config = WORKLOADS["shift"].write(args.workdir, args.seed)
    print(f"workspace ready at {config.parent}")
    for command in ("mine", "evaluate", "adapt"):
        print(f"--- {command} ---")
        code = cli_main([command, "--config", str(config)])
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
