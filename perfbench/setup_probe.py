"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR

Generates the workload's inputs first, then times from the start of
``import sentinelsim`` until the first operation could start, and prints
``{"setup_s": <seconds at the reference speed>, "raw_s": <host seconds>}``
(see speed.py). ``run.py`` runs several of these one after
another and reports their median as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import gen  # noqa: E402  (generates text only; does not import sentinelsim)
import speed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    texts = gen.prepare(args.workload, args.seed, ROOT, args.workdir)

    start = time.perf_counter()
    import workloads  # the first import of sentinelsim in this process

    workloads.CLASSES[args.workload](texts, args.seed, args.workdir)
    elapsed = time.perf_counter() - start
    scale = speed.REFERENCE_S / speed.kernel_seconds()
    print(json.dumps({"setup_s": elapsed * scale, "raw_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
