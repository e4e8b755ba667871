"""Golden report digests: the gate that keeps reports byte-identical.

A fixed grid of scenarios x seeds x configs is run through the library path
and rendered in both formats. ``check`` replays every cell twice, requires
identical bytes from both replays and compares their SHA-256 with the
digests committed in ``golden.json``. The digests were taken from this
code, not from hardware: they pin the program's behaviour, they do not
validate the model.

Regenerate the digests (only when a report change is intended) with

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

import gen

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SEEDS = (0, 1, 12345)

CONFIGS = {
    "default": {},
    "lossy": {"drop_probability": "0.3", "latency_ms": "20"},
    "storm": {
        "drop_probability": "0.5", "max_retries": "4", "latency_ms": "25",
        "presence_to_authorities": "true",
    },
}

FORMATS = ("text", "structured")


def grid_scenarios(root: str) -> List[Tuple[str, str]]:
    out = []
    for name in ("breakin", "deactivate"):
        with open(os.path.join(root, "scenarios", f"{name}.scn"), encoding="utf-8") as fh:
            out.append((name, fh.read()))
    out += [
        ("mixed-a", gen.scenario_text(101, 40)),
        ("mixed-b", gen.scenario_text(102, 40)),
        ("doors", gen.scenario_text(201, 400, "doors", armed=True)),
        ("mixed-long", gen.scenario_text(301, 2000)),
    ]
    return out


def render_grid(root: str) -> Dict[str, bytes]:
    """Report bytes of every grid cell, keyed scenario|seed|config|format."""
    from sentinelsim import engine, report, scenario

    out = {}
    for name, text in grid_scenarios(root):
        parsed = scenario.parse_scenario(text, name=name)
        for seed in SEEDS:
            for cfg_name, overrides in CONFIGS.items():
                result = engine.run(parsed, seed=seed, cli_overrides=overrides)
                for fmt in FORMATS:
                    out[f"{name}|{seed}|{cfg_name}|{fmt}"] = report.render_report(result, fmt)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(root: str) -> Tuple[int, List[str]]:
    """Replay the grid twice; return (cells checked, problems)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    try:
        first, second = render_grid(root), render_grid(root)
    except Exception as exc:  # a crashing program fails the whole gate
        return len(expected), [f"grid run raised {type(exc).__name__}: {exc}"] * len(expected)
    problems = []
    for key, want in sorted(expected.items()):
        got = first.get(key)
        if got is None:
            problems.append(f"{key}: not rendered")
        elif got != second[key]:
            problems.append(f"{key}: two replays differ")
        elif digest(got) != want:
            problems.append(f"{key}: digest {digest(got)[:12]} != golden {want[:12]}")
    return len(expected), problems


def main(argv: List[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if argv != ["--write"]:
        print("usage: python3 perfbench/golden.py --write", file=sys.stderr)
        return 2
    digests = {key: digest(data) for key, data in sorted(render_grid(root).items())}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
