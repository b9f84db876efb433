"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files that ``run.py`` writes under
``perfbench/out/``, or directories of them (files are paired by name,
so run both sides with the same workloads, seeds and ``--trace``).
Every metric present on both sides is printed with its base value, the
new value and the ratio new/base; per-layer rows also name the
end-to-end metric the layer is predicted to move, so a saving can be
traced to the layer where it appears.  Ratios stay comparable across
machines of different speed, where absolute seconds do not.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYER_METRICS  # noqa: E402

PREDICTS = {name: predicts for name, _unit, predicts in LAYER_METRICS}


def _pairs(base: Path, new: Path):
    if base.is_file() and new.is_file():
        return [(base, new)]
    names = sorted(
        path.name for path in base.glob("*.json")
        if (new / path.name).is_file()
    )
    return [(base / name, new / name) for name in names]


def compare(base: Path, new: Path) -> list[str]:
    lines = []
    for base_file, new_file in _pairs(base, new):
        old = json.loads(base_file.read_text())
        cur = json.loads(new_file.read_text())
        lines.append(f"== {old['workload']} seed {old['seed']} "
                     f"trace {old['trace']}")
        lines.append(f"{'metric':26s} {'base':>12s} {'new':>12s} "
                     f"{'new/base':>9s}  unit  predicted to move")
        new_metrics = cur["result"]["metrics"]
        for name, entry in old["result"]["metrics"].items():
            if name not in new_metrics:
                continue
            was, now = entry["value"], new_metrics[name]["value"]
            ratio = f"{now / was:9.3f}" if was else f"{'-':>9s}"
            lines.append(
                f"{name:26s} {was:12.6g} {now:12.6g} {ratio}  "
                f"{entry['unit']:5s} {PREDICTS.get(name, '')}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines = compare(args.base, args.new)
    if not lines:
        print("no result files in common", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
