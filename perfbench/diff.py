"""Compare two benchmark records and name the layer that moved.

    python3 perfbench/diff.py BASE.json NEW.json

Each file is a run record (``run.py --record``) or a repeat summary
(``repeat.py``); summaries compare by median.  End-to-end metrics are
checked against their bounds from ``BENCHMARK.json``; per-layer metrics are
grouped by layer (the part of the name before the first dot) and every
layer whose largest relative change exceeds ``LAYER_MOVE_THRESHOLD`` is
named, the largest mover first.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import load_spec  # noqa: E402

#: Relative change of a per-layer metric that counts as its layer moving.
LAYER_MOVE_THRESHOLD = 0.1


def metric_values(path: Path) -> Dict[str, float]:
    doc = json.loads(path.read_text())
    if "result" in doc:  # a run record
        return {k: v["value"] for k, v in doc["result"]["metrics"].items()}
    return {k: v["median"] for k, v in doc["metrics"].items()}  # a repeat summary


def relative(base: float, new: float) -> float:
    if base == new:
        return 0.0
    if base == 0:
        return math.copysign(math.inf, new)
    return (new - base) / abs(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = metric_values(args.base), metric_values(args.new)
    shared = [name for name in base if name in new]

    regressions = []
    movers: Dict[str, tuple] = {}
    print(f"{'metric':34} {'base':>12} {'new':>12} {'change':>9}")
    for name in shared:
        change = relative(base[name], new[name])
        note = ""
        meta = e2e.get(name) or layer.get(name)
        if meta is not None:
            worse = change > 0 if meta["better"] == "lower" else change < 0
            if name in e2e and worse and abs(change) > e2e[name]["bound"]:
                note = f"REGRESSION (bound {e2e[name]['bound']})"
                regressions.append(name)
        moved = abs(change) > LAYER_MOVE_THRESHOLD
        if name in layer and not name.startswith("trace.") and moved:
            group = name.split(".", 1)[0]
            if group not in movers or abs(change) > abs(movers[group][1]):
                movers[group] = (name, change)
        print(f"{name:34} {base[name]:12.5g} {new[name]:12.5g} {change:+9.1%} {note}")

    if movers:
        ranked = sorted(movers.items(), key=lambda item: -abs(item[1][1]))
        print("moved layers: " + ", ".join(
            f"{group} ({name} {change:+.1%})" for group, (name, change) in ranked))
    elif any(name in layer for name in shared):
        print(f"moved layers: none beyond {LAYER_MOVE_THRESHOLD:.0%}")
    if regressions:
        print("end-to-end regressions: " + ", ".join(regressions))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
