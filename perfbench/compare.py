#!/usr/bin/env python3
"""Compare two results saved by `perfbench/run.py --save FILE`.

  python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base and new value and their ratio, and marks an
end-to-end metric that got worse by more than its BENCHMARK.json bound.
Results whose environment stamps differ (cores, pool threads, gf256
backend, simgpu engine or fast path, build type, compiler, workload, mode)
are not comparable: every differing stamp field is flagged and the exit
code is 1.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    differing = sorted(k for k in set(base["stamp"]) | set(new["stamp"])
                       if base["stamp"].get(k) != new["stamp"].get(k))
    for key in differing:
        print(f"STAMP DIFFERS {key}: {base['stamp'].get(key)} -> "
              f"{new['stamp'].get(key)}")

    for name, metric in new["result"]["metrics"].items():
        if name not in base["result"]["metrics"]:
            continue
        old = base["result"]["metrics"][name]["value"]
        value = metric["value"]
        ratio = value / old if old else float("nan")
        note = ""
        info = declared.get(name, {})
        if "bound" in info and old:
            worse = ratio - 1 if info["better"] == "lower" else 1 - ratio
            if worse > info["bound"]:
                note = f"  WORSE than bound {info['bound']}"
        print(f"{name:32s} {old:12.6g} -> {value:12.6g} {metric['unit']:6s}"
              f" x{ratio:.3f}{note}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
