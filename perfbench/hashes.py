"""sha256 of every solution file of one round of each workload.

    python3 perfbench/hashes.py [--seed N]

A change meant to leave outputs alone (a refactor, a speed-up) can show
byte-identical outputs by printing these on the parent and on the change
with the same seed and comparing. The cover and peel workloads hash the
files the CLI wrote; ladder-cover has no file of its own, so its library
results are written out first as sorted-key JSON. This is a record, not
a correctness gate: checker.py is the gate.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import gen
import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.import_program()
    status = 0
    for name in run.WORKLOAD_NAMES:
        wl, _ = run.set_up(name, args.seed)
        rnd = run.run_round(wl, None)
        status |= rnd.failed > 0
        for inst, out in zip(wl.instances, rnd.outputs):
            path = Path(wl.path(inst, "sol"))
            if out is not None and name == "ladder-cover":
                path.write_text(json.dumps({"algorithm": out.algorithm, "metadata": out.meta,
                                            "polygons": [gen.ring_json(p) for p in out.pieces]},
                                           sort_keys=True))
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if out is not None else "failed"
            print(f"{name} {args.seed} {inst.name} {digest}")
    return status


if __name__ == "__main__":
    sys.exit(main())
