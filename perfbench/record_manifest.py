#!/usr/bin/env python3
"""Write manifest.json: the expected outcome of every benchmark operation.

    python3 perfbench/record_manifest.py

Run once at the commit whose outputs are the reference. A CLI command is
recorded as its exit code and the sha256 of its stdout; a library operation
as its canonical result. Probe trials are recorded as having no violation,
which is what every seed must give.
"""

from __future__ import annotations

import json
import sys

from run import MANIFEST, Client
from workloads import WORKLOADS, op_key


def main() -> int:
    manifest = {}
    for name, (ops, ambients) in WORKLOADS.items():
        client = Client(ambients, seed=0)
        try:
            for op in ops:
                key = op_key(op)
                if key in manifest:
                    continue
                outcome = client.run_op(op, traced=False)["outcome"]
                if "error" in outcome or outcome.get("violations"):
                    print(f"{name}: {key}: {outcome}", file=sys.stderr)
                    return 1
                manifest[key] = outcome
                print(f"{name}: {key}", file=sys.stderr)
        finally:
            client.stop_worker()
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
