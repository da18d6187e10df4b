"""Print one sha256 per output file of a fixed set of seeded `injflow run`
calls, so two versions of the package can be checked for byte-identical
outputs:

    diff <(PYTHONPATH=<other checkout>/src python tools/output_digest.py) \
         <(PYTHONPATH=src python tools/output_digest.py)

The runs go through the CLI only and write into a temporary directory.
`summary.json` is hashed without its `wall_time` field, the one output
that depends on the clock.  Takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from injflow.cli import main

SEEDS = (1, 2, 3)


def _runs():
    """(label, argv after `run`, writes a checkpoint) for every digested run."""
    for seed in SEEDS:
        yield (f"trefoil-obstruction-seed{seed}",
               ["trefoil-obstruction", "--seed", str(seed),
                "--steps-manifold", "50", "--steps-density", "50"], False)
        yield (f"layerwise-toy-seed{seed}",
               ["layerwise-toy", "--seed", str(seed),
                "--phase1-steps", "300", "--phase2-steps", "100"], True)
    yield "gap-visualization", ["gap-visualization"], False


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        payload = json.loads(data)
        payload.pop("wall_time", None)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main_digest() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, checkpoint in _runs():
            out = Path(tmp) / label
            extra = ["--checkpoint", str(out / "checkpoint.json")] if checkpoint else []
            code = main(["run", *argv, "--out", str(out), *extra])
            if code != 0:
                print(f"{label}: injflow exited {code}", file=sys.stderr)
                return code
            for path in sorted(out.iterdir()):
                print(f"{_file_digest(path)}  {label}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
