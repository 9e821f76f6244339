"""Record the pass-0 output digests of a workload for a range of seeds.

    python3 perfbench/record.py --workload squares --seeds 0-15

The digests land in perfbench/reference/<workload>.json and become the
reference that every later benchmark run of those seeds is checked against.
Record only from a commit whose outputs are known to be right, and say why
in the change that re-records them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, OUT, SRC, WORKLOAD_NAMES


def record(name: str, seed: int) -> list[str]:
    import workloads
    calls = workloads.WORKLOADS[name].build(seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=OUT))
    try:
        recorded = []
        for i, call in enumerate(calls):
            out_dir = tmp / f"call{i}"
            digests = [digest for _, digest in
                       call.check(call.run(out_dir), out_dir)]
            if not digests or None in digests:
                raise SystemExit(f"{name} seed {seed} call {i} failed its "
                                 f"checks; nothing recorded")
            recorded.append("".join(digests))
        return recorded
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True,
                        help="inclusive range such as 0-15")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    sys.path.insert(0, str(SRC))
    path = BENCH_DIR / "reference" / f"{args.workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    for seed in range(int(first), int(last or first) + 1):
        data["seeds"][str(seed)] = record(args.workload, seed)
        print(f"{args.workload} seed {seed} recorded", flush=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
