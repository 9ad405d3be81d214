"""Record the stdout digests of the catalog cases that have no fixture check.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are known good; it rewrites
`perfbench/digests.json`.  A later commit that changes a `--json` output on
purpose records again and says so.
"""

from __future__ import annotations

import json
import sys

from run import WORKDIR, import_engine


def main() -> int:
    import_engine()
    import workloads

    workdir = WORKDIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for table in (workloads.MULTIPLET_CASES, workloads.VARIETY_CASES):
        specs = workloads.catalog_specs(workdir, (key for _, _, key, _ in table))
        for name, args, key, checks in table:
            if checks:
                continue
            code, text = workloads.run_cli(workloads.cli_argv(args, specs[key][0]))
            if code != 0:
                print(f"error: {name} exited with {code}", file=sys.stderr)
                return 1
            recorded[name] = workloads.digest(text)
    workloads.DIGESTS_FILE.write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} digests in {workloads.DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
