"""Record the expected exit code and output digest of every benchmark case.

    python3 perfbench/record.py

Run it at the commit whose output is the reference; it rewrites
perfbench/expected.json.  Each case runs under two hash seeds, and the
script refuses to record a case whose output depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import EXPECTED_FILE, WORKLOADS, case_env, run_process

HASH_SEEDS = (0, 12345)


def main() -> int:
    expected = {}
    for name, cases in WORKLOADS.items():
        for case in cases:
            seen = set()
            for hashseed in HASH_SEEDS:
                code, wall, _, _, output = run_process(
                    [sys.executable, "-m", "sievelab.cli"] + case.split(),
                    case_env(hashseed))
                seen.add((code, hashlib.sha256(output).hexdigest(), len(output)))
                print("%-11s %6.2f s  exit %d  %s" % (name, wall, code, case),
                      file=sys.stderr)
            if len(seen) != 1:
                print("error: output of %r depends on the hash seed" % case,
                      file=sys.stderr)
                return 1
            code, digest, size = seen.pop()
            expected[case] = {"exit": code, "sha256": digest, "bytes": size}
    with open(EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
