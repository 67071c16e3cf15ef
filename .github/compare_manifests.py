"""Compare one key of two run manifests; exit with MESSAGE when the rule fails.

    python .github/compare_manifests.py {same,differ} KEY MESSAGE DIR_A DIR_B

``same`` requires DIR_A/run_manifest.json and DIR_B/run_manifest.json to hold
equal values under KEY (say ``digest``); ``differ`` requires different ones.
MESSAGE names the scenario compared.
"""

import json
import sys

rule, key, message, *dirs = sys.argv[1:]
if rule not in ("same", "differ") or len(dirs) != 2:
    sys.exit(__doc__)
a, b = (json.load(open(f"{d}/run_manifest.json"))[key] for d in dirs)
if (a == b) != (rule == "same"):
    sys.exit(message)
