"""Regenerate ``heom_ud_ref.json``, the stored <sigma_z>(t) the heom_ud gate compares to.

    python3 bench/make_heom_ref.py

Only rerun this when a change is meant to alter the heom_ud answer, and say
so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    w = workloads.HeomUd(seed=0)
    res = w.solve()
    doc = {
        "what": "heom_ud <sigma_z>(t): criterion 8(ii) underdamped bath, n_c=6, default tolerances",
        "times": [float(t) for t in w.ts],
        "sigmaz": [float(v) for v in res.expect[0]],
    }
    with open(workloads.HEOM_REF, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
