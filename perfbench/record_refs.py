"""Record the reference verdicts of every workload variant.

Usage: python3 perfbench/record_refs.py

Runs each variant once and writes ``references.json`` beside this file.
Re-recording is a change to the benchmark: do it only in a change that
alters the benchmark, never in one that claims a gain.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    workloads.import_program()
    refs = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for workload in workloads.WORKLOADS:
            refs[workload] = {}
            for variant in range(workloads.N_VARIANTS):
                config = Path(tmp) / "config.json"
                config.write_text(json.dumps(workloads.make_config(workload, variant)))
                op = workloads.Operation(workload, config, Path(tmp) / "out")
                exit_code = op.execute()
                outcome = op.outcome()
                ref = workloads.reference(workload, outcome)
                problems = workloads.check(workload, exit_code, outcome, ref)
                if problems:
                    raise SystemExit(f"{workload} variant {variant}: {problems}")
                refs[workload][str(variant)] = ref
                print(workload, variant, json.dumps(ref)[:160], flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
