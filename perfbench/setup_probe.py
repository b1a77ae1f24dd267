"""Set-up cost in a fresh process: import, config, grids and initial state.

Usage: python3 perfbench/setup_probe.py CONFIG.json
Prints one JSON object: {"setup_s": ..., "speed": ..., "state_bytes": ...},
where ``speed`` comes from the calibration loop timed right after set-up.
"""

import json
import sys
import time

import workloads


def main(config_path: str) -> None:
    start = time.perf_counter()
    workloads.import_program()
    from viscodelay import cli, solver

    cfg = cli.load_config(config_path)
    disc = cfg.discretize()
    state = solver.build(cfg.params(), cfg.init, disc)
    elapsed = time.perf_counter() - start

    import worker  # imports numpy, so only once set-up is timed

    cal = 0.5 * (worker.calibrate() + worker.calibrate())
    print(json.dumps({"setup_s": elapsed, "speed": worker.CAL_NOMINAL_S / cal,
                      "state_bytes": state.nbytes()}))


if __name__ == "__main__":
    main(sys.argv[1])
