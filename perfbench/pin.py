"""Regenerate ``pins.json``: every cell's value and simulated counts.

Usage, from the repository root::

    python3 perfbench/pin.py

Runs every cell any seed can produce once and records its result value
and simulated cycle and instruction counts — or, for a cell that
fails, its error type.  Re-pin only in a change that means to alter
simulated behaviour, and say so: the benchmark treats any difference
from a pin as a failed cell.
"""

import json

import cells


def main():
    cells.bootstrap()
    import simrun
    pinned = {}
    for cell in sorted(cells.all_cells(), key=lambda c: c.label):
        outcome = simrun.run_cell(cell)
        pinned[cell.label] = outcome.pin()
        print("%-40s %s" % (cell.label, json.dumps(pinned[cell.label])))
    with open(simrun.PINS_PATH, "w") as handle:
        json.dump({"cells": pinned}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
