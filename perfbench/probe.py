"""One cold run of the tauberlab command line, in a process of its own.

    python3 perfbench/probe.py TIMING.json TRACE(0|1) -- <tauberlab arguments>

Calls `tauberlab.cli.main` with the arguments and writes to TIMING.json the
CLOCK_MONOTONIC instants at which the first W was answered (set-up done) and
at which the command returned, its exit code, and under TRACE=1 the
per-layer metrics. The caller times the process from its spawn on the same
clock and reads its CPU time and peak memory when it exits.
"""

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _mark_first_answer(stamps: dict) -> None:
    """Record when SmoothedGrowth first answers W (real or complex), once."""
    from tauberlab.smoothing import SmoothedGrowth

    originals = {name: getattr(SmoothedGrowth, name)
                 for name in ("derivative", "kernel_complex")}

    def one_shot(name):
        fn = originals[name]

        def first(*args, **kwargs):
            result = fn(*args, **kwargs)
            if "setup" not in stamps:
                stamps["setup"] = _now()
                for key, original in originals.items():
                    setattr(SmoothedGrowth, key, original)
            return result

        return first

    for name in originals:
        setattr(SmoothedGrowth, name, one_shot(name))


def main(argv) -> int:
    timing_path, traced = argv[0], argv[1] == "1"
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    stamps = {}
    tracer = None
    if traced:
        from tracing import Tracer, wrapper_cost_s

        tracer = Tracer()
        tracer.install()
    _mark_first_answer(stamps)
    import tauberlab.cli

    code = tauberlab.cli.main(cli_args)
    stamps["done"] = _now()
    out = {"setup": stamps.get("setup"), "done": stamps["done"], "exit_code": code}
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        out["wrapped_calls"] = tracer.calls
        out["wrapper_cost_s"] = wrapper_cost_s()
        out["missing"] = tracer.missing
    tmp = timing_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, timing_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
