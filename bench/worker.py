"""One benchmark round in a fresh process: ``ddgen gen``, ``train`` and
``evaluate`` through the command line's ``main``, timed from outside.

Usage: python3 bench/worker.py SPEC_JSON RESULT_PATH SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start and imports. In probe
mode the process stops at the first training step and reports only its
set-up time.
"""

import json
import resource
import sys
import time
import traceback


class FirstStep(Exception):
    """Raised in probe mode to stop ``ddgen train`` at its first step."""


def peak_rss_mb():
    """High-water resident memory of this process's own address space.

    ``ru_maxrss`` is not used: the kernel carries the parent's resident size
    at fork into the child's, so a large parent would hide the worker's.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    spec = json.loads(sys.argv[1])
    result_path, spawned = sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, spec["src"])
    from ddgen import cli, trainer
    imported = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # the first batch gather marks the end of set-up and the first step
    first = []
    gather = trainer.gather_window_arrays

    def first_step_gather(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
            if spec["probe"]:
                raise FirstStep()
        return gather(*args, **kwargs)

    def run(argv):
        t = time.monotonic()
        try:
            rc = cli.main(argv)
        except FirstStep:
            rc = 0
        except Exception:  # one failed operation must not end the round
            traceback.print_exc()
            rc = -1
        return {"command": argv[0], "rc": rc, "start": t,
                "seconds": time.monotonic() - t}

    res = {"import_s": imported - spawned}
    if not spec["probe"]:
        res["gen"] = [run(argv) for argv in spec["gen"]]
    trainer.gather_window_arrays = first_step_gather
    res["train"] = run(spec["train"])
    trainer.gather_window_arrays = gather
    if first:
        res["setup_s"] = res["import_s"] + first[0] - res["train"]["start"]
        res["train"]["from_first_step_s"] = (res["train"]["start"]
                                             + res["train"]["seconds"]
                                             - first[0])
    if not spec["probe"]:
        res["evaluate"] = [run(argv) for argv in spec["evaluate"]]
        res["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        res["layers"] = tracer.metrics()
        res["absent"] = tracer.absent
        tracer.write(spec["spans"])
    with open(result_path, "w") as f:
        json.dump(res, f)


if __name__ == "__main__":
    main()
