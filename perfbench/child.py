"""Child-process entry points of the benchmark (started by run.py).

    child.py setup <workload> <seed>
        Build the workload's inputs in a fresh interpreter under the speed
        probe, then print the monotonic clock reading at which they are ready
        and the probe's samples, as JSON.

    child.py cli-run <speed.json> <command> [cli arguments...]
        Run the command through ``sigmalab.cli.main`` under the speed probe,
        and write the probe's samples to speed.json before exiting with its
        status.

    child.py cli-trace <trace.json> <command> [cli arguments...]
        Time a cold ``import sigmalab.cli``, trace the command run through
        ``sigmalab.cli.main``, and write the import time, the per-function
        summary and the spans to trace.json before exiting with its status.
"""

from __future__ import annotations

import json
import sys
import time


def _setup(name: str, seed: int) -> int:
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    import workloads

    workloads.WORKLOADS[name](seed).setup()
    ready = time.monotonic()
    sampled, round_s = probe.stop()
    print(json.dumps({"ready": ready, "sampled_s": sampled, "round_s": round_s}), flush=True)
    return 0


def _cli_run(speed_path: str, cli_args: list[str]):
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        from sigmalab.cli import main

        sys.argv = ["sigmalab"] + cli_args
        main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sampled, round_s = probe.stop()
    with open(speed_path, "w") as fh:
        json.dump({"sampled_s": sampled, "round_s": round_s}, fh)
    return code


def _cli_trace(trace_path: str, cli_args: list[str]):
    t0 = time.perf_counter()
    import sigmalab.cli as cli
    import_s = time.perf_counter() - t0

    # imported after the timed import, so the stdlib modules it pulls in stay cold
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    sys.argv = ["sigmalab"] + cli_args
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "summary": tracer.summary(),
                   "spans": tracer.span_rows()}, fh)
    return code


def main(argv: list[str]):
    if len(argv) == 3 and argv[0] == "setup":
        return _setup(argv[1], int(argv[2]))
    if len(argv) >= 3 and argv[0] == "cli-trace":
        return _cli_trace(argv[1], argv[2:])
    if len(argv) >= 3 and argv[0] == "cli-run":
        return _cli_run(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
