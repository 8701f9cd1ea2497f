"""Launch the estimation daemon over the benchmark federation.

Run by ``run.py`` as its own process (``python3 perfbench/server.py``
with ``src`` on ``PYTHONPATH``).  It builds the federation, optionally
wraps the layer entry points for a traced run (``--spans FILE``),
starts a :class:`~repro.serve.ServeDaemon` on an ephemeral loopback
port with the shipped defaults, prints ``PORT <n>`` and serves until
its standard input closes.  On the way out it stops the daemon and, in
a traced run, writes the recorded spans to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys

from federation import build_federation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spans", help="trace the layers and write the spans to this file"
    )
    args = parser.parse_args(argv)

    from repro import obs
    from repro.serve import ServeDaemon

    sphere = build_federation()
    tracer = None
    if args.spans:
        import trace_spans

        tracer = trace_spans.install()
    # As ``repro serve`` does: live windowed telemetry behind /metrics.
    if obs.get_timeseries() is None:
        obs.enable_timeseries()
    daemon = ServeDaemon(sphere, port=0)
    daemon.start()
    try:
        print(f"PORT {daemon.server.port}", flush=True)
        sys.stdin.read()  # returns when the benchmark closes our stdin
    finally:
        daemon.stop()
        if tracer is not None:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
