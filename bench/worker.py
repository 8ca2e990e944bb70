"""One benchmark process: set up, warm up, then time ops of one workload.

``run.py`` starts this script once per set-up sample; it is not meant to be
run by hand.  An op is one ``chgevrey.cli.main`` call, in this process: config
parsed, computation done, artifacts written.  Every op, the warm-up included,
is checked by ``gate.check_op``.

A ``hostclock.HostClock`` samples the host's speed from the top of this
script on; with ``--trace 1`` it stops before the first timed op, so spans and
per-layer times are plain wall time.

The last stdout line is one JSON object: ``setup_wall`` and ``setup_adj``
(seconds from the first line of this script, so after interpreter start-up,
to the first timed op: imports, input generation and the warm-up op; the
adjusted one counts the import of ``hostclock`` and NumPy before the clock
starts as plain wall time), ``peak_rss_mb``, ``ops`` (wall, cpu and their
adjusted values) and, with ``--trace 1``, the per-layer metrics of every
traced op.
"""

import time

PROCESS_START = time.perf_counter()

from hostclock import HostClock  # noqa: E402

CLOCK = HostClock()
if __name__ == "__main__":  # make_reference and the self-tests import run_op
    CLOCK.start()
CLOCK_START = CLOCK.mark()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_op(main, argv: list, out: Path, tracer=None, op: int = -1) -> tuple:
    """Run one CLI call into an emptied ``out``; return (exit code, wall s, cpu s).

    An exception escaping ``main`` is a failed op with exit code None.
    """
    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op)
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except Exception:  # the op failed; keep measuring the others
        traceback.print_exc()
        code = None
    finally:
        if tracer is not None:
            tracer.end_op()
    return code, time.perf_counter() - wall0, time.process_time() - cpu0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    import chgevrey.cli

    src = (args.root / "src").resolve()
    if src not in Path(chgevrey.cli.__file__).resolve().parents:
        print(f"chgevrey was imported from {chgevrey.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from gate import check_op, load_reference
    from workloads import reference_seed, write_inputs

    seed = reference_seed(args.workload, args.seed)
    argv = write_inputs(args.workload, seed, args.work)
    reference = load_reference(args.workload, seed)
    out = args.work / "out"
    ops, layers = [], []

    def attempt(kind: str, tracer=None) -> None:
        if not args.trace:
            mark = CLOCK.mark()
            code, _, _ = run_op(chgevrey.cli.main, argv, out)
            wall, cpu, wall_adj, cpu_adj = CLOCK.since(mark)
        else:
            code, wall, cpu = run_op(chgevrey.cli.main, argv, out, tracer, len(layers))
            wall_adj = cpu_adj = None
        problems = check_op(args.workload, code, out, reference)
        ops.append({
            "kind": kind, "wall": wall, "cpu": cpu, "wall_adj": wall_adj, "cpu_adj": cpu_adj,
            "problems": problems,
        })

    attempt("warmup")
    before_clock = CLOCK_START[0] - PROCESS_START
    setup_wall, _, setup_adj, _ = CLOCK.since(CLOCK_START)
    setup_wall += before_clock
    setup_adj += before_clock

    tracer = None
    if args.trace:
        from tracer import Tracer

        CLOCK.stop()
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        attempt("timed")
        if tracer is not None:
            tracer.install()
            try:
                attempt("traced", tracer)
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(len(layers)))
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.write_spans(args.work / "spans.csv")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    CLOCK.stop()
    print(json.dumps({
        "setup_wall": setup_wall, "setup_adj": setup_adj, "peak_rss_mb": peak_rss_mb,
        "ops": ops, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        CLOCK.stop()  # an error exits with its own code, not by a stray SIGALRM
