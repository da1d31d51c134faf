"""One cold pass in a fresh process: the library workload, or a traced CLI call.

    python3 perfbench/worker.py rank N
        rank_series pass: R(w, q) to order N, its w = -1 and w = 1
        specializations, f(q), p(n) and rank_table(N - 1), printed as JSON.
    python3 perfbench/worker.py --trace --pass-id K cli ARG...
    python3 perfbench/worker.py --trace --pass-id K rank N
        the same pass, or cli.main([ARG...]) with its stdout captured, under
        the wrappers of tracer.py; prints {"exit", "stdout", "trace"} as JSON.

qmodular is imported from the `src` directory of the checkout holding this
file; the worker refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rank_pass(n: int) -> str:
    from qmodular import theta_partitions as tp

    polys = tp.rank_generating(n)
    at_minus_one = tp.specialize_omega(polys, (1, 2))
    at_one = tp.specialize_omega(polys, (0, 1))
    mock = tp.mock_theta_f(n)
    p = [tp.partition_count(k) for k in range(n)]
    table = tp.rank_table(n - 1)
    rows = [table.polynomial(k) for k in range(1, n)]
    return json.dumps(
        {
            "polys": [[q.lo, list(q.coeffs)] for q in polys],
            "at_minus_one": at_minus_one,
            "at_one": at_one,
            "mock": [[c.numerator, c.denominator] for c in mock.coeffs],
            "p": p,
            "table": [[r.lo, list(r.coeffs)] for r in rows],
        }
    )


def cli_pass(argv: list[str]) -> tuple[int, str]:
    from qmodular import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("kind", choices=["cli", "rank"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import qmodular

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(qmodular.__file__).startswith(src):
        print(f"qmodular imported from {qmodular.__file__}, not from {src}", file=sys.stderr)
        return 3
    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder(args.pass_id)
        recorder.install()
    if args.kind == "rank":
        code, out = 0, rank_pass(int(args.args[0]))
    else:
        code, out = cli_pass(args.args)
    if recorder is None:
        sys.stdout.write(out)
        return code
    json.dump({"exit": code, "stdout": out, "trace": recorder.dump()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
