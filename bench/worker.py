"""Run a fixed list of `uil` CLI operations in-process, round after round.

    python3 bench/worker.py PLAN RESULT

PLAN is a JSON file {"ops": [[arg, ...], ...], "seconds": s,
"trace": bool}.  Each operation is one call of `uil.cli.main(args)`,
with "{round}" in an argument replaced by the round number.  Whole
rounds run until `seconds` have passed, at least one.  RESULT receives, per round, its wall time
and each operation's time, exit code and standard output, plus the
layer figures of the round when `trace` is set.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(plan: dict) -> list[dict]:
    import uil.cli

    source = Path(uil.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"worker: imported uil from {source}, not from {ROOT / 'src'}")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    rounds: list[dict] = []
    marks: list[tuple[int, int]] = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < plan["seconds"]:
        number = len(rounds)
        first_span = tracer.mark() if tracer else 0
        ops = []
        round_began = time.perf_counter()
        for args in plan["ops"]:
            args = [arg.replace("{round}", str(number)) for arg in args]
            captured = io.StringIO()
            op_began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    code = uil.cli.main(args)
            except Exception:  # an operation that crashes is counted as failed, the run goes on
                code = traceback.format_exc()
            ops.append(
                {"args": args, "seconds": time.perf_counter() - op_began, "code": code, "stdout": captured.getvalue()}
            )
        rounds.append({"seconds": time.perf_counter() - round_began, "ops": ops})
        marks.append((first_span, tracer.mark() if tracer else 0))
    if tracer:
        for record, (first, stop) in zip(rounds, marks):
            record["layers"] = tracer.round_figures(first, stop)
    return rounds


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    rounds = run(plan)
    Path(result_path).write_text(json.dumps({"rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(*sys.argv[1:]))
