"""Regenerate ``perfbench/expected/<kernel>.txt`` from the AST walker.

The walker (``Machine(engine="ast")``) on the *untransformed* program is
the one engine no benchmarked job runs on, so its output is an oracle
independent of the expansion transform, both compiled tiers and both
parallel backends.  Run once, commit the files::

    python3 perfbench/make_expected.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
EXPECTED_DIR = os.path.join(HERE, "expected")


def expected_text(output, exit_code):
    """The compared form of one job's result: program output followed by
    its exit code."""
    return "".join(output) + f"\n[exit {exit_code}]\n"


def main():
    from repro import Machine, parse_and_analyze
    from repro.bench import all_benchmarks

    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for spec in all_benchmarks():
        program, sema = parse_and_analyze(spec.source)
        machine = Machine(program, sema, engine="ast")
        exit_code = machine.run()
        path = os.path.join(EXPECTED_DIR, f"{spec.name}.txt")
        with open(path, "w") as fh:
            fh.write(expected_text(machine.output, exit_code))
        print(f"{spec.name}: {len(machine.output)} lines, exit {exit_code}")


if __name__ == "__main__":
    main()
