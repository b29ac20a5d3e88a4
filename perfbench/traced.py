"""Run one fusioncat pass with every layer traced, then write the spans.

    PYTHONPATH=src python3 perfbench/traced.py TRACE.json cli verify --fixture e4
    PYTHONPATH=src python3 perfbench/traced.py TRACE.json sweep --seed 1 --results out.json

The wrappers go in before `fusioncat.cli.main` or the sweep is called, so
the program itself is unchanged; the spans are written once it returns.
"""

import sys

import tracer


def main():
    trace_path, target, *argv = sys.argv[1:]
    t = tracer.Tracer()
    t.install()
    if target == "cli":
        from fusioncat import cli

        code = cli.main(argv)
    else:
        import sweep

        code = sweep.main(argv)
    t.dump(trace_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
