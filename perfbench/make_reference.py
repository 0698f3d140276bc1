"""Regenerate the reference CSVs the output checks compare against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's command once at REFERENCE_SEED and stores its output
CSV, without the volatile '# generated' and '# timing' lines, as
perfbench/reference/<workload>.csv.  Regenerate only when a change to the
program is meant to change its outputs, and say why in the change.
"""

import os
import sys

from checks import REFERENCE_DIR, VOLATILE_PREFIXES, reference_path
from workloads import REFERENCE_SEED, WORKLOADS, cli_argv, output_path, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(names) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from stochpce import cli

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in names or sorted(WORKLOADS):
        run_dir = os.path.join(ROOT, ".perfbench_work", "reference", workload)
        config_path = write_config(workload, run_dir)
        out_prefix = os.path.join(run_dir, "bench")
        code = cli.main(cli_argv(workload, config_path, out_prefix, REFERENCE_SEED))
        if code != 0:
            print(f"{workload}: command exited with {code}", file=sys.stderr)
            return 1
        with open(output_path(workload, out_prefix), encoding="utf-8") as handle:
            lines = [line for line in handle if not line.startswith(VOLATILE_PREFIXES)]
        with open(reference_path(workload), "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(lines)
        print(f"wrote {reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
