"""Record the reference values the benchmark's output checks compare against.

Usage: ``python3 perfbench/record_references.py`` from the repository root.

Writes ``perfbench/references.json``: the ``fit-ml`` log-likelihood of
each bundled dataset and of each generated workload's panel datasets and
seed-0 fresh datasets, keyed by dataset name or by the SHA-256 of the
CSV, and the results of every ``moments`` op.  The values are those of
the commit that defined the benchmark; re-recording them on a later
commit would turn the checks into a comparison with itself.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run


def report(runner: run.Runner, argv: list[str], out: Path) -> dict:
    code, _, _, tail = runner.spawn([sys.executable, "-m", "bdw.cli", *argv, "--output", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {tail}")
    return json.loads(out.read_text())["results"]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    refs = {"fit_ml_loglik": {}, "moments": {}}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        work = Path(tmp)
        runner = run.Runner(work)
        out = work / "out.json"
        for name, spec in run.WORKLOADS.items():
            (work / name).mkdir()
            paths, _ = run.prepare_inputs(spec, 0, work / name)
            inputs = paths["panel"] + paths["fresh"]
            targets = [["--input", p] for p in inputs] if inputs else [
                ["--dataset", d] for d in ("football", "nasal")
            ]
            for target in targets:
                key = target[1] if target[0] == "--dataset" else (
                    hashlib.sha256(Path(target[1]).read_bytes()).hexdigest())
                refs["fit_ml_loglik"][key] = report(runner, ["fit-ml", *target], out)["loglik"]
            for argv in spec["ops"]:
                if argv[0] == "moments":
                    refs["moments"][" ".join(argv[1:])] = report(runner, argv, out)
            print(f"{name}: recorded", file=sys.stderr)
    (run.BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
