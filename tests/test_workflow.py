"""The CI workflow runs its checks through the tier-1 suite and perfbench.

Each step of .github/workflows/tests.yml runs one line, so that a check
lives in tests/ or perfbench/, where it can be run and read, not in shell
inside the YAML; and one bench job runs every workload of BENCHMARK.json,
traced and untraced.  The numpy-floor job installs the oldest numpy that
pyproject.toml accepts.
"""

import json
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def _jobs():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())["jobs"]


def _bench_runs(job):
    return [step["run"] for step in job["steps"] if "perfbench/run.py" in step.get("run", "")]


def test_every_workflow_step_runs_one_line():
    for name, job in _jobs().items():
        for step in job["steps"]:
            if "run" in step:
                assert len(step["run"].splitlines()) == 1, (name, step.get("name"))


def test_one_bench_job_runs_every_workload_traced_and_untraced():
    jobs = _jobs()
    assert [name for name, job in jobs.items() if _bench_runs(job)] == ["bench"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    matrix = jobs["bench"]["strategy"]["matrix"]
    assert sorted(matrix["workload"]) == sorted(w["name"] for w in contract["workloads"])
    runs = _bench_runs(jobs["bench"])
    assert [run.split("--trace ")[1] for run in runs] == ["1", "0"]
    assert all("--workload ${{ matrix.workload }} --seed ${{ matrix.seed }}" in run for run in runs)


def test_numpy_floor_job_pins_the_declared_floor():
    # a regex, not tomllib, which Python 3.10 lacks
    floor, = re.findall(r'"numpy>=(\d+\.\d+)"', (ROOT / "pyproject.toml").read_text())
    installs = [step["run"] for step in _jobs()["numpy-floor"]["steps"]
                if step.get("run", "").startswith("pip install")]
    assert len(installs) == 1 and f'"numpy=={floor}.*"' in installs[0], installs
