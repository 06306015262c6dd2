"""The shared registry behind the strategy, scenario, stage and transport tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREADS = 8
ROUNDS = 3

_STRATEGY = ("from repro.baselines.base import get_strategy", "get_strategy('b-tctp')")
_STAGE = ("from repro.planning.stages import canonical_stage_backend",
          "canonical_stage_backend('init', 'equal-spacing')")

#: case -> (imports, the first lookup of even threads, that of odd threads)
RACE_CASES = {
    "strategy": (_STRATEGY[0], _STRATEGY[1], _STRATEGY[1]),
    "scenario": ("from repro.scenarios.registry import canonical_scenario_family",
                 "canonical_scenario_family('uniform')",
                 "canonical_scenario_family('uniform')"),
    "stage": (_STAGE[0], _STAGE[1], _STAGE[1]),
    "transport": ("from repro.service.registry import canonical_transport_name",
                  "canonical_transport_name('http')", "canonical_transport_name('http')"),
    # The strategy built-ins build pipeline specs, so their load runs the
    # stage load from inside its own.
    "mixed": (f"{_STRATEGY[0]}\n{_STAGE[0]}",
              "get_strategy('pipeline', order='reversed')", _STAGE[1]),
}

_SCRIPT = """\
import sys
import threading
{imports}

def first_lookup(index):
    barrier.wait()
    try:
        if index % 2 == 0:
            {even}
        else:
            {odd}
    except Exception as exc:
        errors.append(f"{{type(exc).__name__}}: {{exc}}")

errors = []
barrier = threading.Barrier({threads})
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_lookup, args=(i,)) for i in range({threads})]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads), "a first lookup hung"
print("\\n".join(errors))
"""


@pytest.mark.parametrize("case", sorted(RACE_CASES))
def test_concurrent_first_lookups_see_the_builtins(case):
    """Eight threads making the first lookup of a fresh interpreter all succeed."""
    imports, even, odd = RACE_CASES[case]
    script = _SCRIPT.format(imports=imports, even=even, odd=odd, threads=THREADS)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    runs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(ROUNDS)]
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        assert out.strip() == "", f"{case}: first lookups failed:\n{out}"
