"""The benchmark's workloads: inputs drawn from a seed, and one case each.

Every workload is a sequence of rounds, and every round holds the same
operations: the same m values, or the same seven lemma checks, in the same
order.  All inputs are drawn in set-up from ``random.Random(seed)``, so one
seed always gives the same inputs.  Scenarios and check seeds differ from
round to round: a run repeats whole rounds, cycling through ``POOL_ROUNDS``
of them, so the cost of any one input weighs little on a run's figures.

Scenario entries are never zero, so every scenario exercises every term
of the pipeline and the work per case depends on the seed only through
the sizes of the numbers.

Cases call the program through its modules (``report.build_report``),
looked up at call time, so that a traced run sees these calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import verify

POOL_ROUNDS = 32

# The cases of one round: m values, or lemma check names.  In the density
# workloads the light case is the common one, so the median case time
# follows it, and the heavy case weighs on cases per second.  The lemma
# round runs 2.5, the median check, three times at three seeds: with one
# 2.5 the median falls between 2.5 and 3.4, whose times overlap when the
# machine changes speed inside a run, and jumps between the two.
ROUNDS = {
    "report-exact": (2, 2, 2, 3),
    "report-float": (3, 3, 3, 4),
    "sweep-exact": (2, 2, 2, 3),
    "lemmas": ("2.1", "2.4", "2.5", "2.5", "2.5", "3.3", "3.4", "sphere", "gamma"),
}
WORKLOADS = tuple(ROUNDS)


@dataclass
class Case:
    """One unit of work: ``run()`` calls the program, ``check(output)``
    returns the problems found in its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def scenario_doc(m: int, mode: str, rng: random.Random) -> Dict:
    """A scenario document with nonzero entries.

    Exact entries are p/q with p in +-{1, 2, 3} and q in {1, 2, 3}; float
    entries have magnitude in [0.5, 2] and a random sign, which keeps
    |V|^2 >= m/2 and the float pipeline well conditioned.
    """
    n = 2 * m

    def entry():
        if mode == "exact":
            return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)

    def vector():
        return [entry() for _ in range(n)]

    return {
        "schema": 1,
        "m": m,
        "mode": mode,
        "V": {"value": vector(), "jacobian": [vector() for _ in range(n)]},
        "X": vector(),
        "u": vector(),
        "v": vector(),
        "w": vector(),
    }


def _report_rounds(mode: str, ms, rng: random.Random, workdir: str) -> List[List[Case]]:
    """Scenario files, each taken through the ``torsionres run`` path."""
    from torsionres import report, scenario_io

    def make(doc: Dict, path: str) -> Case:
        def run():
            scenario, perturb = scenario_io.load_scenario(path)
            return report.report_to_text(report.build_report(scenario, perturb=perturb))

        return Case(f"m={doc['m']}", run, lambda text: verify.check_report(doc, json.loads(text)))

    rounds = []
    for r in range(POOL_ROUNDS):
        cases = []
        for k, m in enumerate(ms):
            doc = scenario_doc(m, mode, rng)
            path = os.path.join(workdir, f"scenario-{r}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cases.append(make(doc, path))
        rounds.append(cases)
    return rounds


def _sweep_rounds(ms, rng: random.Random) -> List[List[Case]]:
    """Exact scenarios, each put through the full invariant suite."""
    from torsionres import checks, scenario_io

    def make(m: int) -> Case:
        scenario, _ = scenario_io.parse_scenario(scenario_doc(m, "exact", rng))
        trial_seed = rng.getrandbits(32)
        return Case(
            f"m={m}",
            lambda: checks.scenario_invariant_suite(scenario, random.Random(trial_seed)),
            verify.check_sweep_outcome,
        )

    return [[make(m) for m in ms] for _ in range(POOL_ROUNDS)]


def _lemma_rounds(names, rng: random.Random) -> List[List[Case]]:
    """The identity checks, each at a seed drawn here for each round: the
    time of one check depends on its seed by up to 15%."""
    from torsionres import checks

    def make(name: str, check_seed: int) -> Case:
        def check(outcome) -> List[str]:
            problems = verify.check_lemma_outcome(name, outcome)
            if name == "sphere":
                problems.extend(verify.sphere_moment_problems())
            return problems

        return Case(name, lambda: checks.LEMMA_CHECKS[name](check_seed), check)

    return [[make(name, rng.getrandbits(32)) for name in names] for _ in range(POOL_ROUNDS)]


def build_rounds(workload: str, seed: int, workdir: str) -> List[List[Case]]:
    """Import the package as the ``torsionres`` command does, then draw and
    load every input of ``workload`` for ``seed``."""
    import torsionres.cli  # noqa: F401

    rng = random.Random(seed)
    spec = ROUNDS[workload]
    if workload == "report-exact":
        return _report_rounds("exact", spec, rng, workdir)
    if workload == "report-float":
        return _report_rounds("float", spec, rng, workdir)
    if workload == "sweep-exact":
        return _sweep_rounds(spec, rng)
    return _lemma_rounds(spec, rng)
