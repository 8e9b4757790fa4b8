"""The benchmark's workloads: one experiment config each, plus why it exists.

Every workload is a plain ``ExperimentSpec.from_dict`` config.  A run
makes short rounds of the config, each on its own experiment seed derived
from ``--seed`` (the first is ``--seed`` itself), so the same seed gives the
same trials and one run averages over many inputs: on bipartize-mixed and
exact-oracles a trial's cost depends much on its input.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2009
# Distance between the experiment seeds one run rotates through, so that
# runs with neighbouring --seed values share no inputs.
SEED_STRIDE = 1_000_003

CHECK_DIGEST = "digest"
CHECK_ORACLES = "oracles"
CHECK_BIPARTIZE = "bipartize"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    checks: tuple[str, ...]
    why: str
    # sha256 of the CSV at DEFAULT_SEED, pinned at the baseline commit.
    digest: str = ""
    # Rounds of the traced run: a fixed amount of work per commit.
    traced_rounds: int = 1

    def spec_dict(self, seed: int) -> dict:
        return dict(self.config, name=self.name, seed=seed)


def experiment_seeds(seed: int, count: int) -> list[int]:
    """The seeds of a run's rounds; the first is ``seed`` itself."""
    return [seed + k * SEED_STRIDE for k in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-sparse",
            config={
                "regime": "alpha-sweep",
                "n": 2**18,
                "alpha": 0.5,
                "p_rule": "inv_sqrt_nm",
                "algorithms": ["random", "majority"],
                "epsilon": 0.01,
                "trials": 4,
            },
            checks=(CHECK_DIGEST,),
            why=(
                "n = 2^18 with ~0.04 ones per vertex: O(n) Python work in "
                "sampling, core and the cut heuristics dominates"
            ),
            digest="6ec73a6207e75ae0ed6049cd1de4b14e5fd9523b093ed40346c8abc036594474",
        ),
        Workload(
            name="sweep-small",
            config={
                "regime": "c-sweep",
                "n": 100,
                "c": 1.0,
                "algorithms": ["random", "majority"],
                "epsilon": 0.01,
                "trials": 500,
            },
            checks=(CHECK_DIGEST,),
            why=(
                "n = 100, many trials: fixed per-trial costs (seeding, records, "
                "CSV rows, pool pickling) and the audit round-trips dominate"
            ),
            digest="8614d9486e98bc48ecbda4ecbea02cc17515d439c40dcd538590cdb7dd11cefe",
        ),
        Workload(
            name="bipartize-mixed",
            config={
                "regime": "c-sweep",
                "n": 100,
                "c": [0.75, 1.5, 2.0],
                "algorithms": ["bipartize"],
                "max_rematch": 10,
                "trials": 40,
            },
            checks=(CHECK_BIPARTIZE,),
            traced_rounds=8,
            why=(
                "weak bipartization at n = 100 across c = 0.75, 1.5, 2: odd-cycle "
                "detection dominates and many c = 2 trials exhaust the re-match budget"
            ),
        ),
        Workload(
            name="exact-oracles",
            config={
                "regime": "fixed",
                "n": 16,
                "m": 16,
                "p": 0.2,
                "algorithms": ["exact", "mindisc"],
                "trials": 10,
            },
            checks=(CHECK_ORACLES,),
            traced_rounds=4,
            why=(
                "n = m = 16: the two brute-force oracles walk 2^15 colorings each "
                "per trial and do nearly all the work; the pool chunk is 1"
            ),
        ),
    )
}
