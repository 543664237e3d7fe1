"""The benchmark's workloads: one fixed CLI command per layer under study.

Each workload is a CLI argv with one free slot, the alpha spec.  The seed
picks one member of a small family of alphas.  The members of a family were
chosen to cost about the same (their alphas differ by a few percent at most),
so the spread across seeds measures the machine rather than the input, while a
claim can still be re-checked on a member that was not used while writing it.
Seed 0 selects the first member, which is the documented input of the
workload.  Reference outputs are frozen for every member (reference.json).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple     # "{alpha}" marks the slot filled by the family member
    family: tuple
    #: the layer that takes one step per prime term (reference prime_terms)
    term_layer: str
    #: the layers that must record work in every traced sample
    layers: tuple

    def member(self, seed: int) -> int:
        return seed % len(self.family)

    def argv_for(self, member: int) -> list:
        alpha = self.family[member]
        return [alpha if a == "{alpha}" else a for a in self.argv]

    @property
    def max_n(self) -> int:
        """The largest N of the --n list, the unit of sieves.prime_passes."""
        n_list = self.argv[self.argv.index("--n") + 1]
        return max(int(float(tok)) for tok in n_list.split(","))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pairs-sweep",
        argv=("fit", "--alpha", "{alpha}", "--n", "1e6,1e7,1e8"),
        # alphas in (1.36, 1.46)
        family=("sqrt:2", "quad:1,1,2,3", "quad:0,1,3,17", "quad:0,1,3,19"),
        term_layer="alpha.floors",
        layers=("sieves.prime", "sieves.sqf", "alpha.floors", "constants.sigma", "counting"),
    ),
    Workload(
        name="pairs-wide",
        argv=("pairs", "--alpha", "{alpha}", "--n", "3e7"),
        # real cube roots of 30000..30750, all in (31.07, 31.34)
        family=("poly:-30000,0,0,1@31/1,32/1", "poly:-30250,0,0,1@31/1,32/1",
                "poly:-30500,0,0,1@31/1,32/1", "poly:-30750,0,0,1@31/1,32/1"),
        term_layer="alpha.floors",
        layers=("sieves.prime", "sieves.sqf", "alpha.floors", "alpha.exact",
                "constants.sigma", "counting"),
    ),
    Workload(
        name="decompose",
        argv=("decompose", "--alpha", "{alpha}", "--n", "3e6", "--z", "pow:0.3"),
        # alphas in (1.58, 1.66)
        family=("quad:1,1,2,5", "quad:0,1,2,10", "quad:0,1,3,23", "quad:0,1,2,11"),
        term_layer="alpha.floors",
        layers=("sieves.prime", "alpha.floors", "counting"),
    ),
    Workload(
        name="dyadic",
        argv=("expsum", "--alpha", "{alpha}", "--n", "1e6", "--H", "fixed:4",
              "--d", "2", "--t", "2", "--budget", "100000000"),
        family=("sqrt:2", "sqrt:3", "sqrt:5", "sqrt:7"),
        term_layer="alpha.phases",
        layers=("sieves.prime", "alpha.phases", "expsum"),
    ),
)}
