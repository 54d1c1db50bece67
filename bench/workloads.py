"""The benchmark's workloads: a synthetic cohort plus one query each.

Every cohort is generated by ``pathmine synth`` from the run's seed, so
the program under test only ever sees generated CSV files. The planted
pattern is the README's four-item generic-to-brand switch; its
discriminative support is exactly the planted count by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Seed whose outputs have pinned digests below.
DEFAULT_SEED = 42

#: The planted pattern, as ``pathmine synth --plant`` takes it and as
#: ``pathmine mine`` writes its items.
PLANT = "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0"
PLANT_ITEMS = [
    [atc, group, int(flag)] for atc, group, flag in (item.split(",") for item in PLANT.split("|"))
]

_HEAD = """\
index_event first diagnosis in {G40, G41};
event delivery where atc in {N03AX09, N03AX14, N03AX11, N03AG01, N03AF01}
      as (atc, group, generic);
window positive (index-90, index);
"""

#: The constrained, discriminative study query (as in tests/conftest.py).
_STUDY_TAIL = """\
window negative (index-180, index-90);
min_support {min_support};
constraint discriminative;
constraint contains_value(generic, 1);
constraint contains_value(generic, 0);
constraint switch_count(generic) == 1;
"""

#: Support only: no negative window, no constraints.
_SUPPORT_TAIL = "min_support {min_support};\n"


@dataclass(frozen=True)
class Workload:
    name: str
    patients: int
    plant_count: int
    min_support: int
    discriminative: bool
    #: SHA-256 of the JSONL output at DEFAULT_SEED.
    digest: str
    mean_events: float = 20.0
    noise_items: int = 200

    def query_text(self) -> str:
        tail = _STUDY_TAIL if self.discriminative else _SUPPORT_TAIL
        return _HEAD + tail.format(min_support=self.min_support)

    def synth_args(self, seed: int) -> list[str]:
        return [
            "--patients", str(self.patients),
            "--seed", str(seed),
            "--mean-events", repr(self.mean_events),
            "--noise-items", str(self.noise_items),
            "--plant", f"{PLANT}@{self.plant_count}",
        ]


# Why each workload exists is recorded in BENCHMARK.json; the sizes keep
# one CLI run at 4-8 s on a 2-CPU 2.1 GHz Xeon, so a 36 s run holds 4-9.
# A workload's cost must not swing with the seed: the frequent-pattern
# border has to sit far from the support of whole pattern families. That
# is why `long` keeps support 150 of 300 patients, between single items
# (about 63%) and item pairs, instead of a border inside the pair family,
# where the node count moves by a third from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study",
            patients=10_000,
            plant_count=250,
            min_support=200,
            discriminative=True,
            digest="3bad0f425d7734c8248280a232749e4c8a1762e477ae96b9a62b291291ebfb43",
        ),
        Workload(
            name="deep",
            patients=3_000,
            plant_count=75,
            min_support=15,
            discriminative=True,
            digest="4cdedb3c3a6923ea2d65b66ec1142324558a0fc912dda9781a04d700d132fa90",
        ),
        Workload(
            name="long",
            patients=300,
            plant_count=15,
            min_support=150,
            discriminative=False,
            mean_events=200.0,
            digest="6c759f113f2d17b71bcd7b5ff2d2243d718a439bf2d4d71b103fc1eea35f70ba",
        ),
    )
}

#: Tiny versions of every workload, for the benchmark's own smoke test.
SMOKE = {
    "study": replace(
        WORKLOADS["study"], patients=400, plant_count=30, min_support=25,
        digest="8cfe5a5c3a466194a2beb330e586e1277792087fa5917963f0fa258d56e56f48",
    ),
    "deep": replace(
        WORKLOADS["deep"], patients=200, plant_count=12, min_support=6,
        digest="21e31b416df579b5aa7e6c0c984824399f62b0c1dfa691237924c8da1ea77598",
    ),
    "long": replace(
        WORKLOADS["long"], patients=40, plant_count=3, min_support=20,
        digest="1026813ac2cbbd768c4a50c881ded0e9fadb8654ab5e3a8d19491bb7b97e4081",
    ),
}
