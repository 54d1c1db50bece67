"""Synthetic cohort generator with a known planted ground truth.

Generates a seizure-like cohort: every patient gets one index
diagnosis, noise drug deliveries in both case-crossover windows, and a
chosen subset of patients additionally receives a planted delivery
pattern inside their positive window only.

Exactness is by construction: the planted items are reified from
dedicated product codes whose attribute triples are excluded from the
noise roster, so no noise event can ever equal a planted item. The
planted pattern's discriminative support is therefore exactly the
number of planted patients, whatever the noise does.

Generation is driven by one seeded RNG in a fixed order, so equal
seeds give byte-identical cohorts.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvalidPlantSpec
from .knowledge import DeliveryAttributes, normalize_code

#: Therapeutic classes cycled through by the noise roster.
NOISE_CLASSES = ("N03AX09", "N03AX14", "N03AX11", "N03AG01", "N03AF01")

#: A co-medication outside every class filter used in queries here.
OTHER_ATTRS = DeliveryAttributes("N02BE01", "900", 0)

INDEX_CODES = ("G400", "G401", "G403", "G410", "G411")

#: Inclusive range of index days. Starting above 180 keeps every day of
#: both windows, which reach back 179 days, non-negative.
INDEX_DAYS = (220, 400)

#: Days strictly inside the positive window (index-90, index). A plant
#: puts its items on distinct days there, so it has at most this many.
POSITIVE_DAYS = 89

TAXONOMY_EDGES = (
    ("G400", "G40"),
    ("G401", "G40"),
    ("G403", "G40"),
    ("G410", "G41"),
    ("G411", "G41"),
    ("N03AG01", "N03AG"),
    ("N03AX09", "N03AX"),
    ("N03AX11", "N03AX"),
    ("N03AX14", "N03AX"),
    ("N03AF01", "N03AF"),
    ("N03AG", "N03"),
    ("N03AX", "N03"),
    ("N03AF", "N03"),
)


@dataclass(frozen=True)
class PlantSpec:
    """What to plant and in how many patients.

    Text form: triples ``ATC,GROUP,FLAG`` joined by ``|``, then ``@``
    and the patient count, e.g.
    ``N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@25``.
    """

    items: tuple[DeliveryAttributes, ...]
    count: int

    def __post_init__(self) -> None:
        if not self.items:
            raise InvalidPlantSpec("a plant needs at least one item")
        if len(self.items) > POSITIVE_DAYS:
            raise InvalidPlantSpec(
                f"a plant has at most {POSITIVE_DAYS} items, one per day of the "
                f"positive window, got {len(self.items)}"
            )
        if self.count < 0:
            raise InvalidPlantSpec(f"plant count must be >= 0, got {self.count}")

    @classmethod
    def parse(cls, text: str) -> "PlantSpec":
        body, sep, count_text = text.rpartition("@")
        if not sep or not body:
            raise InvalidPlantSpec(f"expected ITEM|...|ITEM@COUNT, got {text!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise InvalidPlantSpec(f"plant count must be an integer, got {count_text!r}") from None
        items = []
        for part in body.split("|"):
            fields = [piece.strip() for piece in part.split(",")]
            if len(fields) != 3:
                raise InvalidPlantSpec(f"expected ATC,GROUP,FLAG, got {part!r}")
            atc, group, flag_text = fields
            if not atc or not group:
                raise InvalidPlantSpec(f"empty field in plant item {part!r}")
            if flag_text not in ("0", "1"):
                raise InvalidPlantSpec(f"generic flag must be 0 or 1, got {flag_text!r}")
            attrs = DeliveryAttributes(normalize_code(atc), normalize_code(group), int(flag_text))
            items.append(attrs)
        return cls(tuple(items), count)


@dataclass(frozen=True)
class CohortConfig:
    patients: int
    seed: int
    plant: PlantSpec | None = None
    mean_events: float = 6.0
    noise_items: int = 16

    def __post_init__(self) -> None:
        if self.patients < 1:
            raise ValueError("patients must be >= 1")
        if self.plant is not None and self.plant.count > self.patients:
            raise InvalidPlantSpec(
                f"cannot plant in {self.plant.count} of {self.patients} patients"
            )
        if self.noise_items < 2:
            raise ValueError("noise roster needs at least 2 items")
        # _poisson stops at the floor e^-mean_events, which must be a positive
        # float: this rejects nan, negative means and those it underflows at.
        if not (self.mean_events >= 0 and math.exp(-self.mean_events) > 0.0):
            raise ValueError(
                f"mean_events must be >= 0 with exp(-mean_events) > 0, got {self.mean_events}"
            )


@dataclass(frozen=True)
class Cohort:
    """Everything generated: facts, KB rows, and the planted ground truth.

    The facts are the rows of the fact files, (patient, day, cip, qty)
    and (patient, day, icd) tuples, sorted by (patient, day), which
    `RawDatabase` also takes as they are. Each KB
    row is (cip, atc, group, generic, label), the columns of the
    attributes file.
    """

    config: CohortConfig
    deliveries: tuple[tuple[str, int, str, int], ...]
    diseases: tuple[tuple[str, int, str], ...]
    attribute_rows: tuple[tuple[str, str, str, int, str], ...]
    taxonomy_edges: tuple[tuple[str, str], ...]
    planted_patients: tuple[str, ...]


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method; CohortConfig keeps the floor e^-lam a positive float.
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _noise_roster(config: CohortConfig) -> list[tuple[str, DeliveryAttributes]]:
    """Noise code/attribute pairs, never colliding with planted triples."""
    banned = set(config.plant.items) if config.plant else set()
    roster = []
    i = 0
    while len(roster) < config.noise_items:
        attrs = DeliveryAttributes(NOISE_CLASSES[i % len(NOISE_CLASSES)], str(500 + i), i % 2)
        i += 1
        if attrs in banned:
            continue
        roster.append((f"NS{len(roster):03d}", attrs))
    return roster


def generate_cohort(config: CohortConfig) -> Cohort:
    """Build the whole cohort in one deterministic pass."""
    rng = random.Random(config.seed)
    noise = _noise_roster(config)
    noise_cips = [cip for cip, _ in noise]

    plant_cips: list[str] = []
    plant_codes: dict[DeliveryAttributes, str] = {}
    if config.plant:
        for attrs in config.plant.items:
            if attrs not in plant_codes:
                plant_codes[attrs] = f"PL{len(plant_codes)}"
            plant_cips.append(plant_codes[attrs])

    rows = [(cip, *attrs, "planted") for attrs, cip in plant_codes.items()]
    rows.extend((cip, *attrs, "noise") for cip, attrs in noise)
    rows.append(("OTC00", *OTHER_ATTRS, "comedication"))

    planted_idx = set()
    if config.plant and config.plant.count:
        planted_idx = set(rng.sample(range(config.patients), config.plant.count))

    width = len(str(config.patients))
    deliveries: list[tuple[str, int, str, int]] = []
    diseases: list[tuple[str, int, str]] = []
    planted_patients = []
    for idx in range(config.patients):
        patient = f"p{idx + 1:0{width}d}"
        index_day = rng.randint(*INDEX_DAYS)
        diseases.append((patient, index_day, rng.choice(INDEX_CODES)))
        if rng.random() < 0.30:
            diseases.append((patient, index_day + rng.randint(30, 120), rng.choice(INDEX_CODES)))
        if rng.random() < 0.50:
            diseases.append((patient, rng.randint(0, index_day), "I10"))

        # Noise deliveries, both windows, strict bounds already respected.
        for win_lo, win_hi in (
            (index_day - POSITIVE_DAYS, index_day - 1),
            (index_day - 179, index_day - 91),
        ):
            for _ in range(_poisson(rng, config.mean_events)):
                deliveries.append((patient, rng.randint(win_lo, win_hi), rng.choice(noise_cips), 1))
        for _ in range(_poisson(rng, 1.0)):
            deliveries.append((patient, rng.randint(index_day - 179, index_day - 1), "OTC00", 1))

        if idx in planted_idx:
            planted_patients.append(patient)
            days = sorted(rng.sample(range(index_day - POSITIVE_DAYS, index_day), len(plant_cips)))
            for day, cip in zip(days, plant_cips):
                deliveries.append((patient, day, cip, 1))

    by_patient_day = itemgetter(0, 1)
    return Cohort(
        config=config,
        deliveries=tuple(sorted(deliveries, key=by_patient_day)),
        diseases=tuple(sorted(diseases, key=by_patient_day)),
        attribute_rows=tuple(rows),
        taxonomy_edges=TAXONOMY_EDGES,
        planted_patients=tuple(planted_patients),
    )


def write_cohort(cohort: Cohort, out_dir: str) -> dict[str, str]:
    """Write the four CSV files; returns their paths keyed by role."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "deliveries": ("deliveries.csv", ("patient", "day", "cip", "qty"), cohort.deliveries),
        "diseases": ("diseases.csv", ("patient", "day", "icd"), cohort.diseases),
        "kb": (
            "kb_attributes.csv",
            ("cip", "atc", "group", "generic", "label"),
            cohort.attribute_rows,
        ),
        "taxonomy": ("taxonomy.csv", ("child", "parent"), cohort.taxonomy_edges),
    }
    paths = {}
    for role, (name, header, rows) in files.items():
        paths[role] = os.path.join(out_dir, name)
        with open(paths[role], "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    return paths
