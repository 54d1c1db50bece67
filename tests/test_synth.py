"""Synthetic cohort generator: determinism, plant exactness, validation."""

import pytest

from pathmine.builder import build_database
from pathmine.engine import mine
from pathmine.errors import InvalidPlantSpec
from pathmine.ingest import RawDatabase
from pathmine.knowledge import DeliveryAttributes
from pathmine.model import Item, Pattern
from pathmine.oracle import discriminative_support, positive_support
from pathmine.query import compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort, write_cohort

from conftest import STUDY_QUERY, knowledge_base

STUDY_PLANT = "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@9"
STUDY_PATTERN = Pattern(
    (
        Item(("N03AG01", "438", 1)),
        Item(("N03AG01", "438", 1)),
        Item(("N03AX14", "1023", 0)),
        Item(("N03AX14", "1023", 0)),
    )
)


class TestPlantSpec:
    def test_parse_study_plant(self):
        spec = PlantSpec.parse(STUDY_PLANT)
        assert spec.count == 9
        assert spec.items[0] == DeliveryAttributes("N03AG01", "438", 1)
        assert spec.items[2] == DeliveryAttributes("N03AX14", "1023", 0)

    def test_parse_upper_cases_codes(self):
        spec = PlantSpec.parse("n03ag01, ab ,1@2")
        assert spec.items == (DeliveryAttributes("N03AG01", "AB", 1),)

    @pytest.mark.parametrize(
        "bad",
        [
            "N03AG01,438,1",            # no count
            "@5",                        # no items
            "N03AG01,438@5",             # missing flag
            "N03AG01,438,2@5",           # flag out of range
            "N03AG01,438,1@lots",        # count not an integer
            "N03AG01,,1@5",              # empty group
            "N03AG01,438,1@-1",          # negative count
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(InvalidPlantSpec):
            PlantSpec.parse(bad)

    def test_a_plant_without_items_rejected(self):
        with pytest.raises(InvalidPlantSpec, match="^a plant needs at least one item$"):
            PlantSpec((), 1)

    def test_plant_count_cannot_exceed_patients(self):
        with pytest.raises(InvalidPlantSpec):
            CohortConfig(patients=5, seed=1, plant=PlantSpec.parse(STUDY_PLANT))

    def test_plant_longer_than_the_positive_window_rejected(self):
        # The positive window (index-90, index) holds 89 days, one per item.
        with pytest.raises(InvalidPlantSpec, match="at most 89 items.*got 90"):
            PlantSpec.parse("|".join(["N03AG01,438,1"] * 90) + "@1")

    def test_plant_filling_the_positive_window_generates(self):
        plant = PlantSpec.parse("|".join(["N03AG01,438,1"] * 89) + "@1")
        cohort = generate_cohort(CohortConfig(patients=2, seed=1, plant=plant))
        (patient,) = cohort.planted_patients
        planted = [day for who, day, cip, _ in cohort.deliveries if (who, cip) == (patient, "PL0")]
        assert len(planted) == 89
        assert len(set(planted)) == 89


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("patients", 0, "patients must be >= 1"),
        ("noise_items", 1, "noise roster needs at least 2 items"),
    ],
)
def test_cohort_size_out_of_range_rejected(field, value, message):
    with pytest.raises(ValueError) as err:
        CohortConfig(**{"patients": 5, "seed": 1, field: value})
    assert str(err.value) == message


# The Poisson draw stops at e^-mean_events: nan never reaches it, and a mean
# that is infinite or too large underflows it to 0.0.
@pytest.mark.parametrize("mean_events", [float("nan"), float("inf"), -1.0, 1e6])
def test_mean_events_without_a_positive_floor_rejected(mean_events):
    with pytest.raises(ValueError, match="mean_events"):
        CohortConfig(patients=5, seed=1, mean_events=mean_events)


def small_cohort(seed=11, patients=60):
    return generate_cohort(
        CohortConfig(patients=patients, seed=seed, plant=PlantSpec.parse(STUDY_PLANT))
    )


class TestGeneration:
    def test_deterministic_for_equal_seeds(self):
        assert small_cohort(seed=3) == small_cohort(seed=3)

    def test_different_seeds_differ(self):
        assert small_cohort(seed=3) != small_cohort(seed=4)

    def test_every_patient_has_an_index_diagnosis(self):
        cohort = small_cohort()
        diagnosed = {patient for patient, _, icd in cohort.diseases if icd.startswith("G4")}
        assert len(diagnosed) == cohort.config.patients

    def test_planted_patient_count(self):
        assert len(small_cohort().planted_patients) == 9

    def test_noise_roster_never_collides_with_plant(self):
        # Plant a triple the roster would otherwise generate.
        plant = PlantSpec.parse("N03AX14,501,1@2")
        cohort = generate_cohort(CohortConfig(patients=10, seed=5, plant=plant))
        kb = knowledge_base(cohort)
        planted_code = next(
            cip for cip, _, _, _, label in cohort.attribute_rows if label == "planted"
        )
        noise_triples = {
            (atc, group, generic)
            for _, atc, group, generic, label in cohort.attribute_rows
            if label == "noise"
        }
        assert ("N03AX14", "501", 1) not in noise_triples
        assert kb.attributes.attributes(planted_code) == ("N03AX14", "501", 1)


class TestPlantExactness:
    def test_discriminative_support_is_exactly_the_plant_count(self):
        cohort = small_cohort()
        kb = knowledge_base(cohort)
        task = compile_query(parse_query(STUDY_QUERY), kb)
        db = build_database(RawDatabase(cohort.deliveries, cohort.diseases), task, kb)
        assert positive_support(STUDY_PATTERN, db) == frozenset(cohort.planted_patients)
        assert discriminative_support(STUDY_PATTERN, db) == frozenset(cohort.planted_patients)

    def test_planted_pattern_recovered_by_mining(self):
        cohort = small_cohort()
        kb = knowledge_base(cohort)
        # Lower the threshold to the plant size for this small cohort.
        task = compile_query(parse_query(STUDY_QUERY.replace("min_support 20", "min_support 9")), kb)
        db = build_database(RawDatabase(cohort.deliveries, cohort.diseases), task, kb)
        result = mine(task, db)
        by_pattern = {pt.pattern: pt for pt in result.patterns}
        assert STUDY_PATTERN in by_pattern
        assert by_pattern[STUDY_PATTERN].discriminative == frozenset(cohort.planted_patients)


class TestWriteCohort:
    def test_files_written_and_loadable(self, tmp_path):
        from pathmine.ingest import FactColumns, load_deliveries, load_diseases, load_kb

        def columns(rows):
            return FactColumns(*([row[k] for row in rows] for k in range(3)))

        cohort = small_cohort(patients=12)
        paths = write_cohort(cohort, str(tmp_path))
        assert load_deliveries(paths["deliveries"]) == columns(cohort.deliveries)
        assert load_diseases(paths["diseases"]) == columns(cohort.diseases)
        kb = load_kb(paths["kb"], paths["taxonomy"])
        assert kb.attributes.therapeutic_classes() >= {"N03AG01", "N03AX14"}

    def test_same_seed_byte_identical_files(self, tmp_path):
        first = write_cohort(small_cohort(patients=15), str(tmp_path / "a"))
        second = write_cohort(small_cohort(patients=15), str(tmp_path / "b"))
        for key in first:
            with open(first[key], "rb") as fa, open(second[key], "rb") as fb:
                assert fa.read() == fb.read()
