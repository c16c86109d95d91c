import os

import pytest

from cid.imputation import LeadPopulation, read_level_counts
from cid.regression import ElectionDataset, fit_simple_ols

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

# Lead-level probabilities published for the observed North Carolina counts.
LEAD_PROBS = (0.22, 0.31, 0.22, 0.13, 0.04, 0.03, 0.02, 0.01, 0.01, 0.01)

ACCORDION_T05_FREQS = (0.24, 0.34, 0.24, 0.10, 0.03, 0.02, 0.02,
                       0.007, 0.008, 0.008)
PARAMETRIC_T1_FREQS = (0.26, 0.33, 0.22, 0.11, 0.03, 0.02, 0.01,
                       0.006, 0.006, 0.005)


@pytest.fixture(scope="session")
def hibbs_data():
    return ElectionDataset.from_csv(os.path.join(DATA_DIR, "hibbs.csv"))


@pytest.fixture(scope="session")
def hibbs_fit(hibbs_data):
    return fit_simple_ols(hibbs_data)


@pytest.fixture(scope="session")
def lead_population():
    return LeadPopulation(
        read_level_counts(os.path.join(DATA_DIR, "lead_counts.csv")),
        n_total=400_000)
