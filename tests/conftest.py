import pytest

from pipecorr import RecordSequence, demo_records, fit_mle

# Published reference values for the bundled survey (4-decimal prints;
# the row-17 beta appears as 0.1661 in one place and 0.1662 in another,
# both inside the test tolerances used here).
REFERENCE_ALPHA_17 = 1.1808
REFERENCE_BETA_17 = 0.1662
REFERENCE_MEDIAN_18 = 52.104
REFERENCE_INTERVAL_18 = (50.4336, 59.4842)

# Oracle-frozen full-precision values for the 17-record fit, confirmed
# by independent multiprecision quadrature and adaptive integration.
ORACLE_ALPHA_17 = 1.1808096365375687
ORACLE_BETA_17 = 0.16615288201496742
ORACLE_MEAN_18 = 52.858012092279627
ORACLE_KS_D_17 = 0.24826373568288548
ORACLE_KS_P_17 = 0.2111107811802131


@pytest.fixture(scope="session")
def survey():
    return demo_records()


@pytest.fixture(scope="session")
def survey17():
    return demo_records(17)


@pytest.fixture(scope="session")
def fit17(survey17):
    return fit_mle(survey17)


@pytest.fixture()
def write_csv(tmp_path):
    def _write(rows, name="data.csv", header="position_km", newline="\n"):
        path = tmp_path / name
        lines = [header] + [str(r) for r in rows]
        path.write_text(newline.join(lines) + newline, encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture(scope="session")
def survey_csv(tmp_path_factory, survey):
    path = tmp_path_factory.mktemp("data") / "survey.csv"
    lines = ["position_km"] + [repr(x) for x in survey.positions]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def survey17_csv(tmp_path_factory, survey17):
    path = tmp_path_factory.mktemp("data") / "survey17.csv"
    lines = ["position_km"] + [repr(x) for x in survey17.positions]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def validations(monkeypatch):
    """Lengths of the record sequences validated while the test runs."""
    seen = []
    original = RecordSequence.__post_init__

    def counted(self):
        seen.append(len(self.positions))
        original(self)

    monkeypatch.setattr(RecordSequence, "__post_init__", counted)
    return seen
