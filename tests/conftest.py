"""Known Ramsey numbers as an oracle that shares no code with the package.

R(3, t) for t = 3..9 (Radziszowski, "Small Ramsey Numbers", Electron. J.
Combin. DS1).  A record R(3, t) > n with t <= 9 must have n < R(3, t); every
certificate a test builds in this process is checked against that.
"""
import pytest

from ramseyforge import certify

R3 = {3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28, 9: 36}


@pytest.fixture
def ramsey_r3():
    return R3


@pytest.fixture(autouse=True)
def _ramsey_records_respect_known_ramsey_numbers(monkeypatch):
    # collected here and asserted after the test, so a record is checked even
    # where a caller catches the exception an assertion would raise
    records = []
    init = certify.Certificate.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.ramsey is not None:
            records.append(dict(self.ramsey))

    monkeypatch.setattr(certify.Certificate, "__init__", recording_init)
    yield
    past = [r for r in records if r["t"] in R3 and r["n"] >= R3[r["t"]]]
    assert not past, f"records past a known R(3, t): {past}"
