"""Deterministic residual reports shared by every verifier.

A report is a pure function of its inputs: sweeps feed it in sorted index
order, scalars serialize as exact strings, and `to_dict` emits only plain
JSON types so `json.dumps(sort_keys=True)` yields byte-identical output.
The row sweeps judge residuals by their numerators, count the zeros of a
row with one `record_zeros` call and `record` only the nonzero ones.

Failures and findings are distinct sections on purpose.  A failure is a
nonzero residual under the adjudicated reading of the source formulas; a
finding documents an adjudication itself (a formula with two candidate
readings, a claim that does not survive expansion) without failing the run.
"""

from __future__ import annotations

from .scalar import is_zero, scalar_str


def _plain(value):
    """Coerce a value into plain JSON types with exact scalar strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return scalar_str(value)


class ResidualReport:
    """Counts, failures and findings of one check.

    `record` counts one residual and keeps a nonzero one as a failure;
    `record_zeros` counts a batch of residuals already judged zero by their
    numerators, so a sweep calls `record` only for its failures; `expect`
    counts one boolean check.
    """

    def __init__(self, name, params=None):
        self.name = name
        self.params = dict(params or {})
        self.checked = 0
        self.passed = 0
        self.failures = []
        self.findings = []
        self.notes = []
        self.sections = {}

    # recording -------------------------------------------------------------

    def record(self, identity, indices, residual):
        """Count one residual check; nonzero residuals become failures."""
        self.checked += 1
        zero = is_zero(residual)
        if zero:
            self.passed += 1
        else:
            self.failures.append({
                "identity": identity,
                "indices": list(indices),
                "residual": scalar_str(residual),
            })
        return zero

    def record_zeros(self, count):
        """Count `count` residuals already judged zero, in one call.

        A sweep that tests a row of residuals by their numerators counts the
        row's zeros here and sends only its nonzero residuals, reduced,
        through `record`, in index order: the counts and the failure entries
        are what one `record` per residual would give.
        """
        self.checked += count
        self.passed += count

    def expect(self, identity, indices, ok, detail=""):
        """Count one boolean check."""
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append({
                "identity": identity,
                "indices": list(indices),
                "residual": detail or "false",
            })
        return ok

    def finding(self, fid, detail, data=None):
        entry = {"id": fid, "detail": detail}
        if data is not None:
            entry["data"] = _plain(data)
        self.findings.append(entry)

    def note(self, text):
        self.notes.append(str(text))

    def section(self, key, obj):
        self.sections[key] = _plain(obj)

    def merge_child(self, key, other):
        """Fold a sub-report in as a section, accumulating its counts."""
        self.checked += other.checked
        self.passed += other.passed
        self.failures.extend(other.failures)
        self.findings.extend(other.findings)
        self.sections[key] = other.to_dict()

    # results ---------------------------------------------------------------

    @property
    def failed(self):
        return self.checked - self.passed

    def to_dict(self):
        out = {
            "check": self.name,
            "params": _plain(self.params),
            "counts": {
                "checked": self.checked,
                "passed": self.passed,
                "failed": self.failed,
            },
            "failures": self.failures,
            "findings": self.findings,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.sections:
            out["sections"] = self.sections
        return out
