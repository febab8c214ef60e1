"""Deterministic report assembly and rendering (markdown, CSV, JSON).

A report is a list of suites; each suite holds rows (label, status,
detail) where status is "pass", "fail" or "info".  Rendering never
emits timestamps or other run-dependent data, so report bodies are
byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import csv
import io
import json

PASS = "pass"
FAIL = "fail"
INFO = "info"


class Suite:
    def __init__(self, name, rows=None):
        self.name = name
        self.rows = [] if rows is None else rows

    def add(self, label, ok=None, detail=""):
        status = INFO if ok is None else (PASS if ok else FAIL)
        self.rows.append({"label": str(label), "status": status, "detail": str(detail)})

    def passed(self):
        return all(r["status"] != FAIL for r in self.rows)


class Report:
    def __init__(self, suites=None):
        self.suites = [] if suites is None else suites

    def new_suite(self, name):
        suite = Suite(name)
        self.suites.append(suite)
        return suite

    def passed(self):
        return all(s.passed() for s in self.suites)

    def to_json_obj(self):
        return {
            "schema": "enrq-report-v1",
            "passed": self.passed(),
            "suites": [
                {"name": s.name, "passed": s.passed(), "rows": s.rows} for s in self.suites
            ],
        }

    def render(self, fmt):
        if fmt == "json":
            return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["suite", "label", "status", "detail"])
            for s in self.suites:
                for r in s.rows:
                    writer.writerow([s.name, r["label"], r["status"], r["detail"]])
            return buf.getvalue()
        if fmt == "markdown":
            lines = []
            for s in self.suites:
                lines.append(f"## {s.name}")
                lines.append("")
                lines.append("| status | check | detail |")
                lines.append("|---|---|---|")
                for r in s.rows:
                    mark = {PASS: "PASS", FAIL: "FAIL", INFO: "."}[r["status"]]
                    lines.append(f"| {mark} | {r['label']} | {r['detail']} |")
                verdict = "passed" if s.passed() else "FAILED"
                lines.append("")
                lines.append(f"suite result: {verdict}")
                lines.append("")
            lines.append(f"overall: {'passed' if self.passed() else 'FAILED'}")
            lines.append("")
            return "\n".join(lines)
        raise ValueError(f"unknown format {fmt!r}")
