import pytest

from enrq import configs, tables


def test_rows_match_classification():
    rows = {(r.kind, r.type_tag): r for r in tables.table_rows()}
    assert len(rows) == 8
    ss_e8 = rows[("supersingular", "E~8")]
    assert [g.structure for g in ss_e8.aut_ct] == ["Z/11"]
    assert [g.structure for g in ss_e8.aut_nt] == ["Z/11"]
    cl_d8 = rows[("classical", "D~8")]
    assert [g.structure for g in cl_d8.aut_ct] == ["Z/2"]
    ss_d8 = rows[("supersingular", "D~8")]
    assert [g.structure for g in ss_d8.aut_ct] == ["Q8"]
    d44 = rows[("classical", "D~4+D~4")]
    assert [g.structure for g in d44.aut_ct] == ["1"]
    assert [g.structure for g in d44.aut_nt] == ["Z/2xZ/2"]
    e71 = rows[("classical", "E~7(1)")]
    assert [g.structure for g in e71.aut_ct] == ["1"]
    assert [g.structure for g in e71.aut_nt] == ["Z/2"]
    e6 = rows[("supersingular", "E~6")]
    assert [g.structure for g in e6.aut_ct] == ["Z/5"]


def test_e72_row_keeps_the_disjunction():
    row = next(r for r in tables.table_rows() if r.type_tag == "E~7(2)")
    assert [g.structure for g in row.aut_ct] == ["Z/7", "1"]
    assert [g.structure for g in row.aut_nt] == ["Z/7", "1"]


def test_group_tags():
    assert tables.GroupTag("Q8").order == 8
    assert tables.GroupTag("Z/2xZ/2").order == 4
    with pytest.raises(ValueError):
        tables.GroupTag("Z/13")


def test_classical_nt_check_accepts_exactly_the_2_elementary_groups_of_rank_at_most_2(monkeypatch):
    # one classical row per group, with trivial Aut_ct; of the table's groups
    # only 1, Z/2 and Z/2xZ/2 are 2-elementary, of ranks 0, 1 and 2
    data = dict(tables._load())
    data["surface_rows"] = [{"kind": "classical", "type": s, "aut_ct": ["1"], "aut_nt": [s]} for s in tables.GROUPS]
    monkeypatch.setattr(tables, "_load", lambda: data)
    got = {label.split()[3]: ok for label, ok, _ in tables.consistency_check() if "2-elementary" in label}
    assert got == {s: s in ("1", "Z/2", "Z/2xZ/2") for s in tables.GROUPS}


def test_a_supersingular_order_3_row_needs_the_order_3_configurations(monkeypatch):
    # no shipped supersingular row has a ct group with an element of order
    # 3 outside odd_order_beyond_fixed_point_tables, so only a row like
    # this one reaches that branch, and with it configs
    data = dict(tables._load())
    data["surface_rows"] = [{"kind": "supersingular", "type": "T3", "aut_ct": ["Z/3"], "aut_nt": ["Z/3"]}]
    monkeypatch.setattr(tables, "_load", lambda: data)

    def entry():
        label = "supersingular T3: ct Z/3 element orders"
        return next((ok, detail) for l, ok, detail in tables.consistency_check() if l == label)

    ok, detail = entry()
    assert ok is True
    assert detail == "element orders [1, 3] within realizable [1, 2, 3, 4, 6]; order-3 smooth-fiber configurations exist"
    monkeypatch.setattr(configs, "odd_order_smooth_case", lambda order: [])
    assert entry()[0] is False


def test_consistency_check_passes_on_shipped_data():
    entries = tables.consistency_check()
    assert entries
    failures = [(label, detail) for label, ok, detail in entries if not ok]
    assert failures == []


def test_quotient_checks_present():
    labels = [label for label, _, _ in tables.consistency_check()]
    assert any("|nt|/|ct| = 11/11" in l for l in labels)
    assert any("|nt|/|ct| = 2/1" in l for l in labels)
    assert any("char != 2" in l for l in labels)


def test_tables_json_is_parsed_once_per_process(monkeypatch):
    loads = []
    load = tables.json.load
    monkeypatch.setattr(tables.json, "load", lambda fh: loads.append(fh) or load(fh))
    tables._load.cache_clear()
    try:
        tables.consistency_check()
        tables.figures_unavailable()
        tables.table_rows()
    finally:
        tables._load.cache_clear()
    assert len(loads) == 1


def test_schema_and_figure_placeholders():
    data = tables._load()
    assert data["schema"] == "enrq-tables-v1"
    placeholders = tables.figures_unavailable()
    assert placeholders
    assert all(flag == "figure content unavailable" for _, flag in placeholders)
