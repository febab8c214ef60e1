import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import enrq
from enrq import cli, configs, delpezzo, ecaut, fibers, gf, lattice, report, tables
from enrq.cli import RunConfig, run


@pytest.mark.parametrize("suite", [s for s in cli.SUITES if s != "all"])
def test_each_suite_passes(suite, tmp_path, capsys, time_limit):
    with time_limit():
        status, report = run(RunConfig(suite=suite, out=str(tmp_path / "r.md")))
    assert status == 0
    assert report.passed()


# sha256 of the `all` report bodies; a change that alters a body must say why
ALL_BODY_SHA256 = {
    "markdown": "acedaeaa1f8848ad3463eec53d07938d33cd0ddf4314427c8250cfbec6024a7f",
    "csv": "c3b5483998d26a8ae9d46a9080e9c1909b5466f6f638ea9aca43c66864bfe963",
    "json": "185123ad151779ab9372fb64d994976c14d6932ed6aecfeb23462751594d3707",
}


def test_run_all_reports_every_suite(tmp_path, time_limit):
    out = tmp_path / "all.md"
    with time_limit():
        status, report = run(RunConfig(suite="all", out=str(out)))
    assert status == 0
    assert [s.name for s in report.suites] == [s for s in cli.SUITES if s != "all"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_BODY_SHA256["markdown"]
    for fmt, digest in ALL_BODY_SHA256.items():
        assert hashlib.sha256(report.render(fmt).encode("utf-8")).hexdigest() == digest, fmt


# sha256 of the bodies of the two suites that read the per-process caches
SUITE_BODY_SHA256 = {
    ("lattice-selfcheck", "markdown"): "83ca2c2243e6129869d50ee57ae62077847bc2068b5642d8e10c6416c527ebfd",
    ("lattice-selfcheck", "csv"): "658145c4d147b8bc984731b202cd536f92ecb3787b9b419d60062c1ccd857a2d",
    ("lattice-selfcheck", "json"): "33c8034cb782186967f03f7188b5bfee481de53fbd064bc382f4d6f006c2ccbf",
    ("lefschetz", "markdown"): "8e7de9c4f739b8ce92ec9b8654693114486b6b0596585a77593e5fa45f3e5676",
    ("lefschetz", "csv"): "11a6630b6b5a2dcf02c4e28d4160a80f90fd74c8ba20f191af1537807ca17354",
    ("lefschetz", "json"): "02c750ac550eb9e3729ed0e4f1d976328917d1eb3ef087e7f3cbd6f535259921",
}


def body_sha256(suite, fmt, tmp_path):
    out = tmp_path / f"{suite}.{fmt}"
    status, _ = run(RunConfig(suite=suite, fmt=fmt, out=str(out)))
    assert status == 0, (suite, fmt)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_clear_caches_empties_the_fiber_caches(clear_caches):
    fibers.lefschetz_check("I2", 2)
    assert fibers._group_perms.cache_info().currsize >= 1
    clear_caches()
    assert fibers._group_perms.cache_info().currsize == fibers._component_tally.cache_info().currsize == 0
    assert not fibers._SHARED


def test_clear_caches_empties_the_overlay_caches(clear_caches):
    configs.shared_eight_search("I4*", "II*")
    assert configs._model.cache_info().currsize == 2
    clear_caches()
    assert configs._model.cache_info().currsize == configs._isomorphisms.cache_info().currsize == 0


def test_clear_caches_finds_every_cache(tmp_path, clear_caches, time_limit):
    # the caches an `all` run fills, found by the helper rather than listed by hand
    with time_limit():
        run(RunConfig(suite="all", out=str(tmp_path / "r.md")))
    named = (cli._selfcheck_draw, gf._tables, fibers._entry, ecaut._unit_group, tables._load, delpezzo._kinds)
    assert all(cached.cache_info().currsize for cached in named)
    clear_caches()
    for module in (getattr(enrq, name) for name in enrq._SUBMODULES):
        for cached in (v for v in vars(module).values() if hasattr(v, "cache_info")):
            assert cached.cache_info().currsize == 0, (module.__name__, cached)


def test_run_all_three_times_in_one_process(tmp_path, time_limit):
    # each run after the first reads the caches the earlier ones filled
    with time_limit():
        for fmt, digest in ALL_BODY_SHA256.items():
            assert body_sha256("all", fmt, tmp_path) == digest, fmt


@pytest.mark.parametrize("suite, fmt", SUITE_BODY_SHA256)
def test_cached_suites_are_pinned_cold_and_warm(suite, fmt, tmp_path, time_limit, clear_caches):
    with time_limit():
        warm = body_sha256(suite, fmt, tmp_path)
        clear_caches()
        cold = body_sha256(suite, fmt, tmp_path)
    assert cold == warm == SUITE_BODY_SHA256[suite, fmt]


def test_formats_render(tmp_path, time_limit):
    for fmt, probe in (("markdown", "## lattice-selfcheck"), ("csv", "suite,label,status,detail"), ("json", '"schema"')):
        out = tmp_path / f"r.{fmt}"
        with time_limit():
            status, _ = run(RunConfig(suite="lattice-selfcheck", fmt=fmt, out=str(out)))
        assert status == 0
        assert probe in out.read_text()
    parsed = json.loads((tmp_path / "r.json").read_text())
    assert parsed["passed"] is True


def test_metadata_sidecar_written(tmp_path, time_limit):
    out = tmp_path / "report.md"
    run(RunConfig(suite="fibers-euler", out=str(out)))
    meta = json.loads((out.parent / "report.md.meta.json").read_text())
    assert meta["argv"]["suite"] == "fibers-euler"
    assert "generated_at" in meta
    assert list(meta["suite_s"]) == ["fibers-euler"]
    with time_limit():
        run(RunConfig(suite="all", out=str(out)))
    suite_s = json.loads((out.parent / "report.md.meta.json").read_text())["suite_s"]
    assert list(suite_s) == [s for s in cli.SUITES if s != "all"]
    assert all(isinstance(t, float) and t >= 0 for t in suite_s.values())


def test_stdout_when_no_out(capsys):
    status, _ = run(RunConfig(suite="fibers-euler"))
    assert status == 0
    captured = capsys.readouterr()
    assert "fibers-euler" in captured.out


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suite="nope")
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")
    with pytest.raises(ValueError):
        RunConfig(bound=0)
    for order in (1, -2):
        with pytest.raises(ValueError):
            RunConfig(order=order)
    for degree in (1, 3, 9, -1):
        with pytest.raises(ValueError):
            RunConfig(ext_degree=degree)
    assert RunConfig(order=4).order == 4
    # multiples of every table row's degree whose fields stay enumerable
    assert ecaut.TABLE_EXT_DEGREES == (2, 4)
    assert all(RunConfig(ext_degree=d).ext_degree == d for d in (0, 2, 4))


def test_a_built_run_config_cannot_change():
    # a setting changed after the check could name a missing suite or a bound that never ends
    cfg = RunConfig()
    for name, value in (("suite", "nope"), ("bound", 1), ("order", 1)):
        with pytest.raises(AttributeError):
            setattr(cfg, name, value)
    assert cfg == RunConfig() == ("all", "markdown", None, 6, 0, 0)
    with pytest.raises(ValueError, match="bound 1:"):
        cfg._replace(bound=1)


def test_main_passes_only_the_flags_given(monkeypatch):
    # the defaults are RunConfig's alone: argparse leaves a missing flag out
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: (seen.append(cfg), (0, None))[1])
    assert cli.main([]) == 0
    assert cli.main(["--format", "csv", "--bound", "5", "--out", "r.csv"]) == 0
    assert seen == [RunConfig(), RunConfig(fmt="csv", bound=5, out="r.csv")]


@pytest.mark.parametrize("name, value", [
    ("bound", 4.5), ("bound", 6.0), ("bound", True), ("bound", "6"),
    ("ext_degree", 2.0), ("ext_degree", None), ("ext_degree", False),
    ("order", 2.5), ("order", 4.0), ("order", "4"),
])
def test_config_rejects_a_non_int_setting(name, value):
    # 4.5, 2.0 and 2.5 used to be accepted, and the run failed partway through
    with pytest.raises(ValueError, match=f"{name} must be an int") as exc:
        RunConfig(**{name: value})
    assert "\n" not in str(exc.value)


# every ValueError that quotes a caller's value, one entry point each
QUOTING_SITES = {
    "check_ints": lambda v: enrq.check_ints(n=v),
    "RunConfig suite": lambda v: RunConfig(suite=v),
    "RunConfig fmt": lambda v: RunConfig(fmt=v),
    "delpezzo.var": delpezzo.var,
    "delpezzo.surface": delpezzo.surface,
    "delpezzo.pencils": delpezzo.pencils,
    "delpezzo.recover_params": lambda v: delpezzo.recover_params(delpezzo.identity_map(), v),
    "CurveClass": lambda v: ecaut.CurveClass(2, v),
    "AutMap": lambda v: ecaut.AutMap(u=v),
    "lattice.reflection": lattice.reflection,
    "lattice.exact_det": lattice.exact_det,
    "GF.find_root": lambda v: gf.GF(2, 2).find_root(v),
    "GF.from_int": lambda v: gf.GF(2, 2).from_int(v),
    "Report.render": lambda v: report.Report().render(v),
    "GroupTag": tables.GroupTag,
}


@pytest.mark.parametrize("site", QUOTING_SITES)
def test_a_quoted_value_keeps_the_message_short(site):
    # a short value is quoted whole, a long one by the first 40
    # characters of its repr and "..."
    values = ["X" * 20, "X" * 5000, "3" * 5000]
    if site != "GF.find_root":  # whose coefficients are a list
        # a ValueError too, not the TypeError of a failed dict or cache lookup
        values += [["X"], {"X": 1}, ["X"] * 5000, dict.fromkeys(range(5000))]
    for value in values:
        text = repr(value)
        quoted = text if len(text) <= 40 else text[:40] + "..."
        with pytest.raises(ValueError) as exc:
            QUOTING_SITES[site](value)
        message = str(exc.value)
        assert quoted in message and len(message) <= 160 and "\n" not in message, message


def boundary_calls():
    """Every callable at the input boundary with a valid argument tuple:
    the QUOTING_SITES with one argument, then the entry points the demos
    call, with all their positions."""
    i2 = fibers.catalog("I2").model
    action = fibers.admissible_actions(i2, 2)[0]
    d1 = delpezzo.aut_d1()
    curve, aut = ecaut.Weierstrass(2, a3=1), ecaut.AutMap(u=(0, 1), sym_poly=(1, 1, 1))
    cls = ecaut.CurveClass(2, ecaut.SPECIAL)
    quadrics = delpezzo.surface("D1")
    calls = [(name, site, ("X",)) for name, site in QUOTING_SITES.items()]
    calls += [
        ("RunConfig", RunConfig, ("lefschetz", "csv", None, 6, 0, 2)),
        ("GF", gf.GF, (2, 2)),
        ("ComponentAction", fibers.ComponentAction, ("tame", (("p0", 1),), 1)),
        ("FiberAction", fibers.FiberAction, (action.order, action.point_perm, action.components)),
        ("FiberModel", fibers.FiberModel, (i2.components, i2.points)),
        ("catalog", fibers.catalog, ("I2",)),
        ("standard_tags", fibers.standard_tags, (2,)),
        ("admissible_actions", fibers.admissible_actions, (i2, 2)),
        ("two_connected_min", fibers.two_connected_min, (i2,)),
        ("fixed_euler", fibers.fixed_euler, (i2, action)),
        ("lefschetz_check", fibers.lefschetz_check, ("I2", 2)),
        ("pullback", delpezzo.pullback, (delpezzo.X1, d1)),
        ("proj_equal", delpezzo.proj_equal, (d1, d1)),
        ("compose", delpezzo.compose, (d1, d1)),
        ("pencil_action", delpezzo.pencil_action, (d1, delpezzo.pencils("D1")[0])),
        ("verify_preserves", delpezzo.verify_preserves, (d1, "D1")),
        ("recover_params", delpezzo.recover_params, (d1, "D1")),
        ("aut_d1", delpezzo.aut_d1, (delpezzo.LAM, delpezzo.MU)),
        ("aut_d2", delpezzo.aut_d2, (delpezzo.ALPHA, delpezzo.BETA)),
        ("aut_d3_additive", delpezzo.aut_d3_additive, (delpezzo.ALPHA, delpezzo.BETA)),
        ("aut_d3_torus", delpezzo.aut_d3_torus, (delpezzo.LAM,)),
        ("reflect", lattice.reflect, (lattice.BASIS[2], lattice.F)),
        ("signature", lattice.signature, (lattice.GRAM,)),
        ("search_sequences", lattice.search_sequences, (2, 1, 3)),
        ("IsotropicSequence", lattice.IsotropicSequence, ((lattice.E, lattice.F),)),
        ("ProjMap", delpezzo.ProjMap, (d1.coords,)),
        ("Pencil", delpezzo.Pencil, (delpezzo.pencils("D1")[0].forms,)),
        ("QuadricPair", delpezzo.QuadricPair, (quadrics.g1, quadrics.g2)),
        ("Configuration", configs.Configuration, ((("I3*", 3), ("I1", 0)),)),
        ("realizable_filter", configs.realizable_filter, (configs.enumerate_pairs(),)),
        ("odd_order_smooth_case", configs.odd_order_smooth_case, (3,)),
        ("shared_eight_search", configs.shared_eight_search, ("I4*", "II*")),
        ("CurveClass(char, j)", ecaut.CurveClass, (2, ecaut.SPECIAL)),
        ("GroupTag(structure)", tables.GroupTag, ("Q8",)),
        ("aut_group", ecaut.aut_group, (cls,)),
        ("element_orders", ecaut.element_orders, (cls,)),
        ("fixed_count", ecaut.fixed_count, (cls, 3)),
        ("Weierstrass", ecaut.Weierstrass, (2, 0, 0, 1, 0, 0)),
        ("AutMap", ecaut.AutMap, ((0, 1), (), (), (), (1, 1, 1))),
        ("check_preserves", ecaut.check_preserves, (curve, aut)),
        ("brute_force_count", ecaut.brute_force_count, (curve, aut, 2)),
    ]
    return calls


BAD_VALUES = (None, True, 1.5, "x", [], {}, "x" * 5000, (None,))


def test_the_input_boundary_raises_only_one_line_value_errors(time_limit):
    # each position of each boundary call gets each bad value in turn, then
    # seeded draws put bad values in two positions at once; a call may
    # return (None is a valid cap, [] a valid poly or matrix), but it may
    # raise only a short one-line ValueError, never a TypeError or
    # AttributeError from deep inside
    calls = boundary_calls()
    rng = random.Random(17)
    trials = [(name, site, args, (i,), (bad,)) for name, site, args in calls
              for i in range(len(args)) for bad in BAD_VALUES]
    for _ in range(100):
        name, site, args = rng.choice([c for c in calls if len(c[2]) > 1])
        positions = rng.sample(range(len(args)), 2)
        trials.append((name, site, args, positions, [rng.choice(BAD_VALUES) for _ in positions]))
    with time_limit():
        for name, site, args, positions, values in trials:
            args = list(args)
            for i, bad in zip(positions, values):
                args[i] = bad
            try:
                site(*args)
            except Exception as exc:  # the type is what is asserted
                message = str(exc)
                assert type(exc) is ValueError, (name, positions, values, repr(exc))
                assert len(message) <= 160 and "\n" not in message, (name, message)


def checked_value_types():
    """Every named tuple subclass in enrq with a __new__ of its own, which checks."""
    modules = [getattr(enrq, name) for name in enrq._SUBMODULES]
    return {kind for module in modules for kind in vars(module).values()
            if isinstance(kind, type) and hasattr(kind, "_fields") and tuple not in kind.__bases__
            and "__new__" in vars(kind)}


def checked_calls():
    """(type, valid arguments) for every checked value type: the calls past
    the QUOTING_SITES, which have valid arguments."""
    kinds = checked_value_types()
    calls = [(site, args) for _, site, args in boundary_calls()[len(QUOTING_SITES):] if site in kinds]
    assert {site for site, _ in calls} == kinds
    return calls


def test_replace_checks_as_the_constructor_does(time_limit):
    # _replace builds through _make, and a stock named tuple's _make skips
    # __new__: without the mixin, _replace would store any value
    with time_limit():
        for site, args in checked_calls():
            value = site(*args)
            assert isinstance(value, enrq._Checked) and site._fields == value._fields
            for i, field in enumerate(value._fields):
                for bad in BAD_VALUES:
                    try:
                        built = site(*args[:i], bad, *args[i + 1:])
                    except ValueError as exc:
                        built = str(exc)
                    try:
                        replaced = value._replace(**{field: bad})
                    except Exception as exc:  # the type is what is asserted
                        assert type(exc) is ValueError, (site.__name__, field, bad, repr(exc))
                        replaced = str(exc)
                    assert replaced == built, (site.__name__, field, bad)


def test_no_tuple_operation_turns_a_type_error_into_a_value():
    # a value type is a named tuple, but 2 * poly repeats no tuple and a
    # sequence has no len (callers read seq.vectors); a sequence is still true
    with pytest.raises(TypeError):
        2 * delpezzo.X0
    seq = lattice.IsotropicSequence((lattice.E, lattice.F))
    with pytest.raises(TypeError):
        len(seq)
    assert seq and list(seq) == [seq.vectors] and seq == (seq.vectors,)
    # nor does any checked value repeat or concatenate into a plain tuple
    # that no constructor checked; (1,) + c is tuple's own and stays open
    for site, args in checked_calls():
        c = site(*args)
        for operation in (lambda: c * 2, lambda: 2 * c, lambda: c + c, lambda: c + (1,)):
            with pytest.raises(TypeError):
                operation()
        assert (1,) + c == (1, *c)


@pytest.mark.parametrize("flag, value", [("--bound", "4.5"), ("--ext-degree", "2.0"), ("--order", "2.5")])
def test_cli_non_int_setting_exits_two(flag, value, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([flag, value])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"invalid int value: '{value}'" in err


def test_cli_subprocess_and_usage_error(tmp_path):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "fibers-euler", "--format", "csv", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    bad = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "bogus"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2


@pytest.mark.parametrize("target", ["missing-dir/x.md", "."])
def test_cli_unwritable_out_is_a_usage_error(tmp_path, target):
    out = tmp_path / target
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "fibers-euler", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("enrq: error: cannot write "), proc.stderr
    assert str(out) in lines[0]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_full_device_names_the_out_path():
    # the open succeeds and the write fails, so the OSError carries no filename
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "tables-consistency", "--out", "/dev/full"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"enrq: error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_cli_failed_sidecar_write_names_the_sidecar(tmp_path, monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fake_open(path, *args, **kwargs):
        return Full() if path.endswith(".meta.json") else open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    out = tmp_path / "r.md"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--suite", "tables-consistency", "--out", str(out)])
    assert exit_info.value.code == 2
    assert out.read_text().startswith("## tables-consistency")
    assert capsys.readouterr().err == f"enrq: error: cannot write {out}.meta.json: {os.strerror(errno.ENOSPC)}\n"


def test_cli_ecaut_tables_at_ext_degree_four(tmp_path):
    # once about 40 s on a 2-vCPU VM, now about 1 s: the timeout catches a
    # return of the per-multiply polynomial arithmetic
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "ecaut-tables", "--ext-degree", "4",
         "--out", str(tmp_path / "r.md")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert "## ecaut-tables" in (tmp_path / "r.md").read_text()


@pytest.mark.parametrize("flag", [("--order", "1"), ("--order", "-2"), ("--ext-degree", "1"),
                                  ("--ext-degree", "3"), ("--ext-degree", "9")])
def test_cli_rejects_bad_order_and_ext_degree(flag):
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "--suite", "fibers-euler", *flag],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("enrq: error: ")
    if flag[0] == "--ext-degree":
        assert str(ecaut.TABLE_EXT_DEGREES) in proc.stderr
    assert proc.stdout == ""


# argument lists a user may type, with the exit status each must give;
# {missing} is a path in a missing directory, {out} a writable path, {dir} a directory
CLI_SWEEP = {
    "unknown suite": (["--suite", "bogus"], 2),
    "unknown format": (["--format", "yaml"], 2),
    "suite without value": (["--suite"], 2),
    "bound 3": (["--bound", "3"], 2),
    "bound 1001": (["--bound", "1001"], 2),
    "bound abc": (["--bound", "abc"], 2),
    "ext degree 5": (["--ext-degree", "5"], 2),
    "ext degree -1": (["--ext-degree", "-1"], 2),
    "order 1": (["--order", "1"], 2),
    "order -3": (["--order", "-3"], 2),
    "out in a missing directory": (["--suite", "tables-consistency", "--out", "{missing}"], 2),
    "out on a full device": (["--suite", "tables-consistency", "--out", "/dev/full"], 2),
    "csv to stdout": (["--suite", "fibers-euler", "--format", "csv"], 0),
    "json to a file": (["--suite", "configs-shared8", "--format", "json", "--out", "{out}"], 0),
    "one lefschetz order": (["--suite", "lefschetz", "--order", "4"], 0),
    "help": (["--help"], 0),
    "unknown flag": (["--no-such-flag"], 2),
    "out is a directory": (["--suite", "tables-consistency", "--out", "{dir}"], 2),
}
# the value zoo for every flag that takes a checked value
VALUE_ZOO = {"empty": "", "1.5": "1.5", "5000 digits": "9" * 5000, "5000 chars": "x" * 5000}
for _flag in ("--bound", "--ext-degree", "--order", "--suite", "--format"):
    for _kind, _value in VALUE_ZOO.items():
        CLI_SWEEP[f"{_flag[2:].replace('-', ' ')} {_kind}"] = ([_flag, _value], 2)


@pytest.mark.parametrize("name", CLI_SWEEP)
def test_cli_sweep_exits_cleanly(name, tmp_path, time_limit, capsys):
    args, status = CLI_SWEEP[name]
    if "/dev/full" in args and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    paths = {"missing": str(tmp_path / "missing" / "r.md"), "out": str(tmp_path / "r.json"), "dir": str(tmp_path)}
    args = [a.format(**paths) for a in args]
    if status:
        # in this process, so that the sweep costs no interpreter start per case
        with time_limit(), pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == status
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("enrq: error: ")]
        assert captured.out == "" and len(errors) == 1, captured.err
        assert captured.err.strip().splitlines()[-1] == errors[0]
        if "--out" in args:  # a write error names the path it could not write
            assert f"cannot write {args[args.index('--out') + 1]}" in errors[0]
        return
    src = Path(cli.__file__).parents[1]
    with time_limit():
        proc = subprocess.run([sys.executable, "-m", "enrq.cli", *args], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bound", ["0", "1", "2", "3", "1001", "10000000"])
def test_main_rejects_a_bound_out_of_range(bound, capsys, time_limit):
    # checked before any search: a huge bound must not run out of memory,
    # and a bound below 4 must not start a search that does not finish
    assert cli.BOUND_MIN == 4
    with time_limit(1), pytest.raises(SystemExit) as exc:
        cli.main(["--suite", "lattice-selfcheck", "--bound", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == (
        f"enrq: error: bound {bound}: use 4 to {cli.BOUND_CAP} (the sequence search does not finish below 4)")


def test_bound_cap_is_accepted(capsys, time_limit):
    assert cli.BOUND_CAP == 1000
    with time_limit():
        assert cli.main(["--suite", "lattice-selfcheck", "--bound", str(cli.BOUND_CAP)]) == 0
    assert "isotropic 10-sequence within bound 1000" in capsys.readouterr().out


def test_lefschetz_order_flag(tmp_path):
    status, report = run(RunConfig(suite="lefschetz", order=3, out=str(tmp_path / "r.md")))
    assert status == 0
    assert all("order 3" in r["label"] for r in report.suites[0].rows)


def test_lazy_import_contract():
    # a fresh interpreter: this process has imported every enrq module
    script = Path(__file__).with_name("check_lazy_imports.py")
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "lazy imports ok\n"


def test_module_token_cap():
    # CI's "Module size" step, here too: a module past the cap pays the
    # compile-memory step on every run without a bytecode cache
    script = Path(__file__).with_name("check_module_tokens.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert "module tokens ok" in proc.stdout


def test_import_profile_lists_every_loaded_module():
    # the package attribute loads a submodule with __import__, which -X
    # importtime reports; importlib.import_module hid enrq.fibers and
    # enrq.lattice from the profile of `import enrq.configs`
    code = "import sys, enrq.configs; print(*(m for m in sys.modules if m.split('.')[0] == 'enrq'))"
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    loaded = set(proc.stdout.split())
    assert loaded == {"enrq", "enrq.configs", "enrq.fibers", "enrq.lattice"}, sorted(loaded)
    assert loaded <= listed, sorted(loaded - listed)


SIMPLE_ROOTS = lattice.BASIS[2:]


def reachable_roots(steps=3):
    # every root the self-check sampler can draw: a simple root moved by up to 3 simple reflections
    level = set(SIMPLE_ROOTS)
    roots = set(level)
    for _ in range(steps):
        level = {lattice.reflect(a, r) for r in level for a in SIMPLE_ROOTS}
        roots |= level
    return roots


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def selfcheck_samples():
    """The samples (r, x, y), each root index mapped back to its root."""
    roots = cli._selfcheck_draw(lattice.GRAM)[0]
    return [(roots[i], x, y) for i, x, y in cli._selfcheck_samples(lattice)]


def test_selfcheck_samples():
    samples = selfcheck_samples()
    assert len(samples) == 1000
    assert samples == selfcheck_samples()
    roots = {r for r, _, _ in samples}
    assert all(lattice.inner(r, r) == -2 for r in roots)
    assert set(SIMPLE_ROOTS) <= roots
    assert roots <= reachable_roots()
    assert not roots <= reachable_roots(2)
    values = {c for _, x, y in samples for c in x + y}
    assert values == set(range(-5, 6))
    assert all(len(x) == len(y) == 10 for _, x, y in samples)


def test_reachable_reflections_are_exact_isometric_involutions():
    # the exact statement behind the two "(1000 randomized)" rows: for every
    # root the sampler can reach, and the 14 more one step further, S = I +
    # r (G r)^T has S^2 = I and S^T G S = G
    gram = [list(row) for row in lattice.GRAM]
    identity = [list(v) for v in lattice.BASIS]
    roots = reachable_roots(4)
    assert [len(reachable_roots(k)) for k in range(5)] == [8, 23, 37, 51, 65]
    for r in roots:
        assert lattice.inner(r, r) == -2, r
        gr = [sum(g * c for g, c in zip(row, r)) for row in gram]
        s = [[(i == j) + r[i] * gr[j] for j in range(10)] for i in range(10)]
        assert matmul(s, s) == identity, r
        assert matmul(matmul([list(c) for c in zip(*s)], gram), s) == gram, r
        refl = lattice.reflection(r)
        assert [list(refl(e)) for e in lattice.BASIS] == [list(c) for c in zip(*s)], r


def test_reflection_kernel_matches_the_formula_on_reachable_roots():
    # the map and `reflect` against x + (x.r) r, on random x, the basis and
    # an x orthogonal to r, for the roots within four simple reflections
    rng = random.Random(16)
    for r in sorted(reachable_roots(4)):
        refl = lattice.reflection(r)
        xs = [tuple(rng.randint(-5, 5) for _ in range(10)) for _ in range(20)] + list(lattice.BASIS)
        y, z = xs[0], xs[1]
        perp = tuple(lattice.inner(y, r) * a - lattice.inner(z, r) * b for a, b in zip(z, y))
        assert lattice.inner(perp, r) == 0 and any(perp), r
        for x in xs + [perp]:
            k = lattice.inner(x, r)
            assert refl(x) == lattice.reflect(r, x) == tuple(a + k * b for a, b in zip(x, r)), (r, x)
        assert refl(perp) == perp


def test_selfcheck_draw_is_compact_and_shared():
    samples = list(cli._selfcheck_samples(lattice))
    roots, picks, coords = cli._selfcheck_draw(lattice.GRAM)
    assert len(roots) == len(set(roots)) == 39
    assert {i for i, _, _ in samples} == set(range(39))  # every distinct root is drawn
    assert (type(picks), len(picks)) == (bytes, 1000)
    assert {(type(chunk), len(chunk)) for chunk in coords} == {(bytes, 400)} and len(coords) == 50
    assert cli._selfcheck_draw.cache_info().currsize == 1


def test_selfcheck_samples_are_pinned():
    # a faster sampler must not change which samples the randomized rows check
    samples = json.dumps(selfcheck_samples()).encode()
    assert hashlib.sha256(samples).hexdigest() == "5ed7bfa572a6fb1e94e6f088295dc5ebc9224aaa8654e1f525e7ecf6b5c483d4"


def test_broken_reflection_fails_both_randomized_rows(monkeypatch, tmp_path, time_limit):
    # x -> x + r is neither an involution nor an isometry
    monkeypatch.setattr(lattice, "reflection", lambda r: lambda x: tuple(a + b for a, b in zip(x, r)))
    with time_limit():
        status, report = run(RunConfig(suite="lattice-selfcheck", out=str(tmp_path / "r.md")))
    assert status == 1
    rows = {row["label"]: row["status"] for row in report.suites[0].rows}
    assert rows["reflections are involutions (1000 randomized)"] == "fail"
    assert rows["reflections are isometries (1000 randomized)"] == "fail"
    assert rows["Gram determinant"] == "pass"


def test_broken_reflection_does_not_poison_a_later_run(monkeypatch, tmp_path, time_limit, clear_caches):
    # the broken run fills the sample cache; the clean run after it must not
    # read roots that the broken map walked
    clear_caches()
    monkeypatch.setattr(lattice, "reflection", lambda r: lambda x: tuple(a + b for a, b in zip(x, r)))
    with time_limit():
        status, _ = run(RunConfig(suite="lattice-selfcheck", out=str(tmp_path / "broken.md")))
        assert status == 1
        monkeypatch.undo()
        assert body_sha256("lattice-selfcheck", "markdown", tmp_path) == SUITE_BODY_SHA256[
            "lattice-selfcheck", "markdown"]
