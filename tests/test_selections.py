from make_selection_fixtures import FIXTURES, REPO, run_all


def test_cheap_bundled_runs_select_the_fixture_points(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # the bundled configs use repo-relative paths
    got = run_all(tmp_path)
    assert sorted(got) == sorted(path.stem for path in FIXTURES.glob("*.csv"))
    for name, lines in got.items():
        assert lines == (FIXTURES / f"{name}.csv").read_text(encoding="utf-8").splitlines(), name
