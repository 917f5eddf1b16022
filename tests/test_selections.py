from make_selection_fixtures import FIXTURES, GRID3D_FULL, REPO, run_all


def test_cheap_bundled_runs_select_the_fixture_points(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # the bundled configs use repo-relative paths
    got = run_all(tmp_path)
    # the full 3-D run is checked by the acceptance test of criterion 3
    stems = [path.stem for path in FIXTURES.glob("*.csv") if path.stem != GRID3D_FULL]
    assert sorted(got) == sorted(stems)
    for name, lines in got.items():
        assert lines == (FIXTURES / f"{name}.csv").read_text(encoding="utf-8").splitlines(), name
