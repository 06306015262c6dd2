"""Unit tests for repro.experiments.results_io (JSON round-trip, CSV export)."""

import errno
import io
import json
import math

import pytest

from repro.experiments.results_io import export_grid_csv, grid_to_rows, load_result, save_result


class TestJsonRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        data = {"experiment": "fig7", "series": {"tctp": [1.0, 2.0]}}
        path = save_result(data, tmp_path / "fig7.json")
        loaded = load_result(path)
        assert loaded["experiment"] == "fig7"
        assert loaded["series"]["tctp"] == [1.0, 2.0]

    def test_tuple_keys_restored(self, tmp_path):
        data = {"grid": {"chb": {(10, 2): 5.0, (20, 4): 7.5}}}
        loaded = load_result(save_result(data, tmp_path / "grid.json"))
        assert loaded["grid"]["chb"][(10, 2)] == 5.0
        assert loaded["grid"]["chb"][(20, 4)] == 7.5

    def test_meta_block_added(self, tmp_path):
        loaded = load_result(save_result({"x": 1}, tmp_path / "x.json",
                                         extra_metadata={"note": "test"}))
        assert "library_version" in loaded["_meta"]
        assert loaded["_meta"]["note"] == "test"

    def test_file_is_valid_json(self, tmp_path):
        path = save_result({"x": [1, 2, 3]}, tmp_path / "v.json")
        json.loads(path.read_text())  # raises if invalid

    def test_parent_directories_created(self, tmp_path):
        path = save_result({"x": 1}, tmp_path / "deep" / "nested" / "r.json")
        assert path.exists()

    def test_experiment_result_round_trip(self, tmp_path):
        """A real (quick) Figure 8 run survives the round trip with its tuple-keyed grid."""
        from repro.experiments import ExperimentSettings
        from repro.experiments.fig8_sd import run_fig8

        data = run_fig8(ExperimentSettings.quick(replications=1, horizon=10_000.0,
                                                 num_targets=8, num_mules=2),
                        target_counts=(8,), mule_counts=(2,))
        loaded = load_result(save_result(data, tmp_path / "fig8.json"))
        assert loaded["grid"]["b-tctp"][(8, 2)] == pytest.approx(data["grid"]["b-tctp"][(8, 2)])


class TestGridExport:
    GRID = {"chb": {(10, 2): 1.0, (10, 4): 2.0}, "tctp": {(10, 2): 0.0, (10, 4): 0.0}}

    def test_grid_to_rows(self):
        headers, rows = grid_to_rows(self.GRID, key_names=("targets", "mules"))
        assert headers == ["targets", "mules", "chb", "tctp"]
        assert rows == [[10, 2, 1.0, 0.0], [10, 4, 2.0, 0.0]]

    def test_missing_cell_becomes_nan(self):
        grid = {"a": {(1,): 1.0}, "b": {(2,): 2.0}}
        _headers, rows = grid_to_rows(grid, key_names=("k",))
        flat = [c for row in rows for c in row]
        assert any(isinstance(v, float) and math.isnan(v) for v in flat)

    def test_empty_grid(self):
        headers, rows = grid_to_rows({}, key_names=("x",))
        assert headers == ["x"]
        assert rows == []

    def test_export_csv(self, tmp_path):
        path = export_grid_csv(self.GRID, tmp_path / "grid.csv", key_names=("targets", "mules"))
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "targets,mules,chb,tctp"
        assert len(lines) == 3


class _HalfWrites:
    """A text file whose ``write`` lands half its text, then fails as a full disk would."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[:len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _write_spec(path):
    from repro.cli import main

    return main(["sweep", "--strategies", "b-tctp", "--replications", "1",
                 "--spec-out", str(path)])


class TestFailedWriteKeepsTheOldFile:
    """A write that fails midway leaves the destination's previous bytes whole."""

    @pytest.mark.parametrize("write", [
        lambda path: save_result({"x": [1, 2, 3]}, path),
        lambda path: export_grid_csv(TestGridExport.GRID, path),
        _write_spec,
    ], ids=["save_result", "export_grid_csv", "sweep-spec-out"])
    def test_previous_bytes_survive(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        write(path)
        before = path.read_bytes()
        assert before
        real_open = io.open

        def half_writing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _HalfWrites(handle) if "w" in mode else handle

        # Path.write_text and os.fdopen both open through io.open.
        monkeypatch.setattr(io, "open", half_writing_open)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]
