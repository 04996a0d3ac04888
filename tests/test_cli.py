"""CLI: exit codes, manifests, reports, end-to-end sweep outputs."""

from __future__ import annotations

import csv
import json

import pytest

from relabel import __version__
from relabel.cli import main
from relabel.noise import NoiseModel, perturb_layout
from relabel.scene import load_scene, save_observation, synthesize_observation
from relabel.scenegen import generate_scene, patrol_route
from relabel.path import camera_stops, path_to_dict


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # stdout-mode commands drop their manifest into the working directory
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    assert run("generate", "L1", "--seed", "3", "--out", str(path)) == 0
    return path


@pytest.fixture
def observation_file(tmp_path, scene_file):
    layout = load_scene(scene_file)
    stop = camera_stops(patrol_route(layout))[1]
    perturbed = perturb_layout(layout, NoiseModel(t_sd=0.1, r_sd=10.0), 5)
    path = tmp_path / "obs.json"
    save_observation(synthesize_observation(perturbed, stop), path)
    return path


class TestExitCodes:
    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("generate", "NOPE")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--mode", "noise")  # no scene source
        assert exc.value.code == 2

    def test_missing_input_exits_3(self, tmp_path, capsys):
        assert run("assign", str(tmp_path / "no.json"), str(tmp_path / "obs.json")) == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_scene_exits_3(self, tmp_path, observation_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert run("assign", str(bad), str(observation_file)) == 3

    def test_infeasible_exits_4(self, tmp_path, capsys):
        layout = generate_scene("L1", 0)
        scene = tmp_path / "one.json"
        # keep only one object so two detections cannot be assigned
        from relabel.scene import SceneLayout, save_scene

        small = SceneLayout(
            name="one", bounds=layout.bounds, sites=layout.sites, objects=layout.objects[:1]
        )
        save_scene(small, scene)
        stop = camera_stops(patrol_route(layout))[1]
        perturbed = perturb_layout(layout, NoiseModel(t_sd=0.05), 1)
        obs = synthesize_observation(perturbed, stop)
        assert len(obs.detections) >= 2
        obs_path = tmp_path / "obs.json"
        save_observation(obs, obs_path)
        assert run("assign", str(scene), str(obs_path)) == 4
        assert "hint" in capsys.readouterr().err


class TestMalformedInput:
    """Malformed documents exit 3 with the path of the offending field."""

    @pytest.mark.parametrize(
        "document, edit, path",
        [
            ("obs", lambda doc: doc.update(detections=[1]), "detections[0]"),
            ("obs", lambda doc: doc.update(detections=5), "'detections'"),
            ("scene", lambda doc: doc.update(sites=5), "'sites'"),
            ("obs", lambda doc: doc["camera"].update(position=["a", 1]), "camera.position"),
            ("obs", lambda doc: doc["camera"].update(range=float("nan")), "camera.range"),
        ],
        ids=["detection-not-object", "detections-not-list", "sites-not-list",
             "position-not-numbers", "range-nan"],
    )
    def test_exits_3_naming_the_field(
        self, tmp_path, scene_file, observation_file, capsys, document, edit, path
    ):
        files = {"scene": scene_file, "obs": observation_file}
        doc = json.loads(files[document].read_text())
        edit(doc)
        files[document] = tmp_path / f"bad-{document}.json"
        files[document].write_text(json.dumps(doc))
        assert run("assign", str(files["scene"]), str(files["obs"])) == 3
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(segments=5), "'segments'"),
            (lambda doc: doc.update(speed="fast"), "'speed'"),
            (lambda doc: doc["segments"][0].update(p0=["a", 0]), "segments[0].p0"),
            (lambda doc: doc.update(stop_interval=None), "'stop_interval'"),
            (lambda doc: doc.update(stop_interval=float("inf")), "stop interval"),
            (lambda doc: doc["segments"][0].update(p1=[1e308, 0]), "path length"),
        ],
        ids=["segments-not-list", "speed-not-number", "point-not-numbers",
             "stop-interval-null", "stop-interval-infinite", "length-overflows"],
    )
    def test_path_file_exits_3_naming_the_field(self, tmp_path, scene_file, capsys, edit, field):
        doc = path_to_dict(patrol_route(load_scene(scene_file)))
        edit(doc)
        route = tmp_path / "bad-path.json"
        route.write_text(json.dumps(doc))
        assert run("sweep", "--scene", str(scene_file), "--path", str(route), "--noise", "0.1") == 3
        assert field in capsys.readouterr().err

    def test_overlong_integer_exits_3(self, tmp_path, capsys):
        route = tmp_path / "long.json"
        route.write_text('{"segments": [], "speed": 1' + "0" * 5000 + "}")
        assert run("sweep", "--archetype", "L1", "--path", str(route)) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_infinite_stop_interval_flag_exits_3(self, capsys):
        assert run("sweep", "--archetype", "L1", "--stop-interval", "inf") == 3
        assert "stop interval" in capsys.readouterr().err


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("generate", "M1", "--seed", "7", "--out", str(a)) == 0
        assert run("generate", "M1", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written_alongside(self, scene_file):
        manifest = json.loads((scene_file.parent / "scene.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 3
        assert manifest["tool_version"] == __version__
        assert manifest["outputs"] == [str(scene_file)]
        assert "--seed" in manifest["argv"]

    def test_out_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RELABEL_OUT_DIR", str(tmp_path / "outputs"))
        assert run("generate", "L2", "--seed", "1") == 0
        assert (tmp_path / "outputs" / "L2-seed1.scene.json").exists()


class TestAssign:
    def test_table_report(self, scene_file, observation_file, capsys):
        assert run("assign", str(scene_file), str(observation_file)) == 0
        out = capsys.readouterr().out
        assert "detection" in out and "c_t" in out and "total_cost=" in out

    def test_json_report(self, scene_file, observation_file, capsys):
        assert run("assign", str(scene_file), str(observation_file), "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == len(doc["pairs"])
        labels = [p["label"] for p in doc["pairs"]]
        assert len(set(labels)) == len(labels)
        assert 0.0 <= doc["effective_threshold"] <= 1.0

    def test_threshold_and_weights_flags(self, scene_file, observation_file, capsys):
        assert (
            run(
                "assign", str(scene_file), str(observation_file),
                "--threshold", "0.0", "--weights", "2.52,1", "--json",
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["requested_threshold"] == 0.0

    def test_report_written_to_file(self, tmp_path, scene_file, observation_file):
        out = tmp_path / "report.txt"
        assert run("assign", str(scene_file), str(observation_file), "--out", str(out)) == 0
        assert "total_cost=" in out.read_text()
        assert (tmp_path / "report.txt.manifest.json").exists()


class TestSweep:
    def test_noise_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert (
            run(
                "sweep", "--archetype", "L1", "--seed", "2", "--mode", "noise",
                "--t-list", "0.1,0.4", "--r-list", "0,10", "--seeds", "1",
                "--out-dir", str(out), "--plots",
            )
            == 0
        )
        for name in (
            "rows.csv", "translation_summary.csv", "rotation_summary.csv",
            "manifest.json", "accuracy_vs_translation.svg", "accuracy_vs_rotation.svg",
        ):
            assert (out / name).exists(), name
        with (out / "rows.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["a"] for r in rows} == {"0.1", "0.4"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert set(manifest["outputs"]) >= {str(out / "rows.csv")}

    def test_threshold_sweep_outputs(self, tmp_path):
        out = tmp_path / "tsweep"
        assert (
            run(
                "sweep", "--archetype", "L1", "--seed", "2", "--mode", "threshold",
                "--thresholds", "0,0.5,1",
                "--out-dir", str(out), "--plots",
            )
            == 0
        )
        assert (out / "threshold_summary.csv").exists()
        assert (out / "threshold_tradeoff.svg").exists()
        with (out / "rows.csv").open(newline="") as fh:
            thresholds = {r["threshold"] for r in csv.DictReader(fh)}
        assert thresholds == {"0.0", "0.5", "1.0"}

    @pytest.mark.parametrize(
        "noise_args, cells",
        [
            (("--t-list", "0.1,0.3", "--r-list", "15"), {("0.1", "15.0"), ("0.3", "15.0")}),
            (("--noise", "0.2"), {("0.2", "15.0")}),
        ],
        ids=["grid", "single-cell"],
    )
    def test_threshold_sweep_noise_flags(self, tmp_path, noise_args, cells):
        out = tmp_path / "tgrid"
        assert (
            run(
                "sweep", "--archetype", "L1", "--mode", "threshold", "--thresholds", "0.5",
                *noise_args, "--out-dir", str(out),
            )
            == 0
        )
        with (out / "rows.csv").open(newline="") as fh:
            assert {(r["a"], r["b"]) for r in csv.DictReader(fh)} == cells

    def test_scene_file_source(self, tmp_path, scene_file):
        out = tmp_path / "filesweep"
        assert (
            run(
                "sweep", "--scene", str(scene_file), "--mode", "noise",
                "--noise", "0.2,5", "--out-dir", str(out),
            )
            == 0
        )
        with (out / "rows.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["a"], r["b"]) for r in rows} == {("0.2", "5.0")}
