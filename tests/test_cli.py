"""CLI: exit codes, manifests, reports, end-to-end sweep outputs."""

from __future__ import annotations

import csv
import dataclasses
import json

import pytest

from relabel import __version__
from relabel import path as route_module
from relabel.cli import main
from relabel.costs import (
    default_weights,
    dimension_cost,
    pair_cost,
    rotation_cost,
    translation_cost,
)
from relabel.noise import NoiseModel, perturb_layout
from relabel.partition import VoronoiSite
from relabel.scene import load_scene, save_observation, save_scene, synthesize_observation
from relabel.scenegen import generate_scene, patrol_route
from relabel.path import MAX_STOPS, camera_stops, path_length, path_to_dict


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


class TestSeedAndFrameRate:
    """A negative seed or a non-finite frame rate exits 3, naming it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "H1", "--seed", "-1"),
            ("sweep", "--archetype", "L1", "--seed", "-1"),
            ("sweep", "--scene", "SCENE", "--seed", "-1", "--noise", "0.1"),
        ],
        ids=["generate", "sweep-archetype", "sweep-scene"],
    )
    def test_negative_seed_exits_3(self, tmp_path, scene_file, capsys, argv):
        argv = [str(scene_file) if a == "SCENE" else a for a in argv]
        assert run(*argv, "--out-dir", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_frame_rate_exits_3(self, tmp_path, capsys, value):
        args = ("--archetype", "L1", "--noise", "0.1", "--frame-rate", value)
        assert run("sweep", *args, "--out-dir", str(tmp_path / "out")) == 3
        assert "frame rate must be finite" in capsys.readouterr().err

    def test_overflowing_stop_spacing_exits_3(self, tmp_path, capsys):
        # speed * stop_interval / frame_rate = 1e307 * 100 / 60 is inf
        args = ("--archetype", "L1", "--noise", "0.1", "--speed", "1e307")
        assert run("sweep", *args, "--out-dir", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "stop spacing must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--archetype", "L1", "--noise", "0.1", "--frame-rate", "nan"),
            ("--scene", "SCENE", "--seed", "-1", "--noise", "0.1"),
        ],
        ids=["frame-rate-nan", "scene-negative-seed"],
    )
    def test_failed_sweep_leaves_no_out_dir(self, tmp_path, scene_file, argv):
        argv = [str(scene_file) if a == "SCENE" else a for a in argv]
        out = tmp_path / "out"
        assert run("sweep", *argv, "--out-dir", str(out)) == 3
        assert not out.exists()


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
            (lambda doc: doc.update(speed=1e307), "stop spacing"),
        ],
        ids=["segments-not-list", "speed-not-number", "point-not-numbers",
             "stop-interval-null", "stop-interval-infinite", "length-overflows",
             "spacing-overflows"],
    )
    def test_path_file_exits_3_naming_the_field(self, tmp_path, scene_file, capsys, edit, field):
        doc = path_to_dict(patrol_route(load_scene(scene_file)))
        edit(doc)
        route = tmp_path / "bad-path.json"
        route.write_text(json.dumps(doc))
        assert run("sweep", "--scene", str(scene_file), "--path", str(route), "--noise", "0.1") == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "speed, stop_interval",
        [
            # 2 * MAX_STOPS spacings of speed * 100 / 60 m along the route
            (lambda length: length * 0.6 / (2 * MAX_STOPS), 100.0),
            # the smallest positive speed: 5e-324 * 1 / 60 underflows to 0
            (lambda length: 5e-324, 1.0),
        ],
        ids=["over-limit", "spacing-underflows"],
    )
    def test_too_many_stops_exits_3(
        self, tmp_path, scene_file, capsys, monkeypatch, speed, stop_interval
    ):
        # the stop count is checked before any stop is placed, and placing
        # one fails the test, so no unbounded list of stops is ever built
        def placed(*args):
            raise AssertionError("a stop was placed")

        monkeypatch.setattr(route_module, "_locate", placed)
        route = patrol_route(load_scene(scene_file))
        doc = path_to_dict(route)
        doc.update(speed=speed(path_length(route)), stop_interval=stop_interval)
        bad = tmp_path / "crawl.json"
        bad.write_text(json.dumps(doc))
        assert run("sweep", "--scene", str(scene_file), "--path", str(bad), "--noise", "0.1") == 3
        assert f"more than {MAX_STOPS} stops" in capsys.readouterr().err

    def test_overlong_integer_exits_3(self, tmp_path, capsys):
        route = tmp_path / "long.json"
        route.write_text('{"segments": [], "speed": 1' + "0" * 5000 + "}")
        assert run("sweep", "--archetype", "L1", "--path", str(route)) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_infinite_stop_interval_flag_exits_3(self, capsys):
        assert run("sweep", "--archetype", "L1", "--stop-interval", "inf") == 3
        assert "stop interval" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda det: det["dims"].update(w=1e308),
            lambda det: det["dims"].update(w=1e-320),
            lambda det: det["pose"].update(x=1e308),
        ],
        ids=["box-huge", "box-subnormal", "position-huge"],
    )
    def test_overflowing_cost_table_names_every_cause(self, tmp_path, capsys, edit):
        # L1 seed 0 at its first stop that sees an object, with the default
        # weights: one detection's box or position overflows the table
        layout = generate_scene("L1", 0)
        seen = (synthesize_observation(layout, c) for c in camera_stops(patrol_route(layout)))
        observation = tmp_path / "obs.json"
        save_observation(next(o for o in seen if o.detections), observation)
        doc = json.loads(observation.read_text())
        edit(doc["detections"][0])
        observation.write_text(json.dumps(doc))
        scene = tmp_path / "l1.json"
        save_scene(layout, scene)
        assert run("assign", str(scene), str(observation)) == 3
        err = capsys.readouterr().err
        assert "the cost table overflows" in err
        assert all(cause in err for cause in ("box dimensions", "positions", "weights"))

    def test_floor_whose_area_overflows_exits_3_naming_bounds(
        self, tmp_path, scene_file, observation_file, capsys
    ):
        doc = json.loads(scene_file.read_text())
        doc["bounds"] = {"width": 1e200, "depth": 1e200}
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        assert run("assign", str(huge), str(observation_file)) == 3
        err = capsys.readouterr().err
        assert "bounds" in err and "weight" not in err

    def test_untyped_detection_with_category_separation_exits_3(
        self, tmp_path, scene_file, capsys
    ):
        layout = load_scene(scene_file)
        observation = synthesize_observation(layout, camera_stops(patrol_route(layout))[0])
        path = tmp_path / "untyped.json"
        save_observation(observation, path)
        doc = json.loads(path.read_text())
        assert len(doc["detections"]) >= 3
        del doc["detections"][2]["type"]
        path.write_text(json.dumps(doc))
        assert run("assign", str(scene_file), str(path), "--category-separated") == 3
        assert "detections[2]" in capsys.readouterr().err


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

    def test_report_cells_match_scalar_costs(self, tmp_path, scene_file, capsys):
        layout = load_scene(scene_file)
        perturbed = perturb_layout(layout, NoiseModel(t_sd=0.3, r_sd=20.0), 7)
        seen = (synthesize_observation(perturbed, c) for c in camera_stops(patrol_route(layout)))
        observation = next(o for o in seen if len(o.detections) >= 3)
        observation_file = tmp_path / "many.json"
        save_observation(observation, observation_file)
        objects = {o.label: o for o in layout.objects}
        weights = default_weights(layout.bounds)
        assert run("assign", str(scene_file), str(observation_file), "--json") == 0
        pairs = json.loads(capsys.readouterr().out)["pairs"]
        assert run("assign", str(scene_file), str(observation_file)) == 0
        table = capsys.readouterr().out.splitlines()[1:-1]
        assert len(table) == len(pairs) == len(observation.detections)
        for pair, line in zip(pairs, table):
            detection, candidate = observation.detections[pair["detection"]], objects[pair["label"]]
            expected = {
                "c_t": translation_cost(candidate.pose, detection.pose, layout.bounds),
                "c_r": rotation_cost(candidate.pose.yaw, detection.pose.yaw),
                "c_d": dimension_cost(candidate.dims, detection.dims),
                "total": pair_cost(detection, candidate, layout.bounds, weights),
            }
            assert {k: pair[k] for k in expected} == pytest.approx(expected, abs=1e-12)
            shown = [str(pair["detection"]), pair["label"], *(f"{pair[k]:.6f}" for k in expected)]
            assert line.split() == shown

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

    @pytest.mark.parametrize(
        "flag, mode, other",
        [("--threshold", "noise", "threshold"), ("--thresholds", "threshold", "noise")],
    )
    def test_threshold_flag_in_the_other_mode_exits_2(self, tmp_path, capsys, flag, mode, other):
        out = tmp_path / "wrong-mode"
        args = ("--archetype", "L1", "--mode", other, flag, "0.5", "--out-dir", str(out))
        assert run("sweep", *args) == 2
        assert f"{flag} applies to --mode {mode} only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--noise", "0.1", "--t-list", "0.2,0.3"), "--noise cannot be combined with --t-list"),
            (("--noise", "0.1", "--r-list", "5"), "--noise cannot be combined with --r-list"),
            (("--noise", "0.1,5,7"), "--noise takes A or A,B, got 3 values"),
        ],
        ids=["t-list", "r-list", "three-values"],
    )
    @pytest.mark.parametrize("mode", ["noise", "threshold"])
    def test_noise_flag_that_would_be_ignored_exits_2(self, tmp_path, capsys, extra, message, mode):
        out = tmp_path / "ignored"
        args = ("--archetype", "L1", "--mode", mode, *extra, "--out-dir", str(out))
        assert run("sweep", *args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--speed", "--stop-interval"])
    def test_route_flag_with_a_route_file_exits_2(self, tmp_path, scene_file, capsys, flag):
        # a route file carries its own speed and stop interval, so the run
        # would ignore the flag
        route = tmp_path / "route.json"
        route.write_text(json.dumps(path_to_dict(patrol_route(load_scene(scene_file)))))
        out = tmp_path / "ignored"
        args = ("--scene", str(scene_file), "--path", str(route), "--noise", "0.1")
        assert run("sweep", *args, flag, "0.5", "--out-dir", str(out)) == 2
        assert f"{flag} applies to the default route only" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_route_used(self, tmp_path, scene_file):
        layout = load_scene(scene_file)
        route = tmp_path / "route.json"
        route.write_text(json.dumps(path_to_dict(patrol_route(layout, 2.0, 50.0))))
        for name, extra, used in (
            ("file", ("--path", str(route)), (2.0, 50.0)),
            ("default", ("--speed", "0.5"), (0.5, 100.0)),
            ("defaults", (), (1.0, 100.0)),
        ):
            out = tmp_path / name
            args = ("--scene", str(scene_file), "--noise", "0.1", *extra, "--out-dir", str(out))
            assert run("sweep", *args) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["speed"], config["stop_interval"]) == used

    def test_two_sites_sharing_a_center(self, tmp_path):
        # the default route circles the shared center, as for one site
        layout = generate_scene("L1", 0)
        first, second = layout.sites
        shared = dataclasses.replace(layout, sites=(first, VoronoiSite(second.id, first.center)))
        scene = tmp_path / "shared.json"
        save_scene(shared, scene)
        out = tmp_path / "shared-sweep"
        assert run("sweep", "--scene", str(scene), "--noise", "0.1", "--out-dir", str(out)) == 0
        assert (out / "rows.csv").is_file()

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
