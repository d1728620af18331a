"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from khoval.cli import main
from khoval.cobordism import canonical_movies, movie_to_json
from khoval.corpus import PD_CODES

MOVIES_DIR = Path(__file__).resolve().parent.parent / "movies"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- homology ------------------------------------------------------------------


def test_homology_unknot_table(capsys):
    code, out, _ = run(capsys, "homology", "L1")
    assert code == 0
    lines = [l.split() for l in out.strip().splitlines()[2:]]
    assert [l[:3] for l in lines] == [["0", "-1", "1"], ["0", "1", "1"]]


def test_homology_empty_diagram(capsys):
    code, out, _ = run(capsys, "homology", "")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[:3] == ["0", "0", "1"]


def test_homology_json_roundtrips_table(capsys):
    code, human, _ = run(capsys, "homology", PD_CODES["trefoil"])
    code2, js, _ = run(capsys, "homology", PD_CODES["trefoil"], "--format", "json")
    assert code == code2 == 0
    rows = json.loads(js)["rows"]
    rendered = [
        [str(r["i"]), str(r["q"]), str(r["free_rank"]),
         ",".join(str(t) for t in r["torsion"]) or "-"]
        for r in rows
    ]
    human_rows = [l.split() for l in human.strip().splitlines()[2:]]
    assert rendered == human_rows


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", PD_CODES["trefoil"], "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,q,free_rank,torsion"
    assert "3,7,0,2" in lines


def test_homology_lee_drops_q(capsys):
    code, out, _ = run(capsys, "homology", "L1", "--theory", "lee")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[:3] == ["0", "-", "2"]


# -- jones ----------------------------------------------------------------------


def test_jones_unknot(capsys):
    code, out, _ = run(capsys, "jones", "L0")
    assert code == 0
    assert "q^-1 + q" in out
    assert "agree:          yes" in out


def test_jones_two_loops(capsys):
    code, out, _ = run(capsys, "jones", "L0 L1")
    assert code == 0
    assert "q^-2 + 2 + q^2" in out


def test_jones_trefoil_agreement(capsys):
    code, out, _ = run(capsys, "jones", PD_CODES["trefoil"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["graded_euler"] == payload["kauffman_jones"]


# -- movie ------------------------------------------------------------------------


def test_movie_torus_file(capsys, monkeypatch):
    import khoval.cobordism as cobordism

    evaluated = []
    eval_movie = cobordism.eval_movie

    def counting_eval(m, th, **kwargs):
        evaluated.append(th.value)
        return eval_movie(m, th, **kwargs)

    monkeypatch.setattr(cobordism, "eval_movie", counting_eval)
    code, out, _ = run(capsys, "movie", str(MOVIES_DIR / "torus.json"))
    assert code == 0
    assert out.splitlines() == ["BN = 2", "KJ = 2"]
    # BN and KJ come from one deformed and one plain evaluation
    assert sorted(evaluated) == ["bar_natan", "khovanov"]


def test_movie_genus3(capsys):
    code, out, _ = run(capsys, "movie", str(MOVIES_DIR / "genus3.json"))
    assert code == 0
    assert out.splitlines() == ["BN = 8*t", "KJ = 0"]


def test_movie_sphere(capsys):
    code, out, _ = run(capsys, "movie", str(MOVIES_DIR / "sphere.json"))
    assert code == 0
    assert out.splitlines()[0] == "BN = 0"


def test_movie_theory_flags(capsys):
    code, out, _ = run(
        capsys, "movie", str(MOVIES_DIR / "torus.json"), "--theory", "khovanov"
    )
    assert code == 0 and out.strip() == "KJ = 2"
    code, out, _ = run(
        capsys, "movie", str(MOVIES_DIR / "torus.json"), "--theory", "lee"
    )
    assert code == 0 and out.strip() == "Lee = 2"


def test_movie_deterministic_output(capsys):
    path = str(MOVIES_DIR / "torus_r2_detour.json")
    _, out1, _ = run(capsys, "movie", path)
    _, out2, _ = run(capsys, "movie", path)
    assert out1 == out2


def test_movie_punctured(capsys, tmp_path):
    from khoval.cobordism import punctured_to_empty

    p = tmp_path / "punctured.json"
    p.write_text(json.dumps(movie_to_json(punctured_to_empty(2))))
    code, out, _ = run(capsys, "movie", str(p), "--punctured", "--label", "v-")
    assert code == 0
    assert out.strip() == "psi(v-) = 4*t"


def test_movie_punctured_from_empty(capsys, tmp_path):
    from khoval.cobordism import punctured_from_empty

    p = tmp_path / "punctured.json"
    p.write_text(json.dumps(movie_to_json(punctured_from_empty(1))))
    code, out, _ = run(capsys, "movie", str(p), "--punctured")
    assert code == 0
    assert out.strip() == "psi(1) = (2)*v-"


def test_movie_punctured_from_empty_refuses_a_label(capsys, tmp_path):
    from khoval.cobordism import punctured_from_empty, punctured_to_empty

    p = tmp_path / "punctured.json"
    p.write_text(json.dumps(movie_to_json(punctured_from_empty(1))))
    code, out, err = run(capsys, "movie", str(p), "--punctured", "--label", "v-")
    assert code == 2 and not out and "--label" in err
    # without --label an unknot-to-empty movie starts at v-
    p.write_text(json.dumps(movie_to_json(punctured_to_empty(2))))
    code, out, _ = run(capsys, "movie", str(p), "--punctured")
    assert code == 0 and out.strip() == "psi(v-) = 4*t"


def test_movie_label_needs_punctured(capsys):
    path = str(MOVIES_DIR / "torus.json")
    code, out, err = run(capsys, "movie", path, "--label", "v+")
    assert code == 2 and not out and "--punctured" in err
    code, out, _ = run(capsys, "movie", path)
    assert code == 0 and out.strip() == "BN = 2\nKJ = 2"


def test_movie_punctured_v_plus_on_torus(capsys, tmp_path):
    # with test_movie_punctured_from_empty, pins which label --label v+ selects
    from khoval.cobordism import punctured_to_empty

    p = tmp_path / "punctured.json"
    p.write_text(json.dumps(movie_to_json(punctured_to_empty(1))))
    code, out, _ = run(capsys, "movie", str(p), "--punctured", "--label", "v+")
    assert code == 0
    assert out.strip() == "psi(v+) = 2"


def test_movie_punctured_respects_the_cap(capsys, monkeypatch):
    from test_cobordism import kink_to_empty

    kinked = json.dumps(movie_to_json(kink_to_empty()))
    code, out, _ = run(capsys, "movie", kinked, "--punctured", "--cap", "1")
    assert code == 0 and out.strip() == "psi(v-) = 1"
    code, _, err = run(capsys, "movie", kinked, "--punctured", "--cap", "0")
    assert code == 4 and "cap is 0" in err
    monkeypatch.setenv("KHOVAL_CAP", "0")
    code, _, err = run(capsys, "movie", kinked, "--punctured")
    assert code == 4 and "cap is 0" in err


def test_movie_applies_each_event_once(capsys, monkeypatch):
    import khoval.cobordism as cobordism

    applied = []
    apply_esi_info = cobordism.apply_esi_info

    def counting(d, event):
        applied.append(event)
        return apply_esi_info(d, event)

    monkeypatch.setattr(cobordism, "apply_esi_info", counting)
    path = MOVIES_DIR / "torus_r2_detour.json"
    code, out, _ = run(capsys, "movie", str(path))
    assert code == 0 and out.splitlines() == ["BN = 2", "KJ = 2"]
    # the replay rewrites each still once; both evaluations reuse its move data
    assert len(applied) == len(json.loads(path.read_text())["movie"])


def test_stills_torus(capsys):
    code, out, _ = run(capsys, "stills", str(MOVIES_DIR / "torus.json"))
    assert code == 0
    assert out.count("== still") == 5


def test_stills_invalid_movie_partial(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"movie": [{"op": "birth"}, {"op": "death", "circle": 99}]}))
    code, out, _ = run(capsys, "stills", str(p))
    assert code == 0
    assert out.count("== still") == 2
    assert "invalid at event 2" in out


# -- exit codes ---------------------------------------------------------------------


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "homology", "X(1,2,3)")
    assert code == 2 and "error" in err


def test_exit_parse_error_for_a_code_that_is_not_planar(capsys):
    # the trefoil with arc 2 poked over arc 1 through no shared face
    pd = "X(7,10,8,11) X(8,12,9,11) X(9,4,10,5) X(3,6,4,7) X(5,12,6,3)"
    code, out, err = run(capsys, "homology", pd)
    assert (code, out) == (2, "") and "not planar" in err


def test_exit_theory_guard(capsys):
    code, _, err = run(capsys, "homology", "L0", "--theory", "bar-natan")
    assert code == 3


def test_exit_cap_exceeded(capsys):
    code, _, err = run(capsys, "homology", PD_CODES["trefoil"], "--cap", "2")
    assert code == 4


def test_exit_movie_validation(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"movie": [{"op": "death", "circle": 1}]}))
    code, _, err = run(capsys, "movie", str(p))
    assert code == 5 and "event 1" in err


def test_same_circle_poke_fails_validation(capsys):
    # both feet of the poke on one crossing-free circle: no planar diagram
    movie = {"movie": [
        {"op": "birth"},
        {"op": "r2", "variant": "add", "arcs": [1, 2]},
        {"op": "r2", "variant": "remove", "crossings": [1, 2]},
        {"op": "saddle", "arcs": [7, 8]},
        {"op": "saddle", "arcs": [9, 10]},
        {"op": "death", "circle": 11},
    ]}
    code, out, err = run(capsys, "movie", json.dumps(movie))
    assert (code, out) == (5, "") and "event 2" in err and "planar" in err


def test_poke_without_a_shared_face_fails_validation(capsys):
    # arcs 5 and 7 of the twice-kinked unknot bound no common face the poke can run in
    movie = {"movie": [
        {"op": "birth"},
        {"op": "r1", "variant": "add_pos", "arc": 1},
        {"op": "r1", "variant": "add_neg", "arc": 3},
        {"op": "r2", "variant": "add", "arcs": [5, 7]},
        {"op": "r2", "variant": "remove", "crossings": [3, 4]},
        {"op": "r1", "variant": "remove", "crossing": 2},
        {"op": "r1", "variant": "remove", "crossing": 1},
        {"op": "death", "circle": 17},
    ]}
    code, out, err = run(capsys, "movie", json.dumps(movie))
    assert (code, out) == (5, "") and "event 4" in err and "planar" in err


def test_saddle_without_a_shared_face_fails_validation(capsys):
    # three kinks and two saddles make a trefoil still; its arcs 7 and 12 share
    # no face on the same side, so no band joins them in the plane
    movie = {"movie": [
        {"op": "birth"},
        {"op": "r1", "variant": "add_pos", "arc": 1},
        {"op": "r1", "variant": "add_pos", "arc": 3},
        {"op": "r1", "variant": "add_pos", "arc": 5},
        {"op": "saddle", "arcs": [4, 6]},
        {"op": "saddle", "arcs": [9, 11]},
        {"op": "saddle", "arcs": [7, 12]},
    ]}
    code, out, _ = run(capsys, "stills", json.dumps({"movie": movie["movie"][:6]}))
    assert code == 0 and "X(8,14,13,10) X(10,13,12,7) X(7,12,14,8)" in out
    code, out, err = run(capsys, "movie", json.dumps(movie))
    assert (code, out) == (5, "") and "event 7" in err and "planar" in err


@pytest.mark.parametrize("movie", [
    '{"movie": 5}',
    '{"movie": null}',
    '{"movie": [{"op": "birth"}, {"op": "death", "circle": 1e400}]}',
    '{"movie": [{"op": "birth"}, {"op": "death", "circle": 1.5}]}',
    '{"movie": [{"op": "birth"}, {"op": "saddle", "arcs": "12"}]}',
    '{"movie": [{"op": "birth"}, {"op": "r1", "variant": "add_pos", "arc": true}]}',
    '{"movie": [{"op": "birth", "variant": "add"}]}',
    '{"movie": [{"op": "r3", "variant": "cyclic", "crossings": [1, 2, 3]}]}',
])
def test_malformed_movie_json_is_a_parse_error(capsys, movie):
    # an id is a JSON integer: no float, string or bool is coerced into one;
    # an event's (kind, variant) must exist
    code, out, err = run(capsys, "movie", movie)
    assert (code, out) == (2, "") and err.startswith("error:") and "Traceback" not in err


def test_unknown_theory_is_theory_error(capsys):
    code, _, _ = run(capsys, "homology", "L0", "--theory", "quantum")
    assert code == 3


# -- env overrides and data files ------------------------------------------------------


def test_env_theory_override(capsys, monkeypatch):
    monkeypatch.setenv("KHOVAL_THEORY", "lee")
    code, out, _ = run(capsys, "homology", "L1")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[:3] == ["0", "-", "2"]


def test_env_format_override(capsys, monkeypatch):
    monkeypatch.setenv("KHOVAL_FORMAT", "json")
    code, out, _ = run(capsys, "homology", "L1")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("name,value", [("CAP", "abc"), ("CAP", "-1"), ("FORMAT", "xml")])
def test_env_default_is_validated_like_a_flag(capsys, monkeypatch, name, value):
    monkeypatch.setenv(f"KHOVAL_{name}", value)
    with pytest.raises(SystemExit) as exc:
        main(["homology", "L0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument --{name.lower()}: invalid" in err and repr(value) in err


def test_negative_cap_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "", "--cap", "-1"])
    assert exc.value.code == 2
    assert "argument --cap: invalid value: '-1'" in capsys.readouterr().err
    # 0 is a cap: it refuses any crossing
    code, _, _ = run(capsys, "homology", "", "--cap", "0")
    assert code == 0
    code, _, err = run(capsys, "homology", PD_CODES["trefoil"], "--cap", "0")
    assert code == 4 and "cap is 0" in err


def test_parser_follows_the_environment_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("KHOVAL_FORMAT", "json")
    code, out, _ = run(capsys, "homology", "L1")
    assert code == 0
    json.loads(out)
    monkeypatch.setenv("KHOVAL_FORMAT", "human")
    code, out, _ = run(capsys, "homology", "L1")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    # a bad value is refused on every call, also once its parser is built
    monkeypatch.setenv("KHOVAL_FORMAT", "xml")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["homology", "L0"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_per_environment(monkeypatch):
    from khoval import cli

    monkeypatch.delenv("KHOVAL_FORMAT", raising=False)
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("KHOVAL_FORMAT", "csv")
    assert cli.build_parser().parse_args(["verify"]).format == "csv"


def test_shipped_movies_match_builders():
    movies = canonical_movies()
    for name, movie in movies.items():
        path = MOVIES_DIR / f"{name}.json"
        assert path.is_file(), name
        assert path.read_text() == json.dumps(movie_to_json(movie), indent=1) + "\n", name


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)
