import json
import shutil
from importlib import resources

import pytest

import germapprox as ga
from germapprox import sets as gs
from germapprox.cli import main


@pytest.fixture(scope="module")
def curves_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dst = root / "curves.json"
    with resources.as_file(
            resources.files("germapprox") / "corpus" / "curves.json") as p:
        shutil.copy(p, dst)
    return str(dst)


@pytest.fixture(scope="module")
def isolated_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-iso")
    dst = root / "iso.json"
    dst.write_text(json.dumps({
        "vars": ["x", "y"], "omega": 0.5,
        "sets": {"onlyorigin": {"parts": [{"eqs": ["x", "y"]}]}},
    }))
    return str(dst)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert ga.__version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 2

    def test_missing_file_is_usage_error(self, capsys):
        rc = main(["compare", "/nonexistent.json", "a", "b", "--s", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_set_lists_candidates(self, curves_file, capsys):
        rc = main(["truncate", curves_file, "nope", "--h", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no set named 'nope'" in err and "parabola" in err

    def test_bad_radii_spec(self, curves_file, capsys):
        rc = main(["compare", curves_file, "line", "parabola", "--s", "1",
                   "--radii", "nope"])
        assert rc == 2
        assert "bad radii spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be nonnegative"),
        ("--margin", "inf", "margin must be positive and finite")],
        ids=["seed", "margin"])
    def test_bad_config_is_input_error(self, flag, value, message,
                                       curves_file, capsys):
        rc = main(["compare", curves_file, "line", "parabola", "--s", "1",
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["compare", "line", "parabola"], ["approx", "parabola"]],
        ids=["compare", "approx"])
    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_nonfinite_order_is_usage_error(self, command, s, curves_file,
                                            capsys):
        name, *sets = command
        with pytest.raises(SystemExit) as ei:
            main([name, curves_file, *sets, "--s", s])
        assert ei.value.code == 2
        assert f"argument --s: {s!r} is not a finite number" in \
            capsys.readouterr().err

    def test_threads_is_unknown(self, curves_file, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["compare", curves_file, "line", "parabola", "--s", "1",
                  "--threads", "2"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --threads 2" in \
            capsys.readouterr().err


class TestTruncate:
    def test_output_loads_and_matches_library(self, curves_file, tmp_path,
                                              curves, capsys):
        out = tmp_path / "t.json"
        rc = main(["truncate", curves_file, "exp_curve", "--h", "3",
                   "-o", str(out)])
        assert rc == 0
        coll = ga.load_collection(out)
        got = coll.get("exp_curve~t3.3")
        want = gs.truncate_full(curves.get("exp_curve"), 3, 3)
        assert got.signature() == want.signature()

    def test_k_defaults_to_h(self, curves_file, tmp_path):
        out = tmp_path / "t.json"
        main(["truncate", curves_file, "exp_sin", "--h", "2",
              "-o", str(out)])
        doc = json.loads(out.read_text())
        assert "exp_sin~t2.2" in doc["sets"]
        assert doc["manifest"]["config"] == {"h": 2, "k": 2}

    def test_h_defaults_to_k(self, curves_file, tmp_path):
        out = tmp_path / "t.json"
        main(["truncate", curves_file, "exp_sin", "--k", "1",
              "-o", str(out)])
        assert "exp_sin~t1.1" in json.loads(out.read_text())["sets"]

    def test_needs_some_order(self, curves_file, capsys):
        rc = main(["truncate", curves_file, "exp_sin"])
        assert rc == 2
        assert "needs --h and/or --k" in capsys.readouterr().err

    @pytest.mark.parametrize("eq", [
        "y - x/exp(exp(2)^4)", "y - exp(exp(2)^4)",
        "sin(exp(100)^4*exp(100)^4)",
        "y - (exp(100)^4*exp(100)^4 - exp(100)^4*exp(100)^4)"])
    def test_origin_overflow_is_input_error(self, eq, tmp_path, capsys):
        path = tmp_path / "ovf.json"
        path.write_text(json.dumps({
            "vars": ["x", "y"], "omega": 0.5,
            "sets": {"a": {"parts": [{"eqs": [eq]}]}}}))
        rc = main(["truncate", str(path), "a", "--h", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("omega", ["true", "1e400"])
    def test_bad_omega_names_the_file(self, omega, tmp_path, capsys):
        path = tmp_path / "omega.json"
        path.write_text('{"vars": ["x", "y"], "omega": %s, "sets": '
                        '{"a": {"parts": [{"eqs": ["y"]}]}}}' % omega)
        rc = main(["truncate", str(path), "a", "--h", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "'omega'" in err

    @pytest.mark.parametrize("text", ["(" * 2000 + "y" + ")" * 2000,
                                      " + ".join(["y"] * 2000)],
                             ids=["parentheses", "long-sum"])
    def test_deep_nesting_names_the_file(self, text, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"vars": ["x", "y"], "omega": 0.5, "sets": '
                        '{"a": {"parts": [{"eqs": ["%s"]}]}}}' % text)
        rc = main(["truncate", str(path), "a", "--h", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "set 'a'" in err
        assert "Traceback" not in err
        # the expression is quoted only in part; the position locates it
        assert len(err) < len(str(path)) + 300 and "(at position " in err

    @pytest.mark.parametrize("order", [["--h", "-1"], ["--k", "-1"]],
                             ids=["h", "k"])
    def test_negative_order_is_input_error(self, order, curves_file, capsys):
        rc = main(["truncate", curves_file, "exp_sin", *order])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonnegative" in err
        assert "Traceback" not in err

    def test_order_past_float_factorials(self, curves_file, capsys):
        # exp's coefficient 1/j! comes from j! as an exact integer past
        # j = 170, where j! overflows a float
        rc = main(["truncate", curves_file, "exp_curve", "--h", "180"])
        assert rc == 0
        assert "exp_curve~t180.180:" in capsys.readouterr().out

    def test_human_summary(self, curves_file, capsys):
        rc = main(["truncate", curves_file, "parabola", "--h", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parabola~t2.2:" in out
        assert "part 0 eq:   y - x^2 = 0" in out


class TestCompare:
    def test_holds(self, curves_file, capsys):
        rc = main(["compare", curves_file, "parabola", "line", "--s", "1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parabola and line equivalent at order 1.5: HOLDS" in out
        assert "A<=B: slope" in out
        assert "completed in" in out

    def test_fails(self, curves_file, capsys):
        rc = main(["compare", curves_file, "parabola", "line", "--s", "2.5"])
        assert rc == 1
        assert "FAILS" in capsys.readouterr().out

    def test_inconclusive(self, curves_file, capsys):
        rc = main(["compare", curves_file, "parabola", "line", "--s", "2"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out and "within the margin" in out

    @pytest.mark.parametrize("terms, code", [(450, 0), (985, 2)])
    def test_long_sum(self, terms, code, tmp_path, capsys):
        # a chain of sums nests one tree level per term; one too deep for
        # the later tree walks is refused as the file is read
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({
            "vars": ["x", "y"], "omega": 0.5,
            "sets": {"sum": {"parts": [{"eqs": [" + ".join(["y"] * terms)]}]},
                     "line": {"parts": [{"eqs": ["y"]}]}}}))
        rc = main(["compare", str(path), "sum", "line", "--s", "1.5"])
        assert rc == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: {path}: ")
            assert "deeper than" in err and "Traceback" not in err

    def test_directed_is_one_sided(self, curves_file, capsys):
        rc = main(["compare", curves_file, "halfline", "line", "--s", "2",
                   "--directed"])
        assert rc == 0
        assert "halfline within order 2 of line: HOLDS" in \
            capsys.readouterr().out
        rc = main(["compare", curves_file, "line", "halfline", "--s", "2",
                   "--directed"])
        assert rc == 1

    def test_horn_agreement(self, curves_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = main(["compare", curves_file, "exp_curve", "trunc3",
                   "--s", "3.5", "--horn", "-o", str(out)])
        assert rc == 0
        assert "horn criterion: HOLDS (agreement: True)" in \
            capsys.readouterr().out
        doc = json.loads(out.read_text())
        horn = doc["horn"]
        assert horn["holds"] and horn["agreement"]
        assert horn["a_le_b"]["sigma"] == 4.5
        assert horn["b_le_a"]["holds"]

    def test_stdout_is_pure_json(self, curves_file, capsys):
        rc = main(["compare", curves_file, "parabola", "line", "--s", "1.5",
                   "--stdout"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == "parabola" and doc["b"] == "line"
        assert doc["verdict"]["holds"] is True
        dirs = {doc["verdict"]["estimate"]["direction"],
                doc["verdict"]["estimate_reverse"]["direction"]}
        assert dirs == {"A<=B", "B<=A"}

    def test_manifest_records_run(self, curves_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        argv = ["compare", curves_file, "parabola", "line", "--s", "1.5",
                "-o", str(out), "--points", "128"]
        main(argv)
        man = json.loads(out.read_text())["manifest"]
        assert man["command"] == "compare"
        assert man["argv"] == argv
        assert man["inputs"] == {"file": curves_file,
                                 "sets": ["parabola", "line"]}
        assert man["version"] == ga.__version__
        assert man["config"]["npoints"] == 128
        assert man["config"]["radii"] == {"r0": 0.25, "ratio": 0.5,
                                          "count": 8}


class TestOrder:
    def test_summary_plus_csv(self, curves_file, capsys):
        rc = main(["order", curves_file, "exp_curve", "trunc2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deviations of 'exp_curve' and 'trunc2' at 8 radii" in out
        assert "r,delta_ab,delta_ba,floor_ab,floor_ba" in out

    def test_stdout_pure_csv_ascending(self, curves_file, capsys):
        rc = main(["order", curves_file, "exp_curve", "trunc2", "--stdout"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r,delta_ab,delta_ba,floor_ab,floor_ba"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == 8
        radii = [row[0] for row in rows]
        assert radii == sorted(radii)
        # quadratic truncation decays like r^3: doubling r scales the
        # deviation by about 8
        assert rows[1][1] / rows[0][1] == pytest.approx(8.0, rel=0.2)

    def test_file_output_with_sidecar(self, curves_file, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["order", curves_file, "line", "parabola",
                   "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("r,delta_ab,delta_ba,floor_ab,floor_ba\n")
        side = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert side["manifest"]["command"] == "order"
        assert side["estimate_ab"]["slope"] == pytest.approx(2.0, abs=0.1)
        assert side["estimate_ba"]["direction"] == "B<=A"
        # no JSON inside the CSV
        assert "{" not in text


class TestApprox:
    def test_success_payload_and_reload(self, curves_file, tmp_path, capsys):
        out = tmp_path / "a.json"
        rc = main(["approx", curves_file, "exp_sin", "--s", "3",
                   "-o", str(out)])
        assert rc == 0
        human = capsys.readouterr().out
        assert "approximant of 'exp_sin' at order 3: SUCCESS" in human
        assert "part 0: dim 1, m=1, h=2, k=1" in human
        assert "out part 0 eq:   y - x - 0.5*x^2 = 0" in human
        assert "out part 0 ineq: x >= 0" in human
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        assert doc["input"] == "exp_sin" and doc["s"] == 3.0
        assert doc["input_dimension"] == doc["output_dimension"] == 1
        assert doc["parts"][0]["m"] == 1
        assert doc["parts"][0]["h"] == 2 and doc["parts"][0]["k"] == 1
        assert doc["final_verdict"]["holds"] is True
        reloaded = gs.parse_collection(doc["output_collection"])
        approxed = reloaded.get("approx(exp_sin)")
        assert approxed.is_polynomial()

    def test_search_exhausted_exit(self, curves_file, tmp_path, capsys):
        out = tmp_path / "a.json"
        rc = main(["approx", curves_file, "exp_curve", "--s", "3",
                   "--max-h", "1", "--max-k", "1", "-o", str(out)])
        assert rc == 4
        assert "search exhausted:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["success"] is False
        assert "no truncation up to orders (1, 1)" in doc["error"]
        # the best rejected candidate is written and reloads as a set file
        best = doc["best_candidate"]
        assert best["verdict"]["holds"] is False
        coll = gs.parse_collection(best["output_collection"])
        (name,) = coll.sets
        assert coll.get(name).is_polynomial()

    def test_deep_minor_is_input_error(self, tmp_path, capsys):
        # 340 divisions parse (343 levels), but the residual set's Jacobian
        # minor would be over 1000 levels deep
        path = tmp_path / "quot.json"
        path.write_text(json.dumps({
            "vars": ["x", "y"], "omega": 0.5,
            "sets": {"quot": {"parts": [{"eqs": ["y - x" + "/(1 + x)" * 340]}]}}}))
        rc = main(["approx", str(path), "quot", "--s", "1.5", "--points", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 1x1 Jacobian minor is deeper than")
        assert "Traceback" not in err

    # the approx JSON's keys: the result's fields with input_name written as
    # input, the output set as output_collection (or output_empty), and the
    # verdicts and residual of a part only where the search produced them
    TOP = {"input", "s", "success", "input_dimension", "output_dimension",
           "caveats", "parts", "final_verdict", "output_collection",
           "manifest"}
    PART = {"part_index", "dimension", "m", "h", "k", "projection",
            "caveats"}
    VERDICTS = {"m_verdict", "candidate_verdict"}

    def _approx_doc(self, path, name, capsys):
        rc = main(["approx", str(path), name, "--s", "2", "--stdout"])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_payload_keys_per_part(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "vars": ["x", "y"], "omega": 0.5,
            "sets": {"pt_and_line": {"parts": [{"eqs": ["x", "y"]},
                                               {"eqs": ["y"]}]}}}))
        doc = self._approx_doc(path, "pt_and_line", capsys)
        assert set(doc) == self.TOP and len(doc) == 10
        point, line = doc["parts"]
        assert set(point) == self.PART and point["dimension"] == 0
        assert [point[k] for k in ("m", "h", "k", "projection")] == \
            [None] * 4
        assert set(line) == self.PART | self.VERDICTS

    def test_payload_keys_with_residual(self, curves_file, capsys):
        doc = self._approx_doc(curves_file, "halfdisk", capsys)
        assert set(doc) == self.TOP
        (part,) = doc["parts"]
        assert part["m"] is None and "residual" in part
        assert set(part) == self.PART | {"candidate_verdict", "residual"}
        assert set(part["residual"]) == self.TOP - {"manifest"}

    def test_isolated_origin_empty_output(self, isolated_file, tmp_path,
                                          capsys):
        out = tmp_path / "a.json"
        rc = main(["approx", isolated_file, "onlyorigin", "--s", "2",
                   "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        assert doc["output_empty"] is True
        assert "output_collection" not in doc


class TestTangent:
    def test_drift_report(self, curves_file, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["tangent", curves_file, "parabola", "-o", str(out)])
        assert rc == 0
        human = capsys.readouterr().out
        assert "tangent directions of 'parabola' across 8 radii" in human
        assert "drift r=0.25 -> r=0.125:" in human
        doc = json.loads(out.read_text())
        assert doc["set"] == "parabola"
        assert doc["radii"] == sorted(doc["radii"], reverse=True)
        assert len(doc["drift"]) == 7
        assert doc["drift"][-1] < doc["drift"][0]
        for d in doc["directions"]:
            assert len(d) == 2

    def test_isolated_origin_no_data(self, isolated_file, capsys):
        rc = main(["tangent", isolated_file, "onlyorigin"])
        assert rc == 5
        assert "origin isolated at resolution:" in capsys.readouterr().err


class TestReplayability:
    def test_compare_stdout_byte_identical(self, curves_file, capsys):
        argv = ["compare", curves_file, "exp_curve", "trunc2", "--s", "2.5",
                "--stdout"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_approx_file_byte_identical(self, curves_file, tmp_path):
        out = tmp_path / "a.json"
        argv = ["approx", curves_file, "cusp_product", "--s", "2.5",
                "-o", str(out)]
        main(argv)
        first = out.read_bytes()
        main(argv)
        assert out.read_bytes() == first

    def test_order_files_byte_identical(self, curves_file, tmp_path):
        out = tmp_path / "d.csv"
        argv = ["order", curves_file, "line", "parabola", "-o", str(out)]
        main(argv)
        csv1 = out.read_bytes()
        man1 = (tmp_path / "d.csv.manifest.json").read_bytes()
        main(argv)
        assert out.read_bytes() == csv1
        assert (tmp_path / "d.csv.manifest.json").read_bytes() == man1

    def test_nonfinite_values_serialized_as_null(self, curves_file,
                                                 isolated_file, tmp_path,
                                                 capsys):
        # a comparison against the isolated-origin germ produces infinite
        # deviations, which must come out as JSON null, not Infinity
        merged = tmp_path / "m.json"
        doc = json.loads(open(curves_file).read())
        doc["sets"]["onlyorigin"] = {"parts": [{"eqs": ["x", "y"]}]}
        merged.write_text(json.dumps(doc))
        rc = main(["compare", str(merged), "line", "onlyorigin", "--s", "1",
                   "--stdout"])
        assert rc == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["verdict"]["holds"] is False
        sample = payload["verdict"]["estimate"]["samples"][0]
        assert sample["delta_ab"] is None
        assert "Infinity" not in out
