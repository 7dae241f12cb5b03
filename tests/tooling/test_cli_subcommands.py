"""The subcommand CLI: profile/view/merge/diff wiring, --version, and
graceful failure on unknown commands and damaged artifacts."""

from __future__ import annotations

import pytest

from repro.tooling.cli import main as cli_main

SOURCE = """
config const n = 150;
var A: [0..#n] real;
forall i in 0..#n {
  A[i] = i * 2.0;
}
var total = 0.0;
for i in 0..#n {
  total += A[i];
}
"""

FAST_ARGS = ["--threads", "2", "--threshold", "997"]


@pytest.fixture()
def source_file(tmp_path):
    f = tmp_path / "prog.chpl"
    f.write_text(SOURCE)
    return str(f)


@pytest.fixture()
def artifact(source_file, tmp_path, capsys):
    path = tmp_path / "run.cbp"
    rc = cli_main(
        ["profile", source_file, "-o", str(path), "--view", "none", *FAST_ARGS]
    )
    assert rc == 0
    capsys.readouterr()
    return str(path)


class TestDispatch:
    def test_version_flag(self, capsys):
        assert cli_main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")

    def test_no_args_prints_usage(self, capsys):
        assert cli_main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_2_with_usage(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'frobnicate'" in err
        assert "usage:" in err

    def test_legacy_form_still_profiles(self, source_file, capsys):
        rc = cli_main([source_file, "--view", "data", *FAST_ARGS])
        assert rc == 0
        assert "Data-centric view" in capsys.readouterr().out

    def test_missing_source_is_a_clean_error(self, tmp_path, capsys):
        rc = cli_main(["profile", str(tmp_path / "nope.chpl")])
        assert rc == 2
        assert "repro-profile:" in capsys.readouterr().err


class TestProfileAndView:
    def test_view_output_byte_identical_to_live(
        self, source_file, tmp_path, capsys
    ):
        art = tmp_path / "run.cbp"
        rc = cli_main(
            [
                "profile", source_file, "-o", str(art),
                "--view", "all", "--top", "10", *FAST_ARGS,
            ]
        )
        assert rc == 0
        live = capsys.readouterr().out

        rc = cli_main(["view", str(art), "--view", "all", "--top", "10"])
        assert rc == 0
        replayed = capsys.readouterr().out
        # The view subcommand's whole stdout (all three windows) must
        # appear verbatim inside the live profile output.
        assert replayed in live

    def test_streaming_profile_matches(self, source_file, tmp_path, capsys):
        rc = cli_main(["profile", source_file, "--view", "data", *FAST_ARGS])
        assert rc == 0
        live = capsys.readouterr().out
        rc = cli_main(
            [
                "profile", source_file, "--view", "data",
                "--batch-size", "16", *FAST_ARGS,
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == live

    def test_adaptive_profile_stops_early_and_replays(
        self, source_file, tmp_path, capsys
    ):
        path = tmp_path / "adaptive.cbp"
        rc = cli_main(
            [
                "profile", source_file, "--adaptive",
                "--ci-width", "0.4", "--batch-size", "8",
                "-o", str(path), "--view", "all", *FAST_ARGS,
            ]
        )
        assert rc == 0
        live = capsys.readouterr().out
        assert "[adaptive: stopped early" in live
        assert "~ adaptive: stopped early" in live
        # The truncated artifact replays byte-identically.
        rc = cli_main(["view", str(path), "--view", "all"])
        assert rc == 0
        assert capsys.readouterr().out in live

    @pytest.mark.parametrize(
        "flags",
        [
            ["--confidence", "0"],
            ["--confidence", "1"],
            ["--confidence", "1.5"],
            ["--confidence", "-0.1"],
            ["--ci-width", "0"],
            ["--ci-width", "1"],
            ["--ci-width", "2.0"],
        ],
    )
    def test_bad_interval_knobs_exit_2_with_usage(
        self, source_file, flags, capsys
    ):
        # Validated even without --adaptive: a typo'd knob must never
        # be silently ignored.
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", source_file, *flags, *FAST_ARGS])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be in (0, 1) exclusive" in err

    def test_bad_batch_size_exits_2_with_usage(self, source_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(
                ["profile", source_file, "--adaptive", "--batch-size", "0",
                 *FAST_ARGS]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--batch-size must be >= 1" in err

    def test_adaptive_saves_samples_up_to_the_stop(
        self, source_file, tmp_path, capsys
    ):
        from repro.sampling.dataset import load_samples

        path = tmp_path / "s.jsonl"
        rc = cli_main(
            [
                "profile", source_file, "--adaptive", "--ci-width", "0.4",
                "--batch-size", "8", "--save-samples", str(path), *FAST_ARGS,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[adaptive: stopped early" in out
        _header, samples = load_samples(str(path))
        assert f"{len(samples)} samples (ranking-settled)" in out
        assert [s.index for s in samples] == list(range(len(samples)))

    def test_view_meta_line(self, artifact, capsys):
        rc = cli_main(["view", artifact, "--meta", "--view", "data"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile of" in out
        assert "threshold 997" in out

    def test_view_html_export(self, artifact, tmp_path, capsys):
        html = tmp_path / "report.html"
        rc = cli_main(["view", artifact, "--html", str(html)])
        assert rc == 0
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_view_missing_artifact(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["view", str(tmp_path / "missing.cbp")])
        assert exc.value.code in (1, 2)
        assert "repro-profile:" in capsys.readouterr().err

    def test_view_corrupt_artifact_exits_1(self, artifact, tmp_path, capsys):
        lines = open(artifact).read().splitlines()
        bad = tmp_path / "bad.cbp"
        bad.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["view", str(bad)])
        assert exc.value.code == 1
        assert "truncated" in capsys.readouterr().err


class TestMergeDiff:
    def test_merge_two_shards(self, artifact, source_file, tmp_path, capsys):
        other = tmp_path / "run2.cbp"
        rc = cli_main(
            ["profile", source_file, "-o", str(other), "--view", "none", *FAST_ARGS]
        )
        assert rc == 0
        capsys.readouterr()
        merged = tmp_path / "merged.cbp"
        rc = cli_main(
            ["merge", str(merged), artifact, str(other), "--view", "data"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[merged 2 artifact(s)" in out
        assert "Data-centric view" in out
        from repro.artifact import read_artifact

        snapshot = read_artifact(str(merged))
        assert snapshot.meta.kind == "merged"

    def test_merge_records_missing_locales(self, artifact, tmp_path, capsys):
        merged = tmp_path / "merged.cbp"
        rc = cli_main(
            ["merge", str(merged), artifact, "--missing-locales", "1,2"]
        )
        assert rc == 0
        assert "missing locales [1, 2]" in capsys.readouterr().out
        from repro.artifact import read_artifact

        assert read_artifact(str(merged)).report.missing_locales == (1, 2)

    def test_diff_prints_blame_shift(self, artifact, tmp_path, capsys):
        rc = cli_main(["diff", artifact, artifact])
        assert rc == 0
        assert "Blame shift:" in capsys.readouterr().out

    def test_diff_labels(self, artifact, capsys):
        rc = cli_main(
            ["diff", artifact, artifact, "--label-a", "before", "--label-b", "after"]
        )
        assert rc == 0
        assert "Blame shift: before -> after" in capsys.readouterr().out


class TestCollectWorkers:
    """--collect-workers (sliced collection) is gone: every command line
    that still passes it exits 2 through argparse, naming the flag,
    before any work starts."""

    def _refused(self, source_file, capsys, *flags):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", source_file, *flags, *FAST_ARGS])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err
        return err

    def test_adaptive_combo_exits_2_with_clear_message(
        self, source_file, capsys
    ):
        err = self._refused(
            source_file, capsys, "--adaptive", "--collect-workers", "2"
        )
        assert "unrecognized arguments: --collect-workers 2" in err

    def test_streaming_combo_exits_2(self, source_file, capsys):
        err = self._refused(
            source_file, capsys, "--streaming", "--collect-workers", "2"
        )
        assert "--collect-workers" in err

    def test_below_one_exits_2(self, source_file, capsys):
        err = self._refused(source_file, capsys, "--collect-workers", "0")
        assert "--collect-workers" in err


class TestBadFlags:
    """Bad or unknown flags exit 2 through argparse, with usage and no
    traceback, before any work starts."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2"],
            ["--speculate"],
            ["--streaming"],
            ["--round-samples", "8"],
        ],
    )
    def test_removed_parallel_flags_exit_2(self, source_file, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", source_file, *flags, *FAST_ARGS])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus=1",
            # Keys of the removed worker-pool transport faults.
            "worker-crash=1",
            "payload-corrupt-rate=0.1",
            "init-pickle-fail=1",
        ],
    )
    @pytest.mark.parametrize("command", ["profile", "advise"])
    def test_bad_fault_spec_exits_2_naming_the_key(
        self, source_file, command, spec, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, source_file, "--inject-faults", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert repr(spec.split("=")[0]) in err
        assert "Traceback" not in err


class TestProgramErrors:
    """Faults in the user's input — a missing source file, a source that
    does not parse, a config override of the wrong type — print one
    line on stderr and exit 2, with no traceback."""

    def _one_line_exit_2(self, argv, capsys, needle):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert needle in err
        assert "Traceback" not in err

    def test_advise_missing_source(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexist.chpl")
        self._one_line_exit_2(["advise", missing], capsys, "nonexist.chpl")

    @pytest.mark.parametrize("command", ["profile", "advise"])
    def test_syntax_error(self, tmp_path, command, capsys):
        bad = tmp_path / "bad.chpl"
        bad.write_text("var x = ;\n")
        self._one_line_exit_2([command, str(bad)], capsys, "bad.chpl:1:9")

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--config", "n=abc"],
            ["profile", "--fast", "--config", "n=abc"],
            ["advise", "--profile", "--config", "n=abc"],
        ],
        ids=["profile", "fast", "advise"],
    )
    def test_config_value_of_the_wrong_type(self, source_file, argv, capsys):
        command, *flags = argv
        self._one_line_exit_2(
            [command, source_file, *flags, *FAST_ARGS],
            capsys,
            "config 'n': 'abc' is not a valid int",
        )
