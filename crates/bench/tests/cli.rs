//! Pins the `repro` CLI's exit-code contract.
//!
//! The codes are part of the scripting interface (`ci.sh` and the serve
//! smoke test branch on them): 0 success, 1 runtime failure (validation
//! fail, HTTP non-200), 2 usage error. Malformed invocations — unknown
//! flags, unparseable `--seeds`/`--jobs` values, missing flag arguments —
//! must all land on 2 with a usage message, never start a simulation, and
//! never panic.

use std::io::Read;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn list_exits_zero() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("table2"));
    assert!(stdout.contains("hidden-terminal"));
}

#[test]
fn help_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

/// A reader that closes the pipe before `repro` writes (`repro ... | head`)
/// ends the run quietly: status 0 and no panic on stderr.
#[test]
fn closed_stdout_pipe_exits_zero_without_panic() {
    for args in [&["--scale", "smoke", "table2"][..], &["--help"][..]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro binary runs");
        drop(child.stdout.take());
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut err)
            .expect("read stderr");
        let status = child.wait().expect("repro exits");
        assert_eq!(status.code(), Some(0), "args: {args:?}, stderr: {err}");
        assert!(!err.contains("panicked"), "args: {args:?}, stderr: {err}");
    }
}

#[test]
fn unknown_artifact_exits_two() {
    let out = repro(&["--scale", "smoke", "no-such-artifact"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown artifact"));
    assert!(err.contains("valid artifacts"), "lists the valid names");
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    for args in [
        &["--frobnicate"][..],
        &["--scale", "smoke", "--frobnicate", "tdma"][..],
        &["-x"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown flag"), "args: {args:?}");
        assert!(err.contains("usage:"), "args: {args:?}");
    }
}

#[test]
fn malformed_seeds_exits_two_with_usage() {
    for bad in ["abc", "0", "-3", "1.5", ""] {
        let out = repro(&["--validate", "--seeds", bad]);
        assert_eq!(out.status.code(), Some(2), "--seeds {bad:?}");
        assert!(stderr(&out).contains("usage:"), "--seeds {bad:?}");
    }
    // Missing value entirely.
    let out = repro(&["--validate", "--seeds"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn malformed_jobs_exits_two_with_usage() {
    for bad in ["abc", "-1", "2.5"] {
        let out = repro(&["--jobs", bad, "tdma"]);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?}");
        assert!(stderr(&out).contains("usage:"), "--jobs {bad:?}");
    }
}

#[test]
fn malformed_scale_and_format_exit_two() {
    assert_eq!(repro(&["--scale", "huge"]).status.code(), Some(2));
    assert_eq!(repro(&["--format", "xml"]).status.code(), Some(2));
    assert_eq!(repro(&["--scale"]).status.code(), Some(2));
}

#[test]
fn validate_rejects_artifact_arguments() {
    let out = repro(&["--validate", "table2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_json_exit_codes() {
    let dir = std::env::temp_dir();
    let good = dir.join("repro_cli_good.json");
    let bad = dir.join("repro_cli_bad.json");
    std::fs::write(&good, "{\"ok\": [1, 2, 3]}\n").expect("write");
    std::fs::write(&bad, "{\"ok\": [1, 2\n").expect("write");
    assert_eq!(
        repro(&["--check-json", good.to_str().expect("utf-8")])
            .status
            .code(),
        Some(0)
    );
    assert_eq!(
        repro(&["--check-json", bad.to_str().expect("utf-8")])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        repro(&["--check-json", "/no/such/file.json"]).status.code(),
        Some(2)
    );
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn misspelled_space_file_key_exits_two_naming_it() {
    // A base spelling "wals" for "walls" used to run the pair with no wall.
    let space = wavelan_core::sweep::preset("oven-smoke").expect("preset");
    let text = wavelan_analysis::json::to_string_pretty(&space).replace("\"walls\"", "\"wals\"");
    let path = std::env::temp_dir().join("repro_cli_misspelled_space.json");
    std::fs::write(&path, text).expect("write");
    let out = repro(&["sweep", "--space", path.to_str().expect("utf-8")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown key \"wals\""),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "no sweep may run");
}

#[test]
fn http_get_requires_a_real_url() {
    // Not a URL at all → usage error (2).
    let out = repro(&["--http-get", "not-a-url"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    // Well-formed URL, nothing listening → runtime failure (1).
    let out = repro(&["--http-get", "http://127.0.0.1:9/healthz"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn serve_rejects_unknown_flags() {
    let out = repro(&["serve", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    let out = repro(&["serve", "--workers", "abc"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_store_flag_without_value_exits_two() {
    assert_eq!(repro(&["serve", "--store"]).status.code(), Some(2));
}

/// `--timing-json`, `--serve-bench`, `--capture-bench` and `--peers` are
/// not flags of any subcommand: each is a usage error before any run.
#[test]
fn removed_flags_are_unknown() {
    for args in [
        &["--timing-json", "t.json", "tdma"][..],
        &["--serve-bench", "s.json", "tdma"],
        &["tdma", "--capture-bench", "c.json"],
        &["sweep", "--space", "oven-smoke", "--timing-json", "t.json"],
        &["serve", "--peers", "127.0.0.1:1,127.0.0.1:2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("unknown"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

/// Pins the usage text: every subcommand and flag the scripting surface
/// depends on must be listed, so `repro --help` stays the one place the
/// whole CLI is discoverable.
#[test]
fn usage_text_lists_every_subcommand_and_flag() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "--scale smoke|reduced|paper",
        "--seed N",
        "--jobs N",
        "--format text|json",
        "--list",
        "--trace-out FILE",
        "repro reanalyze FILE",
        "repro trace-info FILE",
        "--scenario NAME",
        "--validate",
        "--seeds N",
        "repro sweep --space NAME|PATH",
        "--points N",
        "repro serve",
        "--addr HOST:PORT",
        "--workers N",
        "--queue N",
        "--cache N",
        "--timeout-ms N",
        "--addr-file PATH",
        "--store DIR",
        "--http-get URL",
        "--check-json PATH",
    ] {
        assert!(
            usage.contains(needle),
            "usage must mention {needle:?}:\n{usage}"
        );
    }
    for gone in [
        "--timing-json",
        "--serve-bench",
        "--capture-bench",
        "--peers",
    ] {
        assert!(
            !usage.contains(gone),
            "usage still mentions {gone:?}:\n{usage}"
        );
    }
}
