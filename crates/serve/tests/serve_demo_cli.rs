//! `serve_demo` refuses bad input with `error: …` and exit status 2 instead
//! of panicking or aborting on allocation.

use std::process::{Command, Output};

fn serve_demo(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve_demo"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("serve_demo starts")
}

fn assert_refused(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains(needle), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "a refusal runs nothing");
}

#[test]
fn an_unknown_argument_is_refused() {
    assert_refused(&serve_demo(&["--bogus"], &[]), "\"--bogus\"");
}

#[test]
fn an_out_flag_without_a_path_is_refused() {
    assert_refused(&serve_demo(&["--out"], &[]), "--out needs a path");
}

#[test]
fn a_request_count_outside_its_range_is_refused_before_any_allocation() {
    for count in ["0", "65537", "100000000"] {
        let output = serve_demo(&[], &[("IE_SERVE_REQUESTS", count)]);
        assert_refused(&output, &format!("IE_SERVE_REQUESTS must be in 1..=65536, got {count}"));
    }
}

/// A knob value that is not Unicode warns like any other rejected value
/// instead of passing for unset; the zero request count then stops the run.
#[cfg(unix)]
#[test]
fn a_knob_value_that_is_not_unicode_warns_instead_of_passing_for_unset() {
    use std::os::unix::ffi::OsStrExt;
    let output = Command::new(env!("CARGO_BIN_EXE_serve_demo"))
        .env("IE_SERVE_WINDOW", std::ffi::OsStr::from_bytes(b"16\xff"))
        .env("IE_SERVE_REQUESTS", "0")
        .output()
        .expect("serve_demo starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    let warning = r#"warning: ignoring IE_SERVE_WINDOW="16\xFF" (want a non-negative integer)"#;
    assert!(stderr.contains(warning), "stderr: {stderr}");
}
