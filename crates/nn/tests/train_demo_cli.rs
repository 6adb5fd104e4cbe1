//! `train_demo` reads `IE_TRAIN_EPOCHS` by the knob rule: a count above the
//! bound warns and keeps the default instead of reserving the whole history
//! and aborting on allocation.

use std::process::Command;

#[test]
fn an_absurd_epoch_count_warns_and_keeps_the_default() {
    let output = Command::new(env!("CARGO_BIN_EXE_train_demo"))
        .env("IE_TRAIN_EPOCHS", "100000000000")
        .env("IE_TRAIN_THREADS", "1")
        .output()
        .expect("train_demo starts");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&output.stdout), String::from_utf8_lossy(&output.stderr));
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let warning = r#"warning: ignoring IE_TRAIN_EPOCHS="100000000000" (want an integer in 0..=10000); using the default"#;
    assert!(stderr.contains(warning), "stderr: {stderr}");
    assert!(stdout.contains("1 worker thread(s), 4 epochs"), "stdout: {stdout}");
}
