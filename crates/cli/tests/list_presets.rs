//! `dilu list` spells every preset out as registry components, so an
//! ablation's single difference from Dilu is visible without reading code.

use std::process::Command;

#[test]
fn list_spells_out_each_preset() {
    let out = Command::new(env!("CARGO_BIN_EXE_dilu")).arg("list").output().expect("dilu runs");
    assert!(out.status.success(), "dilu list must succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = |preset: &str| {
        stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(preset))
            .unwrap_or_else(|| panic!("no `{preset}` line in:\n{stdout}"))
            .to_owned()
    };
    let no_rc = line("dilu-no-rc");
    assert!(no_rc.contains("-RC"), "{no_rc}");
    assert!(
        no_rc.contains("placement=dilu{resource_complementary=false}"),
        "the -RC line must name the switched-off principle: {no_rc}"
    );
    assert!(no_rc.contains("controller=lazy share_policy=rckm"), "{no_rc}");
    let dilu = line("dilu");
    assert!(dilu.contains("placement=dilu controller=lazy share_policy=rckm"), "{dilu}");

    // One controller namespace: the horizontal-only scalers and the 2D
    // co-scaler share it, and no second one is listed.
    let controllers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("controllers:")).collect();
    assert_eq!(controllers.len(), 1, "{stdout}");
    assert!(
        controllers[0].ends_with("co-scale, keep-alive, lazy, null, reactive"),
        "{}",
        controllers[0]
    );
    assert!(!stdout.lines().any(|l| l.starts_with("autoscalers")), "{stdout}");
}

#[test]
fn list_into_a_closed_pipe_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    let list = |stdout: Stdio| -> Child {
        Command::new(env!("CARGO_BIN_EXE_dilu"))
            .arg("list")
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .expect("dilu runs")
    };
    let assert_quiet = |child: Child| {
        let out = child.wait_with_output().expect("dilu exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "status {:?}, stderr: {stderr}", out.status);
        assert!(stderr.is_empty(), "no panic text expected: {stderr}");
    };

    // Read one line, then close the pipe: `dilu list | head -1`.
    let mut child = list(Stdio::piped());
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line");
    assert_eq!(first, "presets (SystemKind):\n");
    assert_quiet(child);

    // Whether that reader closed before the last write is a race; a pipe
    // closed before `dilu` starts fails its very first write.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    assert_quiet(list(writer.into()));
}
