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
}
